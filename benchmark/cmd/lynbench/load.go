package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	lynceus "repro"
	"repro/internal/serve"
)

// harness owns one in-process serve.Server on a real state dir behind an
// httptest server (requests cross loopback TCP), the load clients, and what
// they observed.
type harness struct {
	w  *workload
	in *inputs
	// root is the directory state dirs are created under.
	root string
	tr   *tracer

	srv      *serve.Server
	ts       *httptest.Server
	stateDir string
	clients  []*client
	nextDir  int

	// createMu serializes campaign creation while tracing, so that the
	// environment factory (which is not told the campaign ID) can name the
	// campaign whose environment it builds.
	createMu sync.Mutex
	naming   envNamer

	attempted, failed atomic.Int64
	// drainClose times every Drain+Close (ns); stats sums the counters of
	// every server the harness stopped.
	drainClose sample
	totals     serverTotals
	// setUpSteps is what the clients observed while setting up.
	setUpSteps []*observed

	mu       sync.Mutex
	outcomes []outcome
	firstErr error
}

// serverTotals sums Server.Stats counters over the servers a harness ran:
// steps completed, requests rejected for any reason, and failures the
// containment ladder caught (rollbacks, watchdog cancels, panics, stuck).
type serverTotals struct {
	steps, rejected, contained uint64
}

// envNamer hands the traced environment factory the campaign IDs its calls
// belong to, in call order.
type envNamer struct {
	mu    sync.Mutex
	queue []string
}

func (n *envNamer) push(ids ...string) {
	n.mu.Lock()
	n.queue = append(n.queue, ids...)
	n.mu.Unlock()
}

func (n *envNamer) pop() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.queue) == 0 {
		return "unnamed"
	}
	id := n.queue[0]
	n.queue = n.queue[1:]
	return id
}

// outcome is what a campaign produced: the output the check compares.
type outcome struct {
	group       int
	id          string
	trials      []int
	recommended int
}

func newHarness(w *workload, in *inputs, root string, tr *tracer) *harness {
	h := &harness{w: w, in: in, root: root, tr: tr}
	for i := 0; i < loadClients; i++ {
		// One transport per client keeps one keep-alive connection each.
		h.clients = append(h.clients, &client{
			h:    h,
			name: fmt.Sprintf("client-%d", i),
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		})
		h.setUpSteps = append(h.setUpSteps, &observed{})
	}
	return h
}

func (h *harness) fail(err error) {
	h.mu.Lock()
	if h.firstErr == nil {
		h.firstErr = err
	}
	h.mu.Unlock()
}

func (h *harness) err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.firstErr
}

func (h *harness) newStateDir() (string, error) {
	h.nextDir++
	dir := filepath.Join(h.root, fmt.Sprintf("state-%03d", h.nextDir))
	return dir, os.MkdirAll(dir, 0o755)
}

// config is cmd/lynceus-serve's defaults except the rate limit: the limiter
// path runs on every request but never sheds (the default 50/s would cap the
// measurement), and logging is off.
func (h *harness) config(dir string) serve.Config {
	cfg := serve.Config{StateDir: dir, Rate: 1e6, Burst: 1e6}
	if h.tr != nil {
		cfg.EnvFactory = func(spec serve.EnvSpec) (lynceus.Environment, error) {
			env, err := serve.BuildEnv(spec)
			if err != nil {
				return nil, err
			}
			return traceEnv(env, h.tr, h.naming.pop()), nil
		}
	}
	return cfg
}

// start opens a server on dir. resumed lists the IDs the server will resume,
// in the store's scan order, for the traced environment factory.
func (h *harness) start(dir string, resumed []string) error {
	if h.tr != nil {
		h.naming.push(resumed...)
	}
	srv, err := serve.New(h.config(dir))
	if err != nil {
		return err
	}
	h.srv, h.stateDir = srv, dir
	h.ts = httptest.NewServer(srv.Handler())
	return nil
}

// ready polls /readyz once; the server is ready as soon as New returned.
func (h *harness) ready() error {
	return h.clients[0].do(http.MethodGet, "/readyz", nil, nil)
}

// stop drains and closes the server, keeping its final counters.
func (h *harness) stop() error {
	begin := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := h.srv.Drain(ctx)
	stats := h.srv.Stats()
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	h.drainClose.addDur(time.Since(begin))
	h.totals.steps += stats.StepsCompleted
	h.totals.rejected += stats.RejectedRate + stats.RejectedQueue + stats.RejectedBusy + stats.RejectedDraining + stats.RejectedCap
	h.totals.contained += stats.Rollbacks + stats.WatchdogCancels + stats.Panics + stats.StuckCampaigns
	for _, c := range h.clients {
		c.http.CloseIdleConnections()
	}
	h.ts.Close()
	h.srv, h.ts = nil, nil
	return err
}

// client is one closed-loop load client.
type client struct {
	h    *harness
	name string
	http *http.Client
}

// do sends one request and decodes a 2xx JSON reply into out. Every request
// counts as attempted; a transport error or a non-2xx status counts as failed
// (and so misses every latency figure).
func (c *client) do(method, path string, body []byte, out any) error {
	c.h.attempted.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.h.ts.URL+path, rd)
	if err != nil {
		c.h.failed.Add(1)
		return err
	}
	req.Header.Set("X-Client-ID", c.name)
	resp, err := c.http.Do(req)
	if err != nil {
		c.h.failed.Add(1)
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.h.failed.Add(1)
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.h.failed.Add(1)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.h.failed.Add(1)
			return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return nil
}

func (c *client) create(spec serve.CampaignSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	if c.h.tr.active() {
		c.h.createMu.Lock()
		defer c.h.createMu.Unlock()
		c.h.naming.push(spec.ID)
	}
	id := c.h.tr.begin("http.create", spec.ID, -1)
	defer c.h.tr.end(id)
	return c.do(http.MethodPost, "/campaigns", body, nil)
}

// stepReply is the part of the server's step response the client reads.
type stepReply struct {
	Steps int  `json:"steps"`
	Done  bool `json:"done"`
}

// step asks for one step (one step per request, so one fsync per ack) and
// returns the reply with the client-observed latency.
func (c *client) step(id string, k int) (stepReply, time.Duration, error) {
	var reply stepReply
	sp := c.h.tr.begin("http.step", id, k)
	start := time.Now()
	err := c.do(http.MethodPost, "/campaigns/"+id+"/step", nil, &reply)
	lat := time.Since(start)
	c.h.tr.end(sp)
	return reply, lat, err
}

// recommendation fetches the campaign's result and keeps what the output
// check compares: the trial-ID sequence and the recommended configuration.
func (c *client) recommendation(id string, group int) (outcome, error) {
	var res struct {
		Recommended struct{ Config struct{ ID int } }
		Trials      []struct{ Config struct{ ID int } }
	}
	sp := c.h.tr.begin("http.recommendation", id, -1)
	err := c.do(http.MethodGet, "/campaigns/"+id+"/recommendation", nil, &res)
	c.h.tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{group: group, id: id, recommended: res.Recommended.Config.ID}
	for _, tr := range res.Trials {
		out.trials = append(out.trials, tr.Config.ID)
	}
	return out, nil
}

func (c *client) remove(id string) error {
	sp := c.h.tr.begin("http.delete", id, -1)
	defer c.h.tr.end(sp)
	return c.do(http.MethodDelete, "/campaigns/"+id, nil, nil)
}

// observed is what one client measured during one window.
type observed struct {
	boot, decision sample // step latencies, ns
	lifecycle      sample // ns
	steps          int
	lastAck        time.Time
}

func (o *observed) recordStep(w *workload, k int, lat time.Duration) {
	if k < w.bootstrap {
		o.boot.addDur(lat)
	} else {
		o.decision.addDur(lat)
	}
	o.steps++
	o.lastAck = time.Now()
}

func mergeObserved(parts []*observed) *observed {
	out := &observed{}
	for _, p := range parts {
		out.boot = append(out.boot, p.boot...)
		out.decision = append(out.decision, p.decision...)
		out.lifecycle = append(out.lifecycle, p.lifecycle...)
		out.steps += p.steps
		if p.lastAck.After(out.lastAck) {
			out.lastAck = p.lastAck
		}
	}
	return out
}

// stepTo steps the campaign from step k until it is done, has taken limit
// steps in all, or the deadline passed (zero: none). It returns the
// next step index and whether the campaign reached its end.
func (c *client) stepTo(id string, k, limit int, deadline time.Time, obs *observed) (int, bool, error) {
	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return k, false, nil
		}
		reply, lat, err := c.step(id, k)
		if err != nil {
			return k, false, err
		}
		if obs != nil {
			obs.recordStep(c.h.w, k, lat)
		}
		k++
		if reply.Done || k >= limit {
			return k, true, nil
		}
	}
}

// runCampaign drives one whole lifecycle: create, step until done, fetch the
// recommendation, delete. A campaign the deadline interrupts is deleted and
// produces no outcome and no lifecycle time.
func (c *client) runCampaign(spec serve.CampaignSpec, group int, deadline time.Time, obs *observed) error {
	sp := c.h.tr.begin("campaign", spec.ID, -1)
	defer c.h.tr.end(sp)
	start := time.Now()
	if err := c.create(spec); err != nil {
		return err
	}
	_, finished, err := c.stepTo(spec.ID, 0, c.h.w.maxSteps(), deadline, obs)
	if err != nil {
		return err
	}
	if finished {
		out, err := c.recommendation(spec.ID, group)
		if err != nil {
			return err
		}
		c.h.mu.Lock()
		c.h.outcomes = append(c.h.outcomes, out)
		c.h.mu.Unlock()
	}
	if err := c.remove(spec.ID); err != nil {
		return err
	}
	if finished && obs != nil {
		obs.lifecycle.addDur(time.Since(start))
	}
	return nil
}

// eachClient runs fn on every client concurrently and waits for all.
func (h *harness) eachClient(fn func(i int, c *client)) {
	var wg sync.WaitGroup
	for i, c := range h.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}

// share hands the indices [0, n) to the clients, each pulling the next when
// it is done with the last, and stops at the first error.
func (h *harness) share(n int, fn func(ci, i int, c *client) error) {
	var next atomic.Int64
	h.eachClient(func(ci int, c *client) {
		for h.err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(ci, i, c); err != nil {
				h.fail(err)
				return
			}
		}
	})
}

// window is the result of one measured phase.
type window struct {
	*observed
	wall time.Duration // measured-phase wall time
}

func (w *window) stepsPerSecond() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.steps) / w.wall.Seconds()
}

// campaignWindow runs the closed loop for dur: clients pull whole campaigns
// from the shared list, starting at *next, and run each lifecycle to
// completion; at the deadline the campaign in flight is abandoned after its
// current step.
func (h *harness) campaignWindow(dur time.Duration, next *atomic.Int64) *window {
	parts := make([]*observed, len(h.clients))
	start := time.Now()
	deadline := start.Add(dur)
	h.eachClient(func(i int, c *client) {
		obs := &observed{}
		parts[i] = obs
		// A client's first campaign always runs to completion, so that even
		// a window shorter than a campaign measures every metric.
		limit := time.Time{}
		for (limit.IsZero() || time.Now().Before(deadline)) && h.err() == nil {
			idx := int(next.Add(1) - 1)
			if err := c.runCampaign(h.in.spec(idx), h.w.group(idx), limit, obs); err != nil {
				h.fail(err)
				return
			}
			limit = deadline
		}
	})
	obs := mergeObserved(parts)
	win := &window{observed: obs}
	if !obs.lastAck.IsZero() {
		win.wall = obs.lastAck.Sub(start)
	}
	return win
}

// setUp prepares the workload on a fresh server: both client connections are
// opened and the server's lazy state is built by a throwaway campaign per
// client (a group no measured campaign uses), and, where the workload says
// so, each group's leader campaign runs to completion so its decisions sit
// in the share caches. For the restart load it builds the pristine state dir
// instead.
func (h *harness) setUp() (*pristine, error) {
	if h.w.restartCampaigns > 0 {
		return h.populate()
	}
	dir, err := h.newStateDir()
	if err != nil {
		return nil, err
	}
	if err := h.start(dir, nil); err != nil {
		return nil, err
	}
	if err := h.ready(); err != nil {
		return nil, err
	}
	h.eachClient(func(i int, c *client) {
		spec := h.in.groupSpec(-1 - i)
		spec.ID = fmt.Sprintf("setup%03d", i)
		if err := c.create(spec); err != nil {
			h.fail(err)
			return
		}
		if _, _, err := c.stepTo(spec.ID, 0, h.w.bootstrap+2, time.Time{}, h.setUpSteps[i]); err != nil {
			h.fail(err)
			return
		}
		if err := c.remove(spec.ID); err != nil {
			h.fail(err)
		}
	})
	if h.w.warmLeaders {
		h.share(h.w.groups, func(_, g int, c *client) error {
			return c.runCampaign(h.in.warmSpec(g), g, time.Time{}, nil)
		})
	}
	return nil, h.err()
}

// pristine is the restart load's state dir, held in memory: every cycle
// writes it out afresh through the store.
type pristine struct {
	specs     []serve.CampaignSpec
	snapshots [][]byte
}

func (p *pristine) ids() []string {
	ids := make([]string, len(p.specs))
	for i, s := range p.specs {
		ids[i] = s.ID
	}
	return ids
}

// restore writes the pristine state into a fresh directory through the
// store, so every file is durable before the timed restart begins.
func (p *pristine) restore(dir string) error {
	store, err := serve.OpenStore(dir)
	if err != nil {
		return err
	}
	for i, spec := range p.specs {
		if err := store.PutSpec(spec); err != nil {
			return err
		}
		if err := store.PutSnapshot(spec.ID, p.snapshots[i]); err != nil {
			return err
		}
	}
	return nil
}

// populate builds the restart load's state dir over HTTP: every campaign is
// created and stepped to bootstrap+resumeAfter, the server drains,
// and the directory is read back through the store.
func (h *harness) populate() (*pristine, error) {
	dir, err := h.newStateDir()
	if err != nil {
		return nil, err
	}
	if err := h.start(dir, nil); err != nil {
		return nil, err
	}
	h.share(h.w.restartCampaigns, func(ci, i int, c *client) error {
		spec := h.in.spec(i)
		if err := c.create(spec); err != nil {
			return err
		}
		_, _, err := c.stepTo(spec.ID, 0, h.w.resumeStep(), time.Time{}, h.setUpSteps[ci])
		return err
	})
	if err := h.stop(); err != nil {
		return nil, err
	}
	if err := h.err(); err != nil {
		return nil, err
	}
	return readPristine(dir)
}

func readPristine(dir string) (*pristine, error) {
	store, err := serve.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	specs, err := store.Specs()
	if err != nil {
		return nil, err
	}
	p := &pristine{specs: specs}
	for _, spec := range specs {
		snap, ok, err := store.Snapshot(spec.ID)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("campaign %s has no snapshot", spec.ID)
		}
		p.snapshots = append(p.snapshots, snap)
	}
	return p, os.RemoveAll(dir)
}

// restartWindow runs restart cycles until dur has passed: write the pristine
// dir out (untimed), then serve.New on it until /readyz answers, one step per
// campaign from the load clients, and Drain+Close. With collect, the last
// cycle also fetches every campaign's trials for the output check (untimed).
func (h *harness) restartWindow(dur time.Duration, p *pristine, collect bool) *window {
	win := &window{observed: &observed{}}
	deadline := time.Now().Add(dur)
	for last := false; !last && h.err() == nil; {
		dir, err := h.newStateDir()
		if err == nil {
			err = p.restore(dir)
		}
		if err != nil {
			h.fail(err)
			break
		}

		start := time.Now()
		if err := h.start(dir, p.ids()); err != nil {
			h.fail(err)
			break
		}
		if err := h.ready(); err != nil {
			h.fail(err)
		}
		win.lifecycle.addDur(time.Since(start))

		parts := make([]*observed, len(h.clients))
		for ci := range parts {
			parts[ci] = &observed{}
		}
		k := h.w.resumeStep()
		h.share(len(p.specs), func(ci, i int, c *client) error {
			sp := h.tr.begin("campaign", p.specs[i].ID, -1)
			defer h.tr.end(sp)
			_, _, err := c.stepTo(p.specs[i].ID, k, k+1, time.Time{}, parts[ci])
			return err
		})
		win.wall += time.Since(start)
		obs := mergeObserved(parts)
		win.decision = append(win.decision, obs.decision...)
		win.steps += obs.steps

		last = !time.Now().Before(deadline)
		if last && collect {
			h.collectOutcomes(p)
		}
		closing := time.Now()
		if err := h.stop(); err != nil {
			h.fail(err)
		}
		win.wall += time.Since(closing)
		if err := os.RemoveAll(dir); err != nil {
			h.fail(err)
		}
	}
	return win
}

// collectOutcomes reads every live campaign's trials so far.
func (h *harness) collectOutcomes(p *pristine) {
	h.share(len(p.specs), func(_, i int, c *client) error {
		out, err := c.recommendation(p.specs[i].ID, h.w.group(i))
		if err != nil {
			return err
		}
		h.mu.Lock()
		h.outcomes = append(h.outcomes, out)
		h.mu.Unlock()
		return nil
	})
}
