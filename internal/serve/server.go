package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	lynceus "repro"
)

// Config configures a Server. The zero value of every field selects a
// sensible default; only StateDir is required.
type Config struct {
	// StateDir is the durable state directory (required).
	StateDir string
	// MaxCampaigns caps the number of live campaigns; admission past it is
	// shed with 503. 0 means 1024.
	MaxCampaigns int
	// QueueDepth bounds the admission queue of step requests; a full queue
	// sheds with 503 + Retry-After instead of queueing unboundedly. 0 means
	// 64.
	QueueDepth int
	// Workers is the number of step-executor goroutines. 0 means
	// min(GOMAXPROCS, 4).
	Workers int
	// Rate and Burst configure the per-client token bucket on mutating
	// endpoints (campaign creation and stepping): Rate tokens/second refill
	// up to Burst. Rate 0 means 50/s; Rate < 0 disables limiting.
	Rate  float64
	Burst float64
	// StepDeadline is the per-step wall-clock budget (one /step request,
	// all its steps): the step runs under a context that expires after it,
	// stopping the campaign between planner phases. 0 means 2 minutes;
	// negative disables the deadline.
	StepDeadline time.Duration
	// CancelGrace is how long the executor waits after the deadline expires
	// for the step to stop cooperatively before abandoning it and
	// quarantining the campaign as stuck. 0 means 3 seconds.
	CancelGrace time.Duration
	// Now is the clock of the limiter (tests inject a fake one). nil means
	// time.Now.
	Now func() time.Time
	// EnvFactory rebuilds environments from specs. nil means BuildEnv; tests
	// inject factories producing misbehaving environments (panics, blocking
	// runs) to exercise the isolation paths.
	EnvFactory func(EnvSpec) (lynceus.Environment, error)
	// Logf receives operational log lines. nil silences them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxCampaigns == 0 {
		c.MaxCampaigns = 1024
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = min(runtime.GOMAXPROCS(0), 4)
	}
	if c.Rate == 0 {
		c.Rate = 50
	}
	if c.Burst == 0 {
		c.Burst = 2 * c.Rate
	}
	if c.StepDeadline == 0 {
		c.StepDeadline = 2 * time.Minute
	} else if c.StepDeadline < 0 {
		c.StepDeadline = 0
	}
	if c.CancelGrace == 0 {
		c.CancelGrace = 3 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.EnvFactory == nil {
		c.EnvFactory = BuildEnv
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// CampaignState labels a campaign's lifecycle state.
const (
	StateActive      = "active"      // accepting steps
	StateDone        = "done"        // finished; recommendation available
	StateQuarantined = "quarantined" // panicked or stuck; no further steps
)

// CampaignStatus is the wire status of one campaign (GET /campaigns/{id}).
type CampaignStatus struct {
	ID                 string  `json:"id"`
	State              string  `json:"state"`
	Steps              int     `json:"steps"`
	Trials             int     `json:"trials"`
	QuarantinedConfigs int     `json:"quarantined_configs,omitempty"`
	RemainingBudget    float64 `json:"remaining_budget"`
	Done               bool    `json:"done"`
	FinishReason       string  `json:"finish_reason,omitempty"`
	QuarantineReason   string  `json:"quarantine_reason,omitempty"`
	LastError          string  `json:"last_error,omitempty"`
}

// campaign is the server-side state of one tuning campaign.
type campaign struct {
	spec CampaignSpec

	// stepMu serializes everything that touches the tuner (steps, rollback,
	// recommendation, deletion); Campaigns are not safe for concurrent use.
	// It is deliberately leaked when a stuck step is abandoned: the zombie
	// goroutine may still hold the tuner, so nobody else may ever touch it
	// again — which quarantine guarantees.
	stepMu  sync.Mutex
	tuner   *lynceus.Tuner
	env     lynceus.Environment
	deleted atomic.Bool

	stMu   sync.Mutex
	status CampaignStatus
}

func (c *campaign) getStatus() CampaignStatus {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	return c.status
}

func (c *campaign) setStatus(mut func(*CampaignStatus)) {
	c.stMu.Lock()
	mut(&c.status)
	c.stMu.Unlock()
}

// refreshStatus re-derives the status from the tuner. Caller holds stepMu.
func (c *campaign) refreshStatus(stepped int) {
	trials := len(c.tuner.Trials())
	quarantined := len(c.tuner.QuarantinedIDs())
	remaining := c.tuner.RemainingBudget()
	done := c.tuner.Done()
	finish := ""
	if reason := c.tuner.FinishReason(); reason != nil {
		finish = reason.Error()
	}
	c.setStatus(func(st *CampaignStatus) {
		st.Steps += stepped
		st.Trials = trials
		st.QuarantinedConfigs = quarantined
		st.RemainingBudget = remaining
		st.Done = done
		st.FinishReason = finish
		if done && st.State == StateActive {
			st.State = StateDone
		}
	})
}

// Stats is the wire payload of GET /stats.
type Stats struct {
	Campaigns        int    `json:"campaigns"`
	ActiveCampaigns  int    `json:"active_campaigns"`
	DoneCampaigns    int    `json:"done_campaigns"`
	Quarantined      int    `json:"quarantined_campaigns"`
	QueueLen         int    `json:"queue_len"`
	QueueCap         int    `json:"queue_cap"`
	Draining         bool   `json:"draining"`
	ResumedOnStart   uint64 `json:"resumed_on_start"`
	StepsCompleted   uint64 `json:"steps_completed"`
	StepRequests     uint64 `json:"step_requests_admitted"`
	RejectedRate     uint64 `json:"rejected_rate_limit"`
	RejectedQueue    uint64 `json:"rejected_queue_full"`
	RejectedBusy     uint64 `json:"rejected_busy"`
	RejectedDraining uint64 `json:"rejected_draining"`
	RejectedCap      uint64 `json:"rejected_campaign_cap"`
	Panics           uint64 `json:"panics_isolated"`
	StuckCampaigns   uint64 `json:"stuck_campaigns"`
	WatchdogCancels  uint64 `json:"watchdog_cancels"`
	Rollbacks        uint64 `json:"rollbacks"`
	LimiterClients   int    `json:"limiter_clients"`
	WatchdogArmed    int    `json:"watchdog_armed"`
}

type counters struct {
	resumedOnStart   atomic.Uint64
	stepsCompleted   atomic.Uint64
	stepRequests     atomic.Uint64
	rejectedRate     atomic.Uint64
	rejectedQueue    atomic.Uint64
	rejectedBusy     atomic.Uint64
	rejectedDraining atomic.Uint64
	rejectedCap      atomic.Uint64
	panics           atomic.Uint64
	stuck            atomic.Uint64
	watchdogCancels  atomic.Uint64
	rollbacks        atomic.Uint64
	armed            atomic.Int64 // steps running under a deadline
}

// Server is the multi-campaign tuning server. Create one with New, mount
// Handler on an http.Server, and call Drain then Close on shutdown.
type Server struct {
	cfg     Config
	store   *Store
	group   *lynceus.ShareGroup
	limiter *Limiter
	mux     *http.ServeMux

	mu        sync.Mutex // campaigns map + ID generation
	campaigns map[string]*campaign
	nextID    uint64

	queueMu     sync.RWMutex // enqueue vs. queue close
	queueClosed bool
	queue       chan *stepJob
	inflight    sync.WaitGroup
	workersWG   sync.WaitGroup

	draining  atomic.Bool
	closeOnce sync.Once

	stats counters
}

type stepJob struct {
	c         *campaign
	steps     int
	abandoned atomic.Bool
	done      chan stepReply
}

type stepReply struct {
	code    int
	status  CampaignStatus
	stepped int
	errMsg  string
}

// stepResult is what one executed step batch reports back to the executor.
type stepResult struct {
	stepped  int
	done     bool
	err      error
	panicked string
	stale    bool // abandoned mid-batch; reply already sent
}

// New opens the state directory, resumes every persisted campaign, and
// starts the step executors. Resumption is bitwise: each campaign continues
// the exact trial sequence its last snapshot recorded, on a freshly rebuilt
// environment whose mutable state the snapshot restored.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := OpenStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		store:     store,
		group:     lynceus.NewShareGroup(),
		limiter:   NewLimiter(cfg.Rate, cfg.Burst, cfg.Now),
		campaigns: make(map[string]*campaign),
		queue:     make(chan *stepJob, cfg.QueueDepth),
	}
	if err := s.rescan(); err != nil {
		return nil, err
	}
	s.mux = s.newMux()
	for w := 0; w < cfg.Workers; w++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// rescan rebuilds every persisted campaign: environment from the spec, then
// resume from the snapshot (or a fresh start when the campaign was admitted
// but never stepped). A campaign that fails to resume is registered
// quarantined with the failure as its reason — visible and reportable, never
// silently dropped, and never fatal to the server.
func (s *Server) rescan() error {
	specs, err := s.store.Specs()
	if err != nil {
		return err
	}
	for _, spec := range specs {
		c := &campaign{spec: spec}
		c.status = CampaignStatus{ID: spec.ID, State: StateActive, RemainingBudget: spec.Options.Budget}
		if err := s.buildTuner(c); err != nil {
			s.cfg.Logf("serve: campaign %s failed to resume: %v", spec.ID, err)
			c.setStatus(func(st *CampaignStatus) {
				st.State = StateQuarantined
				st.QuarantineReason = fmt.Sprintf("resume failed: %v", err)
			})
		} else {
			c.refreshStatus(0)
			s.stats.resumedOnStart.Add(1)
		}
		s.campaigns[spec.ID] = c
		s.cfg.Logf("serve: campaign %s rescanned (state %s, %d trials)", spec.ID, c.getStatus().State, c.getStatus().Trials)
	}
	return nil
}

// buildTuner (re)constructs a campaign's environment and tuner from its spec
// and latest snapshot. Caller must hold stepMu or otherwise own the campaign
// exclusively.
func (s *Server) buildTuner(c *campaign) error {
	env, err := s.cfg.EnvFactory(c.spec.Env)
	if err != nil {
		return fmt.Errorf("building environment: %w", err)
	}
	snap, ok, err := s.store.Snapshot(c.spec.ID)
	if err != nil {
		return err
	}
	var tuner *lynceus.Tuner
	if ok {
		tuner, err = lynceus.ResumeTunerShared(c.spec.Tuner.TunerConfig(), env, snap, lynceus.ResumeFuncs{}, s.group)
		if err != nil {
			return fmt.Errorf("resuming snapshot: %w", err)
		}
	} else {
		tuner, err = lynceus.StartTunerShared(c.spec.Tuner.TunerConfig(), env, c.spec.Options.Options(), s.group)
		if err != nil {
			return fmt.Errorf("starting campaign: %w", err)
		}
	}
	c.env, c.tuner = env, tuner
	return nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleCreate)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("POST /campaigns/{id}/step", s.handleStep)
	mux.HandleFunc("GET /campaigns/{id}", s.handleGet)
	mux.HandleFunc("GET /campaigns/{id}/recommendation", s.handleRecommendation)
	mux.HandleFunc("DELETE /campaigns/{id}", s.handleDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// clientID identifies the caller for rate limiting: the X-Client-ID header
// when present, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error      string  `json:"error"`
	RetryAfter float64 `json:"retry_after_seconds,omitempty"`
}

// shed rejects a request with a Retry-After hint — the load-shedding reply:
// the server tells the client when trying again is worthwhile instead of
// holding its request in an unbounded queue.
func shed(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(math.Ceil(retryAfter.Seconds()))))
	}
	writeJSON(w, code, errorBody{Error: msg, RetryAfter: retryAfter.Seconds()})
}

// admit runs the common admission path of mutating endpoints: drain check,
// then the per-client token bucket. It reports whether the request may
// proceed (it has already been answered otherwise).
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.draining.Load() {
		s.stats.rejectedDraining.Add(1)
		shed(w, http.StatusServiceUnavailable, "server draining", 5*time.Second)
		return false
	}
	if ok, retryAfter := s.limiter.Allow(clientID(r)); !ok {
		s.stats.rejectedRate.Add(1)
		shed(w, http.StatusTooManyRequests, "rate limit exceeded", retryAfter)
		return false
	}
	return true
}

// createRequest is the body of POST /campaigns.
type createRequest struct {
	ID      string      `json:"id,omitempty"`
	Env     EnvSpec     `json:"env"`
	Tuner   TunerSpec   `json:"tuner"`
	Options OptionsSpec `json:"options"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	id := req.ID
	if id == "" {
		id = s.generateID()
	}
	spec := CampaignSpec{ID: id, Env: req.Env, Tuner: req.Tuner, Options: req.Options}
	if err := spec.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// Admission control on campaign count: past the cap the server sheds
	// creation instead of accumulating unbounded live tuner state.
	s.mu.Lock()
	if _, exists := s.campaigns[id]; exists {
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("campaign %q already exists", id)})
		return
	}
	if len(s.campaigns) >= s.cfg.MaxCampaigns {
		s.mu.Unlock()
		s.stats.rejectedCap.Add(1)
		shed(w, http.StatusServiceUnavailable, "campaign capacity reached", 30*time.Second)
		return
	}
	// Reserve the slot with a placeholder-free two-phase approach: build
	// outside the lock, then re-check. Building first would race; holding
	// the lock across construction would serialize creations. Reserve now.
	s.campaigns[id] = nil
	s.mu.Unlock()

	c := &campaign{spec: spec}
	c.status = CampaignStatus{ID: id, State: StateActive, RemainingBudget: spec.Options.Budget}
	// A spec the tuner cannot be built from is the client's error; a spec
	// that cannot be made durable is the server's.
	code := http.StatusBadRequest
	err := s.buildTuner(c)
	if err == nil {
		// Durable before acknowledged: the spec hits disk before the client
		// learns the campaign exists, so a crash after the 201 can always
		// rebuild it.
		code = http.StatusInternalServerError
		err = s.store.PutSpec(spec)
	}
	s.mu.Lock()
	if err != nil {
		delete(s.campaigns, id)
		s.mu.Unlock()
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	s.campaigns[id] = c
	s.mu.Unlock()
	s.cfg.Logf("serve: campaign %s created (%s/%s)", id, spec.Env.Kind, spec.Env.Name)
	writeJSON(w, http.StatusCreated, c.getStatus())
}

// generateID allocates an unused server-assigned campaign ID.
func (s *Server) generateID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.nextID++
		id := fmt.Sprintf("c-%06d", s.nextID)
		if _, exists := s.campaigns[id]; !exists {
			return id
		}
	}
}

func (s *Server) lookup(id string) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok && c != nil
}

// stepRequest is the body of POST /campaigns/{id}/step. An empty body means
// one step.
type stepRequest struct {
	Steps int `json:"steps,omitempty"`
}

// stepResponse is the reply of a successful step batch.
type stepResponse struct {
	CampaignStatus
	Stepped int `json:"stepped"`
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such campaign"})
		return
	}
	st := c.getStatus()
	switch st.State {
	case StateQuarantined:
		writeJSON(w, http.StatusConflict, errorBody{Error: "campaign quarantined: " + st.QuarantineReason})
		return
	case StateDone:
		writeJSON(w, http.StatusOK, stepResponse{CampaignStatus: st})
		return
	}
	steps := 1
	if r.ContentLength != 0 {
		var req stepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding request: %v", err)})
			return
		}
		if req.Steps > 0 {
			steps = req.Steps
		}
	}
	const maxStepsPerRequest = 10_000
	if steps > maxStepsPerRequest {
		steps = maxStepsPerRequest
	}

	job := &stepJob{c: c, steps: steps, done: make(chan stepReply, 1)}

	// The bounded admission queue: a full queue sheds immediately with
	// Retry-After. In-flight work is tracked so Drain can wait for it.
	s.queueMu.RLock()
	if s.queueClosed {
		s.queueMu.RUnlock()
		s.stats.rejectedDraining.Add(1)
		shed(w, http.StatusServiceUnavailable, "server draining", 5*time.Second)
		return
	}
	s.inflight.Add(1)
	select {
	case s.queue <- job:
		s.queueMu.RUnlock()
		s.stats.stepRequests.Add(1)
	default:
		s.inflight.Done()
		s.queueMu.RUnlock()
		s.stats.rejectedQueue.Add(1)
		shed(w, http.StatusServiceUnavailable, "admission queue full", time.Second)
		return
	}

	select {
	case reply := <-job.done:
		if reply.errMsg != "" {
			body := struct {
				errorBody
				CampaignStatus
			}{errorBody{Error: reply.errMsg}, reply.status}
			writeJSON(w, reply.code, body)
			return
		}
		writeJSON(w, reply.code, stepResponse{CampaignStatus: reply.status, Stepped: reply.stepped})
	case <-r.Context().Done():
		// Client gone; the job still runs to completion (its snapshot is
		// durable regardless) and the reply is dropped on the buffered
		// channel.
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such campaign"})
		return
	}
	writeJSON(w, http.StatusOK, c.getStatus())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.campaigns))
	for id, c := range s.campaigns {
		if c != nil {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	sort.Strings(ids)
	statuses := make([]CampaignStatus, 0, len(ids))
	for _, id := range ids {
		if c, ok := s.lookup(id); ok {
			statuses = append(statuses, c.getStatus())
		}
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleRecommendation(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such campaign"})
		return
	}
	if !c.stepMu.TryLock() {
		s.stats.rejectedBusy.Add(1)
		shed(w, http.StatusConflict, "campaign is stepping", time.Second)
		return
	}
	defer c.stepMu.Unlock()
	if st := c.getStatus(); st.State == StateQuarantined {
		writeJSON(w, http.StatusConflict, errorBody{Error: "campaign quarantined: " + st.QuarantineReason})
		return
	}
	result, err := c.tuner.Result()
	if err != nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, result)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c, ok := s.lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such campaign"})
		return
	}
	if st := c.getStatus(); st.State != StateQuarantined {
		// Live campaigns must be idle to delete; quarantined ones are
		// deletable even with their stepMu leaked by an abandoned step.
		if !c.stepMu.TryLock() {
			s.stats.rejectedBusy.Add(1)
			shed(w, http.StatusConflict, "campaign is stepping", time.Second)
			return
		}
		defer c.stepMu.Unlock()
	}
	c.deleted.Store(true)
	s.mu.Lock()
	delete(s.campaigns, id)
	s.mu.Unlock()
	if err := s.store.Remove(id); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	s.cfg.Logf("serve: campaign %s deleted", id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats assembles the server's observability counters.
func (s *Server) Stats() Stats {
	st := Stats{
		QueueLen:         len(s.queue),
		QueueCap:         cap(s.queue),
		Draining:         s.draining.Load(),
		ResumedOnStart:   s.stats.resumedOnStart.Load(),
		StepsCompleted:   s.stats.stepsCompleted.Load(),
		StepRequests:     s.stats.stepRequests.Load(),
		RejectedRate:     s.stats.rejectedRate.Load(),
		RejectedQueue:    s.stats.rejectedQueue.Load(),
		RejectedBusy:     s.stats.rejectedBusy.Load(),
		RejectedDraining: s.stats.rejectedDraining.Load(),
		RejectedCap:      s.stats.rejectedCap.Load(),
		Panics:           s.stats.panics.Load(),
		StuckCampaigns:   s.stats.stuck.Load(),
		WatchdogCancels:  s.stats.watchdogCancels.Load(),
		Rollbacks:        s.stats.rollbacks.Load(),
		LimiterClients:   s.limiter.Clients(),
		WatchdogArmed:    int(s.stats.armed.Load()),
	}
	s.mu.Lock()
	for _, c := range s.campaigns {
		if c == nil {
			continue
		}
		st.Campaigns++
		switch c.getStatus().State {
		case StateActive:
			st.ActiveCampaigns++
		case StateDone:
			st.DoneCampaigns++
		case StateQuarantined:
			st.Quarantined++
		}
	}
	s.mu.Unlock()
	return st
}

// worker is one step executor: it drains the admission queue, running each
// job under its step deadline with panic isolation.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for job := range s.queue {
		s.runJob(job)
		s.inflight.Done()
	}
}

// runJob executes one step batch. The failure containment ladder:
//
//  1. A step error (failed profiling run, snapshot failure, cancellation)
//     rolls the campaign back to its last durable snapshot — the in-memory
//     state after a failed Step is undefined, the snapshot is not — and the
//     campaign stays usable.
//  2. An expired step deadline that the step honors (it stops at the next
//     planner-phase boundary) is case 1 with a 504 reply.
//  3. A step that ignores cancellation past the grace period is abandoned:
//     its goroutine keeps the campaign's stepMu forever, the campaign is
//     quarantined, the worker moves on. The zombie can never touch durable
//     state again (the abandoned flag gates the snapshot write).
//  4. A panicking step is recovered in its goroutine and quarantines only
//     its campaign; the worker, the server and the ShareGroup peers are
//     untouched.
func (s *Server) runJob(job *stepJob) {
	c := job.c
	if !c.stepMu.TryLock() {
		s.stats.rejectedBusy.Add(1)
		job.done <- stepReply{code: http.StatusConflict, status: c.getStatus(), errMsg: "campaign is stepping"}
		return
	}
	if c.deleted.Load() {
		c.stepMu.Unlock()
		job.done <- stepReply{code: http.StatusNotFound, status: c.getStatus(), errMsg: "campaign deleted"}
		return
	}

	var ctx context.Context
	var cancel context.CancelFunc
	var armed int64 // this step's share of the WatchdogArmed gauge
	if s.cfg.StepDeadline > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), s.cfg.StepDeadline)
		armed = 1
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	defer cancel()
	s.stats.armed.Add(armed)
	resCh := make(chan stepResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				resCh <- stepResult{panicked: fmt.Sprintf("%v\n%s", r, debug.Stack())}
			}
		}()
		resCh <- s.execSteps(ctx, c, job)
	}()

	var res stepResult
	select {
	case res = <-resCh:
	case <-ctx.Done():
		// The deadline expired. Give the step CancelGrace to stop
		// cooperatively at a planner-phase boundary; past that it is stuck
		// for real.
		s.stats.watchdogCancels.Add(1)
		s.cfg.Logf("serve: watchdog cancelled a step of campaign %s", c.spec.ID)
		timer := time.NewTimer(s.cfg.CancelGrace)
		select {
		case res = <-resCh:
			timer.Stop()
		case <-timer.C:
			job.abandoned.Store(true)
			s.stats.stuck.Add(1)
			s.quarantine(c, "stuck: step exceeded its deadline and ignored cancellation")
			s.stats.armed.Add(-armed)
			// stepMu stays locked forever — see the campaign.stepMu comment.
			job.done <- stepReply{code: http.StatusGatewayTimeout, status: c.getStatus(),
				errMsg: "step deadline exceeded; campaign quarantined as stuck"}
			return
		}
	}
	s.stats.armed.Add(-armed)

	switch {
	case res.panicked != "":
		s.stats.panics.Add(1)
		s.quarantine(c, "panic during step: "+firstLine(res.panicked))
		s.cfg.Logf("serve: campaign %s panicked, quarantined:\n%s", c.spec.ID, res.panicked)
		c.stepMu.Unlock()
		job.done <- stepReply{code: http.StatusInternalServerError, status: c.getStatus(),
			errMsg: "campaign panicked and was quarantined"}
	case res.stale:
		c.stepMu.Unlock()
	case res.err != nil:
		code := http.StatusInternalServerError
		msg := res.err.Error()
		if errors.Is(res.err, lynceus.ErrCampaignCancelled) {
			code = http.StatusGatewayTimeout
			msg = "step cancelled by watchdog deadline; campaign rolled back to its last snapshot"
		}
		if rbErr := s.rollback(c); rbErr != nil {
			s.quarantine(c, fmt.Sprintf("rollback after step error failed: %v (step error: %v)", rbErr, res.err))
			c.stepMu.Unlock()
			job.done <- stepReply{code: http.StatusInternalServerError, status: c.getStatus(),
				errMsg: "step failed and rollback failed; campaign quarantined"}
			return
		}
		c.setStatus(func(st *CampaignStatus) { st.LastError = res.err.Error() })
		c.stepMu.Unlock()
		job.done <- stepReply{code: code, status: c.getStatus(), errMsg: msg}
	default:
		c.stepMu.Unlock()
		job.done <- stepReply{code: http.StatusOK, status: c.getStatus(), stepped: res.stepped}
	}
}

// execSteps runs the job's steps, snapshotting durably after each one: the
// write-ahead discipline — Step, then snapshot to disk, then acknowledge —
// is what bounds a kill -9 loss to the single in-flight step.
func (s *Server) execSteps(ctx context.Context, c *campaign, job *stepJob) stepResult {
	out := stepResult{}
	for i := 0; i < job.steps; i++ {
		done, err := c.tuner.StepContext(ctx)
		if err != nil {
			out.err = err
			return out
		}
		snap, err := c.tuner.Snapshot()
		if err != nil {
			out.err = fmt.Errorf("snapshotting after step: %w", err)
			return out
		}
		if job.abandoned.Load() {
			// The executor already replied and quarantined the campaign;
			// this zombie must not advance durable state.
			out.stale = true
			return out
		}
		if err := s.store.PutSnapshot(c.spec.ID, snap); err != nil {
			out.err = err
			return out
		}
		s.stats.stepsCompleted.Add(1)
		c.refreshStatus(1)
		out.stepped++
		if done {
			out.done = true
			return out
		}
	}
	return out
}

// rollback rebuilds a campaign from its last durable snapshot (or from
// scratch when none exists yet). Caller holds stepMu.
func (s *Server) rollback(c *campaign) error {
	s.stats.rollbacks.Add(1)
	if err := s.buildTuner(c); err != nil {
		return err
	}
	c.refreshStatus(0)
	return nil
}

func (s *Server) quarantine(c *campaign, reason string) {
	c.setStatus(func(st *CampaignStatus) {
		st.State = StateQuarantined
		st.QuarantineReason = reason
	})
}

func firstLine(v string) string {
	for i := 0; i < len(v); i++ {
		if v[i] == '\n' {
			return v[:i]
		}
	}
	return v
}

// Drain puts the server into graceful-drain mode: new work is shed with 503
// (readiness flips to draining), and the call blocks until every admitted
// step finished — each one having written its snapshot durably — or the
// context expires. After Drain, every campaign's progress is on disk and a
// restart resumes all of them bitwise.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.cfg.Logf("serve: draining (%d queued)", len(s.queue))
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cfg.Logf("serve: drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// Close stops the executors. Call Drain first for a graceful shutdown;
// Close alone abandons queued work (their snapshots from prior steps remain
// durable).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.queueMu.Lock()
		s.queueClosed = true
		close(s.queue)
		s.queueMu.Unlock()
		s.workersWG.Wait()
	})
	return nil
}
