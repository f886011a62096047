package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	lynceus "repro"
)

// span is one traced interval. Spans of one campaign share its ID; Parent is
// the span that caused this one (0: none). Times are nanoseconds since the
// tracer started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Campaign string `json:"campaign"`
	Step     int    `json:"step"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory, from the harness's side of each layer's
// public calls only. A nil tracer records nothing, which is how the untraced
// run keeps the same code path.
type tracer struct {
	t0 time.Time
	// paused detaches the recorder for the untraced window of a traced run.
	paused atomic.Bool

	mu    sync.Mutex
	spans []span
	// open maps a campaign to its innermost open span, so an env.run inside
	// the server finds the step that caused it: one step is in flight per
	// campaign at a time.
	open map[string][]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[string][]int)}
}

func (t *tracer) active() bool { return t != nil && !t.paused.Load() }

// begin opens a span under the campaign's innermost open span and returns
// its ID, which end closes.
func (t *tracer) begin(name, campaign string, step int) int {
	if !t.active() {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if stack := t.open[campaign]; len(stack) > 0 {
		parent = stack[len(stack)-1]
		if step < 0 {
			step = t.spans[parent-1].Step
		}
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Campaign: campaign, Step: step, Start: now})
	t.open[campaign] = append(t.open[campaign], id)
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	stack := t.open[sp.Campaign]
	if n := len(stack); n > 0 && stack[n-1] == id {
		stack = stack[:n-1]
	}
	if len(stack) == 0 {
		delete(t.open, sp.Campaign)
	} else {
		t.open[sp.Campaign] = stack
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover, indexed by span ID. Children of one parent never overlap here
// (a campaign does one thing at a time), so the covered part is their sum.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, sp := range spans {
		self[sp.ID] += sp.dur()
		if sp.Parent != 0 {
			self[sp.Parent] -= sp.dur()
		}
	}
	return self
}

// checkNesting verifies that every span closed, and that each lies inside
// its parent and belongs to the same campaign.
func checkNesting(spans []span) error {
	for _, sp := range spans {
		if sp.End < sp.Start {
			return fmt.Errorf("span %d (%s) never closed", sp.ID, sp.Name)
		}
		if sp.Parent == 0 {
			continue
		}
		if sp.Parent < 1 || sp.Parent >= sp.ID {
			return fmt.Errorf("span %d (%s) has parent %d, which does not precede it", sp.ID, sp.Name, sp.Parent)
		}
		p := spans[sp.Parent-1]
		if p.Campaign != sp.Campaign {
			return fmt.Errorf("span %d (%s) of campaign %s has a parent of campaign %s", sp.ID, sp.Name, sp.Campaign, p.Campaign)
		}
		if sp.Start < p.Start || sp.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", sp.ID, sp.Name, p.ID, p.Name)
		}
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEnv records an env.run span around every Environment.Run of one
// campaign.
type tracedEnv struct {
	lynceus.Environment
	tr       *tracer
	campaign string
}

func (e *tracedEnv) Run(cfg lynceus.Config) (lynceus.Trial, error) {
	id := e.tr.begin("env.run", e.campaign, -1)
	defer e.tr.end(id)
	return e.Environment.Run(cfg)
}

// tracedStatefulEnv forwards StatefulEnvironment, which snapshots look for by
// type assertion and an embedded Environment would hide.
type tracedStatefulEnv struct {
	tracedEnv
	state lynceus.StatefulEnvironment
}

func (e *tracedStatefulEnv) EnvState() ([]byte, error)         { return e.state.EnvState() }
func (e *tracedStatefulEnv) RestoreEnvState(data []byte) error { return e.state.RestoreEnvState(data) }

func traceEnv(env lynceus.Environment, tr *tracer, campaign string) lynceus.Environment {
	wrapped := tracedEnv{Environment: env, tr: tr, campaign: campaign}
	if st, ok := env.(lynceus.StatefulEnvironment); ok {
		return &tracedStatefulEnv{tracedEnv: wrapped, state: st}
	}
	return &wrapped
}
