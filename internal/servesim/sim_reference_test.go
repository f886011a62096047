package servesim

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/numeric"
)

// simKnobs are the fuzzed inputs of FuzzSimulateMatchesReference.
type simKnobs struct {
	seed                                             int64
	policy, replicas, typ, maxBatch, requests, queue uint8
	rate                                             uint16
	noise, stepScale                                 uint8
}

// run maps the knobs onto a valid scenario and deployment (every policy,
// 1-8 replicas, every catalog type, max-batch 1-16, up to 120 requests, step
// durations from 10 ms up to about 10^22 s) and simulates it with the loop.
// With NoiseSpread 0 and a step that long, steps started at different
// arrival times complete at the same float time, so step completions on
// different instances tie and only seq orders them.
func (k simKnobs) run(loop func(Scenario, Deployment, int64, *[]TraceEvent) (Result, error)) (Deployment, Result, []TraceEvent, error) {
	s := testScenario()
	s.Requests = 1 + int(k.requests)%120
	s.QueuePerReplica = 1 + int(k.queue)%16
	s.ArrivalRate = 0.25 + float64(k.rate%400)/10
	s.NoiseSpread = float64(k.noise%101) / 100
	s.StepBase = math.Ldexp(0.01, int(k.stepScale%80))
	d := Deployment{
		Replicas: 1 + int(k.replicas)%8,
		Type:     Catalog[int(k.typ)%len(Catalog)],
		MaxBatch: 1 + int(k.maxBatch)%16,
		Policy:   Policies()[int(k.policy)%len(Policies())],
	}
	var trace []TraceEvent
	res, err := loop(s, d, k.seed, &trace)
	return d, res, trace, err
}

// The seed corpora, fields in simKnobs order.
var (
	// simSeeds cover every policy and type, 1 to 8 replicas and max-batch
	// 1 to 16; the last has NoiseSpread 0 at 10 ms steps.
	simSeeds = []simKnobs{
		{1, 0, 1, 0, 3, 39, 7, 48, 15, 0},
		{2, 1, 3, 1, 7, 80, 3, 120, 30, 0},
		{3, 2, 7, 3, 15, 119, 15, 399, 100, 0},
		{-7, 1, 0, 2, 0, 10, 0, 0, 50, 4},
		{7, 1, 5, 3, 0, 50, 9, 30, 0, 0},
	}
	// tieSeeds have NoiseSpread 0 and steps long enough that completions on
	// different instances tie; TestTieSeedsTieStepCompletions pins that. In
	// the first, tied steps were scheduled out of instance order, so a queue
	// that broke ties by instance instead of seq fails it.
	tieSeeds = []simKnobs{
		{-71, 0, 6, 1, 4, 5, 4, 0, 0, 52},
		{4, 0, 3, 0, 1, 30, 4, 50, 0, 70},
		{5, 1, 4, 1, 3, 60, 5, 200, 0, 75},
		{6, 2, 7, 2, 2, 90, 2, 90, 0, 79},
	}
)

// FuzzSimulateMatchesReference checks that Simulate's typed step queue and
// arrival cursor process events in exactly the order of the container/heap
// loop they replaced: the Result and every trace event must be identical.
func FuzzSimulateMatchesReference(f *testing.F) {
	for _, k := range append(simSeeds, tieSeeds...) {
		f.Add(k.seed, k.policy, k.replicas, k.typ, k.maxBatch, k.requests, k.queue, k.rate, k.noise, k.stepScale)
	}
	f.Fuzz(func(t *testing.T, seed int64, policy, replicas, typ, maxBatch, requests, queue uint8, rate uint16, noise, stepScale uint8) {
		k := simKnobs{seed, policy, replicas, typ, maxBatch, requests, queue, rate, noise, stepScale}
		d, gotRes, got, err := k.run(Simulate)
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		_, wantRes, want, err := k.run(simulateReference)
		if err != nil {
			t.Fatalf("simulateReference: %v", err)
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%+v seed %d: event %d is %+v, reference has %+v", d, seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%+v seed %d: %d events, reference has %d", d, seed, len(got), len(want))
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("%+v seed %d: result %+v, reference %+v", d, seed, gotRes, wantRes)
		}
	})
}

// TestTieSeedsTieStepCompletions pins that the tie seeds of
// FuzzSimulateMatchesReference reach what they are there for: step
// completions on different instances at the same time.
func TestTieSeedsTieStepCompletions(t *testing.T) {
	for _, k := range tieSeeds {
		d, _, trace, err := k.run(Simulate)
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		first := map[float64]int{} // time -> instance of the first step there
		ties := 0
		for _, e := range trace {
			if e.Kind != "step" {
				continue
			}
			if inst, ok := first[e.Time]; !ok {
				first[e.Time] = e.Instance
			} else if inst != e.Instance {
				ties++
			}
		}
		if ties == 0 {
			t.Errorf("%+v seed %d: no two instances completed a step at the same time", d, k.seed)
		}
	}
}

// refEvent is one entry of the reference loop's event queue.
type refEvent struct {
	time float64
	// seq is the global scheduling order, the deterministic tie-breaker for
	// identical timestamps.
	seq  int
	kind refEventKind
	// inst is the instance of a step-completion event.
	inst int
	// req is the request index of an arrival event.
	req int
}

type refEventKind int

const (
	refArrival refEventKind = iota
	refStep
)

// refEventQueue is a min-heap over (time, seq).
type refEventQueue []refEvent

func (q refEventQueue) Len() int { return len(q) }
func (q refEventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q refEventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refEventQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refEventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// refInstance is the mutable state of one replica.
type refInstance struct {
	running []seqState
	kvUsed  int
	// queue is the per-instance queue of the ShortestQueue policy.
	queue []int
	// stepScheduled reports whether a step-completion event is in flight.
	stepScheduled bool
	maxKV         int
}

// refSim is the run state of one reference simulation.
type refSim struct {
	s     Scenario
	d     Deployment
	reqs  []Request
	insts []refInstance
	// global is the shared queue of the FIFO and SLOPriority policies.
	global []int
	queued int
	events refEventQueue
	seq    int
	noise  *rand.Rand
	trace  *[]TraceEvent

	result      Result
	lastEventAt float64
}

// simulateReference is Simulate's event loop as it was before the typed step
// queue and the arrival cursor: every arrival and every step completion goes
// through one container/heap queue over (time, seq), and the queues shrink by
// reslicing. It is kept as written, not optimised, as the oracle that
// FuzzSimulateMatchesReference compares Simulate against.
func simulateReference(s Scenario, d Deployment, seed int64, trace *[]TraceEvent) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	sm := &refSim{
		s:     s,
		d:     d,
		reqs:  GenerateRequests(s, seed),
		insts: make([]refInstance, d.Replicas),
		noise: rand.New(rand.NewSource(numeric.Mix(seed, streamSteps))),
		trace: trace,
	}
	sm.result.PerClass = make([]ClassMetrics, len(s.Classes))
	for ci, c := range s.Classes {
		sm.result.PerClass[ci].Name = c.Name
	}
	for i := range sm.reqs {
		sm.push(refEvent{time: sm.reqs[i].Arrival, kind: refArrival, req: i, inst: -1})
	}
	for len(sm.events) > 0 {
		e := heap.Pop(&sm.events).(refEvent)
		sm.lastEventAt = e.time
		switch e.kind {
		case refArrival:
			sm.arrive(e.time, e.req)
		case refStep:
			sm.stepComplete(e.time, e.inst)
		}
	}
	sm.finishResult()
	return sm.result, nil
}

func (sm *refSim) push(e refEvent) {
	e.seq = sm.seq
	sm.seq++
	heap.Push(&sm.events, e)
}

func (sm *refSim) emit(ev TraceEvent) {
	if sm.trace != nil {
		*sm.trace = append(*sm.trace, ev)
	}
}

// arrive handles one request arrival: admission-cap check, queue join per
// policy, then an immediate dispatch attempt on idle refInstances.
func (sm *refSim) arrive(t float64, ri int) {
	req := sm.reqs[ri]
	cm := &sm.result.PerClass[req.Class]
	sm.result.Arrived++
	cm.Arrived++
	sm.emit(TraceEvent{Time: t, Kind: "arrive", Instance: -1, Request: req.ID, Class: req.Class})

	// Oversized requests can never fit any refInstance of this deployment, so
	// they are rejected at arrival instead of deadlocking a head-of-line
	// queue; capacity rejections use the queued-request cap.
	if req.KVNeed() > sm.d.Type.KVTokens || sm.queued >= sm.s.QueuePerReplica*sm.d.Replicas {
		sm.result.Rejected++
		cm.Rejected++
		sm.emit(TraceEvent{Time: t, Kind: "reject", Instance: -1, Request: req.ID, Class: req.Class})
		return
	}

	switch sm.d.Policy {
	case ShortestQueue:
		best := 0
		bestLoad := len(sm.insts[0].queue) + len(sm.insts[0].running)
		for i := 1; i < len(sm.insts); i++ {
			load := len(sm.insts[i].queue) + len(sm.insts[i].running)
			if load < bestLoad {
				best, bestLoad = i, load
			}
		}
		sm.insts[best].queue = append(sm.insts[best].queue, ri)
	default:
		sm.global = append(sm.global, ri)
		if sm.d.Policy == SLOPriority {
			// Keep the global queue ordered by (SLO asc, arrival asc); the
			// new request bubbles left past looser SLOs.
			for i := len(sm.global) - 1; i > 0; i-- {
				a, b := sm.reqs[sm.global[i-1]], sm.reqs[sm.global[i]]
				if sm.s.Classes[a.Class].LatencySLO <= sm.s.Classes[b.Class].LatencySLO {
					break
				}
				sm.global[i-1], sm.global[i] = sm.global[i], sm.global[i-1]
			}
		}
	}
	sm.queued++

	// Idle refInstances admit immediately; busy ones at their next step
	// boundary (continuous batching).
	for i := range sm.insts {
		if !sm.insts[i].stepScheduled && len(sm.insts[i].running) == 0 {
			sm.admitAndSchedule(t, i)
		}
	}
}

// queueHead returns the next request the policy would admit on refInstance i,
// or -1 when its queue view is empty.
func (sm *refSim) queueHead(i int) int {
	if sm.d.Policy == ShortestQueue {
		if len(sm.insts[i].queue) == 0 {
			return -1
		}
		return sm.insts[i].queue[0]
	}
	if len(sm.global) == 0 {
		return -1
	}
	return sm.global[0]
}

func (sm *refSim) popQueueHead(i int) {
	if sm.d.Policy == ShortestQueue {
		sm.insts[i].queue = sm.insts[i].queue[1:]
	} else {
		sm.global = sm.global[1:]
	}
	sm.queued--
}

// admitAndSchedule admits queued requests onto refInstance i (head-of-line, no
// overtaking: a head that does not fit blocks the refInstance's admissions) and
// schedules the next decode step. It returns the prompt tokens admitted,
// which the caller's step duration charges as prefill work.
func (sm *refSim) admitAndSchedule(t float64, i int) {
	inst := &sm.insts[i]
	admittedPrompt := 0
	for len(inst.running) < sm.d.MaxBatch {
		ri := sm.queueHead(i)
		if ri < 0 {
			break
		}
		req := sm.reqs[ri]
		if inst.kvUsed+req.KVNeed() > sm.d.Type.KVTokens {
			break
		}
		sm.popQueueHead(i)
		inst.running = append(inst.running, seqState{req: ri})
		inst.kvUsed += req.KVNeed()
		if inst.kvUsed > inst.maxKV {
			inst.maxKV = inst.kvUsed
		}
		admittedPrompt += req.PromptTokens
		sm.emit(TraceEvent{Time: t, Kind: "admit", Instance: i, Request: req.ID, Class: req.Class,
			Batch: len(inst.running), KVUsed: inst.kvUsed})
	}
	if len(inst.running) == 0 || inst.stepScheduled {
		return
	}
	dur := (sm.s.StepBase + sm.s.StepPerSeq*float64(len(inst.running)) +
		sm.s.PrefillPerToken*float64(admittedPrompt)) / sm.d.Type.Speed
	dur *= math.Exp(sm.noise.NormFloat64() * sm.s.NoiseSpread)
	inst.stepScheduled = true
	sm.push(refEvent{time: t + dur, kind: refStep, inst: i, req: -1})
}

// stepComplete handles one decode-step completion on refInstance i: every
// running sequence generates one token, finished sequences leave and free
// their KV reservation, then the refInstance admits and schedules the next step.
func (sm *refSim) stepComplete(t float64, i int) {
	inst := &sm.insts[i]
	inst.stepScheduled = false
	sm.result.Steps++

	keep := inst.running[:0]
	for _, seq := range inst.running {
		seq.generated++
		req := sm.reqs[seq.req]
		if seq.generated < req.OutputTokens {
			keep = append(keep, seq)
			continue
		}
		inst.kvUsed -= req.KVNeed()
		latency := t - req.Arrival
		cm := &sm.result.PerClass[req.Class]
		sm.result.Completed++
		cm.Completed++
		cm.SumLatency += latency
		if latency > cm.MaxLatency {
			cm.MaxLatency = latency
		}
		if latency <= sm.s.Classes[req.Class].LatencySLO {
			sm.result.SLOAttained++
			cm.SLOAttained++
		}
		sm.emit(TraceEvent{Time: t, Kind: "finish", Instance: i, Request: req.ID, Class: req.Class,
			Batch: len(keep), KVUsed: inst.kvUsed})
	}
	inst.running = keep
	sm.emit(TraceEvent{Time: t, Kind: "step", Instance: i, Request: -1, Class: -1,
		Batch: len(inst.running), KVUsed: inst.kvUsed})
	sm.admitAndSchedule(t, i)
}

func (sm *refSim) finishResult() {
	sm.result.Makespan = sm.lastEventAt
	sm.result.MaxKVUsed = make([]int, len(sm.insts))
	for i := range sm.insts {
		sm.result.MaxKVUsed[i] = sm.insts[i].maxKV
	}
}
