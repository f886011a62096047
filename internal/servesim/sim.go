package servesim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/numeric"
)

// Policy selects which queued request an instance admits next.
type Policy int

// The scheduler policies of the simulated cluster.
const (
	// FIFO admits requests in global arrival order with strict head-of-line
	// blocking: a request that does not fit the instance at the head of the
	// queue waits, it is never overtaken.
	FIFO Policy = iota
	// ShortestQueue assigns each arriving request to the replica with the
	// fewest queued plus running sequences (lowest index on ties) and serves
	// each per-replica queue FIFO.
	ShortestQueue
	// SLOPriority admits the queued request with the tightest latency SLO
	// first (arrival order within a class), so interactive traffic overtakes
	// batch traffic under load.
	SLOPriority
)

// String returns the policy name used in dimension labels and traces.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case ShortestQueue:
		return "shortest-queue"
	case SLOPriority:
		return "slo-priority"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Policies lists the scheduler policies in a stable order.
func Policies() []Policy { return []Policy{FIFO, ShortestQueue, SLOPriority} }

// InstanceType describes one accelerator instance of the catalog.
type InstanceType struct {
	// Name identifies the type, e.g. "g4-small".
	Name string
	// PricePerHour is the rental price of one replica in USD per hour.
	PricePerHour float64
	// Speed is the relative decode speed (step durations are divided by it).
	Speed float64
	// KVTokens is the KV-cache budget: the sum of tokens reserved by the
	// sequences concurrently resident on the instance can never exceed it.
	KVTokens int
}

// SLOClass is one request class of the arrival mix.
type SLOClass struct {
	// Name identifies the class, e.g. "interactive".
	Name string
	// Share is the fraction of the total arrival rate carried by the class;
	// shares are normalized, so they need not sum to one.
	Share float64
	// LatencySLO is the end-to-end completion deadline in simulated seconds.
	LatencySLO float64
	// PromptMin/PromptMax bound the uniform prompt-token distribution.
	PromptMin, PromptMax int
	// OutputMin/OutputMax bound the uniform output-token distribution.
	OutputMin, OutputMax int
}

// Scenario describes one serving workload: the arrival mix and the service
// cost model shared by every deployment simulated against it.
type Scenario struct {
	// Name identifies the scenario, e.g. "chat".
	Name string
	// Classes is the SLO-class mix of the arrival stream.
	Classes []SLOClass
	// ArrivalRate is the total Poisson arrival rate in requests per second.
	ArrivalRate float64
	// Requests is the fixed request volume of one profiling run; the run
	// simulates until every request completed or was rejected.
	Requests int
	// QueuePerReplica caps admission: an arrival finding QueuePerReplica x
	// replicas requests already queued is rejected.
	QueuePerReplica int
	// StepBase is the fixed duration of one decode step at Speed 1.
	StepBase float64
	// StepPerSeq is the per-running-sequence duration added to each step.
	StepPerSeq float64
	// PrefillPerToken is the one-off per-prompt-token cost charged to the
	// step in which a sequence joins the batch.
	PrefillPerToken float64
	// NoiseSpread is the lognormal sigma of the per-step service-time noise;
	// it is what makes repeated runs of one configuration differ.
	NoiseSpread float64
	// MaxSLOViolation is the scenario's default attainment constraint: the
	// fraction of requests allowed to miss their SLO (rejections count as
	// misses).
	MaxSLOViolation float64
}

// Validate checks the scenario's internal consistency.
func (s Scenario) Validate() error {
	if len(s.Classes) == 0 {
		return fmt.Errorf("servesim: scenario %q has no SLO classes", s.Name)
	}
	total := 0.0
	for _, c := range s.Classes {
		if c.Share <= 0 {
			return fmt.Errorf("servesim: class %q has non-positive share %v", c.Name, c.Share)
		}
		if c.LatencySLO <= 0 {
			return fmt.Errorf("servesim: class %q has non-positive SLO %v", c.Name, c.LatencySLO)
		}
		if c.PromptMin <= 0 || c.PromptMax < c.PromptMin {
			return fmt.Errorf("servesim: class %q has invalid prompt range [%d,%d]", c.Name, c.PromptMin, c.PromptMax)
		}
		if c.OutputMin <= 0 || c.OutputMax < c.OutputMin {
			return fmt.Errorf("servesim: class %q has invalid output range [%d,%d]", c.Name, c.OutputMin, c.OutputMax)
		}
		total += c.Share
	}
	if total <= 0 {
		return fmt.Errorf("servesim: scenario %q has zero total class share", s.Name)
	}
	if s.ArrivalRate <= 0 {
		return fmt.Errorf("servesim: scenario %q has non-positive arrival rate %v", s.Name, s.ArrivalRate)
	}
	if s.Requests <= 0 {
		return fmt.Errorf("servesim: scenario %q has non-positive request volume %d", s.Name, s.Requests)
	}
	if s.QueuePerReplica <= 0 {
		return fmt.Errorf("servesim: scenario %q has non-positive queue cap %d", s.Name, s.QueuePerReplica)
	}
	if s.StepBase <= 0 || s.StepPerSeq < 0 || s.PrefillPerToken < 0 {
		return fmt.Errorf("servesim: scenario %q has invalid step cost model", s.Name)
	}
	if s.NoiseSpread < 0 {
		return fmt.Errorf("servesim: scenario %q has negative noise spread %v", s.Name, s.NoiseSpread)
	}
	return nil
}

// Deployment is one cluster configuration simulated against a scenario.
type Deployment struct {
	// Replicas is the number of identical instances.
	Replicas int
	// Type is the instance type of every replica.
	Type InstanceType
	// MaxBatch bounds the sequences concurrently decoded per instance.
	MaxBatch int
	// Policy is the scheduler policy.
	Policy Policy
}

// PricePerHour returns the cluster rental price in USD per hour.
func (d Deployment) PricePerHour() float64 {
	return float64(d.Replicas) * d.Type.PricePerHour
}

// Validate checks the deployment.
func (d Deployment) Validate() error {
	if d.Replicas <= 0 {
		return fmt.Errorf("servesim: non-positive replica count %d", d.Replicas)
	}
	if d.MaxBatch <= 0 {
		return fmt.Errorf("servesim: non-positive max batch %d", d.MaxBatch)
	}
	if d.Type.Speed <= 0 {
		return fmt.Errorf("servesim: instance type %q has non-positive speed %v", d.Type.Name, d.Type.Speed)
	}
	if d.Type.PricePerHour <= 0 {
		return fmt.Errorf("servesim: instance type %q has non-positive price %v", d.Type.Name, d.Type.PricePerHour)
	}
	if d.Type.KVTokens <= 0 {
		return fmt.Errorf("servesim: instance type %q has non-positive KV budget %d", d.Type.Name, d.Type.KVTokens)
	}
	if d.Policy < FIFO || d.Policy > SLOPriority {
		return fmt.Errorf("servesim: unknown policy %d", int(d.Policy))
	}
	return nil
}

// Request is one generated request of a profiling run.
type Request struct {
	// ID is the dense arrival index of the request.
	ID int
	// Class indexes Scenario.Classes.
	Class int
	// Arrival is the arrival time in simulated seconds.
	Arrival float64
	// PromptTokens and OutputTokens are the sampled sequence lengths; the
	// request reserves PromptTokens+OutputTokens KV tokens while resident.
	PromptTokens, OutputTokens int
}

// KVNeed is the KV budget the request reserves while resident on an instance.
func (r Request) KVNeed() int { return r.PromptTokens + r.OutputTokens }

// ClassMetrics aggregates per-class outcomes of one run.
type ClassMetrics struct {
	Name        string
	Arrived     int
	Completed   int
	Rejected    int
	SLOAttained int
	// SumLatency and MaxLatency summarize the completion latencies.
	SumLatency, MaxLatency float64
}

// Result summarizes one simulated profiling run.
type Result struct {
	// Makespan is the simulated time from the first arrival epoch (t=0) to
	// the drain of the last request.
	Makespan float64
	// Arrived, Completed and Rejected count requests; the simulator runs to
	// drain, so Arrived == Completed + Rejected always holds on a Result.
	Arrived, Completed, Rejected int
	// SLOAttained counts the completed requests that met their class SLO.
	SLOAttained int
	// Steps is the total number of decode steps executed across instances.
	Steps int
	// PerClass holds per-class outcome aggregates.
	PerClass []ClassMetrics
	// MaxKVUsed is the peak KV reservation observed per instance; it never
	// exceeds the instance type's KVTokens (enforced by admission, asserted
	// by the property tests).
	MaxKVUsed []int
}

// SLOViolation returns the fraction of requests that missed their SLO:
// rejected requests and completions past the deadline, over all arrivals.
func (r Result) SLOViolation() float64 {
	if r.Arrived == 0 {
		return 0
	}
	return 1 - float64(r.SLOAttained)/float64(r.Arrived)
}

// TraceEvent is one event of a simulation trace. Traces are the golden-test
// surface of the simulator: any semantic change to the event loop shows up as
// an event-by-event diff against the pinned testdata files.
type TraceEvent struct {
	// Time is the simulated timestamp of the event.
	Time float64 `json:"t"`
	// Kind is one of "arrive", "reject", "admit", "step" or "finish".
	Kind string `json:"kind"`
	// Instance is the replica index, -1 for events without one.
	Instance int `json:"inst"`
	// Request is the request ID, -1 for step events.
	Request int `json:"req"`
	// Class is the request's SLO class index, -1 for step events.
	Class int `json:"class"`
	// Batch is the instance's running batch size after the event (admit,
	// step, finish), 0 otherwise.
	Batch int `json:"batch"`
	// KVUsed is the instance's reserved KV tokens after the event (admit,
	// step, finish), 0 otherwise.
	KVUsed int `json:"kv"`
}

// GenerateRequests draws the request stream of one run: per-class Poisson
// arrivals merged into one stream (implemented as one Poisson process with
// share-weighted class marks), with uniform prompt/output token lengths. The
// stream depends only on (scenario, seed).
func GenerateRequests(s Scenario, seed int64) []Request {
	rng := rand.New(rand.NewSource(numeric.Mix(seed, streamArrivals)))
	totalShare := 0.0
	for _, c := range s.Classes {
		totalShare += c.Share
	}
	reqs := make([]Request, s.Requests)
	t := 0.0
	for i := range reqs {
		t += rng.ExpFloat64() / s.ArrivalRate
		pick := rng.Float64() * totalShare
		class := len(s.Classes) - 1
		acc := 0.0
		for ci, c := range s.Classes {
			acc += c.Share
			if pick < acc {
				class = ci
				break
			}
		}
		c := s.Classes[class]
		reqs[i] = Request{
			ID:           i,
			Class:        class,
			Arrival:      t,
			PromptTokens: c.PromptMin + rng.Intn(c.PromptMax-c.PromptMin+1),
			OutputTokens: c.OutputMin + rng.Intn(c.OutputMax-c.OutputMin+1),
		}
	}
	return reqs
}

// RNG stream identifiers: independent deterministic streams derived from the
// run seed, so changing how one stream is consumed never shifts another.
const (
	streamArrivals = 0x5A11
	streamSteps    = 0x57E9
)

// event is one entry of the simulation's event queue.
type event struct {
	time float64
	// seq is the global scheduling order, the deterministic tie-breaker for
	// identical timestamps.
	seq  int
	kind eventKind
	// inst is the instance of a step-completion event.
	inst int
	// req is the request index of an arrival event.
	req int
}

type eventKind int

const (
	evArrival eventKind = iota
	evStep
)

// eventQueue is a min-heap over (time, seq).
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// seqState is one resident sequence of an instance's running batch.
type seqState struct {
	req       int
	generated int
}

// instance is the mutable state of one replica.
type instance struct {
	running []seqState
	kvUsed  int
	// queue is the per-instance queue of the ShortestQueue policy.
	queue []int
	// stepScheduled reports whether a step-completion event is in flight.
	stepScheduled bool
	maxKV         int
}

// sim is the run state of one simulation.
type sim struct {
	s     Scenario
	d     Deployment
	reqs  []Request
	insts []instance
	// global is the shared queue of the FIFO and SLOPriority policies.
	global []int
	queued int
	events eventQueue
	seq    int
	noise  *rand.Rand
	trace  *[]TraceEvent

	completed   []float64 // completion time per request, -1 while in flight
	result      Result
	lastEventAt float64
}

// Simulate runs one profiling run of the deployment against the scenario and
// returns its aggregate result. The run is a pure function of (scenario,
// deployment, seed): identical inputs produce bitwise-identical results and
// traces. When trace is non-nil, every event is appended to it.
func Simulate(s Scenario, d Deployment, seed int64, trace *[]TraceEvent) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	sm := &sim{
		s:     s,
		d:     d,
		reqs:  GenerateRequests(s, seed),
		insts: make([]instance, d.Replicas),
		noise: rand.New(rand.NewSource(numeric.Mix(seed, streamSteps))),
		trace: trace,
	}
	sm.completed = make([]float64, len(sm.reqs))
	for i := range sm.completed {
		sm.completed[i] = -1
	}
	sm.result.PerClass = make([]ClassMetrics, len(s.Classes))
	for ci, c := range s.Classes {
		sm.result.PerClass[ci].Name = c.Name
	}
	for i := range sm.reqs {
		sm.push(event{time: sm.reqs[i].Arrival, kind: evArrival, req: i, inst: -1})
	}
	for len(sm.events) > 0 {
		e := heap.Pop(&sm.events).(event)
		sm.lastEventAt = e.time
		switch e.kind {
		case evArrival:
			sm.arrive(e.time, e.req)
		case evStep:
			sm.stepComplete(e.time, e.inst)
		}
	}
	sm.finishResult()
	return sm.result, nil
}

func (sm *sim) push(e event) {
	e.seq = sm.seq
	sm.seq++
	heap.Push(&sm.events, e)
}

func (sm *sim) emit(ev TraceEvent) {
	if sm.trace != nil {
		*sm.trace = append(*sm.trace, ev)
	}
}

// arrive handles one request arrival: admission-cap check, queue join per
// policy, then an immediate dispatch attempt on idle instances.
func (sm *sim) arrive(t float64, ri int) {
	req := sm.reqs[ri]
	cm := &sm.result.PerClass[req.Class]
	sm.result.Arrived++
	cm.Arrived++
	sm.emit(TraceEvent{Time: t, Kind: "arrive", Instance: -1, Request: req.ID, Class: req.Class})

	// Oversized requests can never fit any instance of this deployment, so
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

	// Idle instances admit immediately; busy ones at their next step
	// boundary (continuous batching).
	for i := range sm.insts {
		if !sm.insts[i].stepScheduled && len(sm.insts[i].running) == 0 {
			sm.admitAndSchedule(t, i)
		}
	}
}

// queueHead returns the next request the policy would admit on instance i,
// or -1 when its queue view is empty.
func (sm *sim) queueHead(i int) int {
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

func (sm *sim) popQueueHead(i int) {
	if sm.d.Policy == ShortestQueue {
		sm.insts[i].queue = sm.insts[i].queue[1:]
	} else {
		sm.global = sm.global[1:]
	}
	sm.queued--
}

// admitAndSchedule admits queued requests onto instance i (head-of-line, no
// overtaking: a head that does not fit blocks the instance's admissions) and
// schedules the next decode step. It returns the prompt tokens admitted,
// which the caller's step duration charges as prefill work.
func (sm *sim) admitAndSchedule(t float64, i int) {
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
	sm.push(event{time: t + dur, kind: evStep, inst: i, req: -1})
}

// stepComplete handles one decode-step completion on instance i: every
// running sequence generates one token, finished sequences leave and free
// their KV reservation, then the instance admits and schedules the next step.
func (sm *sim) stepComplete(t float64, i int) {
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
		sm.completed[seq.req] = t
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

func (sm *sim) finishResult() {
	sm.result.Makespan = sm.lastEventAt
	sm.result.MaxKVUsed = make([]int, len(sm.insts))
	for i := range sm.insts {
		sm.result.MaxKVUsed[i] = sm.insts[i].maxKV
	}
}

// mix3 folds three values into one seed.
func mix3(a, b, c int64) int64 { return numeric.Mix(numeric.Mix(a, b), c) }
