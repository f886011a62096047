// Package servesim is a seeded, deterministic discrete-event simulator of an
// LLM inference-serving cluster, and the first Lynceus workload whose
// profiling runs are genuinely stochastic: repeated runs of the same
// configuration draw different service times from the campaign-seed-derived
// noise stream, so the tuner's ensemble finally models real observation
// noise instead of replaying a lookup table.
//
// The simulated cluster is N replicas of one instance type. Requests arrive
// from a Poisson mix of SLO classes (interactive chat, standard, batch, ...),
// each with its own latency SLO and prompt/output token-length distribution.
// Every instance runs continuous batching: sequences join the running batch
// at decode-step boundaries, bounded both by the configured max-batch and by
// a KV-cache-style token budget that limits the memory reserved by concurrent
// sequences. A pluggable scheduler policy (FIFO, shortest-queue,
// SLO-priority) decides which queued request is admitted next.
//
// Simulate processes arrivals and decode-step completions in increasing
// (time, seq). Arrival i has seq i and every step completion a later seq, in
// scheduling order, so on a time tie an arrival comes first and tied steps
// complete in the order they were scheduled. At most one step per instance
// is in flight. Because (time, seq) is a strict total order, results and
// traces are bitwise reproducible, and an untraced run makes the same number
// of allocations whatever its request volume.
//
// Env wraps one simulated scenario as an optimizer.Environment whose
// configuration space spans replica count x instance type x max-batch x
// scheduler policy: the tuner minimizes the dollar cost of serving a fixed
// request volume (makespan/3600 x cluster $/hour) under a makespan constraint
// and an SLO-attainment constraint carried as the "slo_violation" extra
// metric. TrueStats and Optimum compute seed-averaged ground truth per
// configuration, which is how campaign tests measure recommendation quality
// against the analytic space optimum.
package servesim
