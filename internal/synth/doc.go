// Package synth generates the synthetic lookup-table datasets that stand in
// for the measured datasets of the paper's evaluation (§5.1): three
// Tensorflow-style jobs with a 384-point, 5-dimensional configuration space
// (learning rate, batch size, sync/async training, VM type, cluster scale),
// eighteen Scout-style Hadoop/Spark jobs over 72 EC2 cluster configurations,
// and five CherryPick-style jobs.
//
// The generators are deterministic in their seed and encode the structural
// properties the paper reports for the real datasets — heavy-tailed cost
// spreads, non-convex interactions between job parameters and cluster
// hardware, and a tunable fraction of configurations violating the runtime
// constraint — so the experiment pipeline reproduces the shape of the
// paper's figures without the original measurements.
//
// A generated table is a pure function of its generator, job name and seed,
// and a dataset.Job is immutable, so equal requests share one Job while any
// caller still holds it; only a table nobody holds is generated again.
package synth
