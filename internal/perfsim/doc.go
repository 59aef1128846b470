// Package perfsim is the performance simulator NeuroMeter pairs with for
// runtime analysis — the role TF-Sim ([9], unpublished) plays in the paper.
//
// It maps each layer of a computational graph onto a many-core systolic
// accelerator at tile granularity: weight tiles of X x X are distributed
// over the chip's tensor units, activations stream through (fill/drain
// modeled), partial-sum merging and activation/weight broadcast cross the
// NoC, and off-chip traffic rides the HBM roofline. The graph-level
// optimizations the paper credits to TF-Sim (Fig. 7) are implemented as
// options: Space-to-Batch, Space-to-Depth, and double buffering.
//
// The simulator deliberately stays analytical (per-layer closed forms) —
// the paper's methodology — rather than cycle-accurate.
//
// # Concurrency contract
//
// Simulation is a pure function of its inputs: it mutates neither the
// *chip.Chip (immutable after chip.Build) nor the *graph.Graph it is
// given, and keeps all working state on the stack or in caller-owned
// scratch. Any number of goroutines may therefore simulate against shared
// chips, graphs and Prepared workloads concurrently — this is exactly what
// the dse parallel sweep engine does — and identical inputs always produce
// bitwise-identical Results.
//
// # Entry points
//
// SimulateCtx runs one detailed simulation (per-layer LayerStat records
// and spans) and LatencyLimitedBatchCtx searches the latency-limited batch
// size. The fast path for "this workload, this batch size, these N
// candidate chips" is Prepare, which validates a graph once and
// precomputes every chip-independent per-layer quantity, then a loop of
// (*Prepared).SimulateInto (or LatencyLimitedInto) calls into one scratch
// Result. That loop allocates nothing per candidate, and its headline
// metrics are bit-identical to per-candidate SimulateCtx calls. See
// PERFORMANCE.md for the measured profile and the benchmark trajectory.
//
// # Error contract
//
// Every entry point returns errors classified under the guard taxonomy:
// guard.ErrInvalidConfig for malformed graphs or options,
// guard.ErrInfeasible for layers the chip cannot map, guard.ErrNonFinite
// if any derived quantity leaves the finite range, and the classified
// context error (guard.ErrCanceled / guard.ErrTimeout) when the ctx
// expires — checked between layers, so cancellation latency is one
// layer's closed-form evaluation.
package perfsim
