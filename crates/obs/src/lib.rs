//! `coopmc-obs`: zero-overhead tracing, phase-level metrics and the
//! per-chain run journal for the CoopMC reproduction.
//!
//! Four layers, all `std`-only (no external crates):
//!
//! 1. **Metrics** ([`metrics`]) — relaxed-atomic counters, gauges and
//!    histograms behind a process-global registry with Prometheus-style
//!    text exposition.
//! 2. **Tracing** ([`trace`]) — a [`Recorder`] trait whose disabled form,
//!    [`NoopRecorder`], is statically dispatched into nothing; the engines
//!    are generic over it, so the warm-sweep zero-allocation guarantee from
//!    the perf work survives instrumentation and is proved by the
//!    counting-allocator test in `coopmc-core`.
//! 3. **Journal** ([`journal`]) — one JSONL record per sweep per chain
//!    (`coopmc-journal/1`), carrying the Table II phase split in wall time
//!    and modeled cycles, DyNorm/TableExp telemetry, chain-quality
//!    statistics and worker-pool utilization, plus a Chrome-trace export
//!    of spans for `chrome://tracing`. The Table II runtime breakdown is
//!    a view of it ([`journal::breakdown_percent`]).
//! 4. **Profiling** ([`profile`]) — a hierarchical kernel-span profiler
//!    ([`SpanProfiler`]) behind the same static-dispatch `prof_*` hooks,
//!    with fixed-capacity per-worker span rings, per-`(lane, kernel)`
//!    self/total attribution and modeled-cycle tallies, exported as
//!    collapsed-stack flamegraph text, a `coopmc-profile/1` journal
//!    section and Chrome-trace span merges.
//!
//! The `coopmc-obs-check` binary validates a journal file against the
//! schemas; CI runs it on a freshly traced chain.

pub mod health;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use health::{
    ChainHealth, ConvergenceController, Decision, EarlyStop, HealthConfig, HealthEvent,
    HealthEventKind, HealthRecord, StopInfo,
};
pub use journal::{ColorSample, ProfileSample, SweepSample, HEALTH_SCHEMA, PROFILE_SCHEMA, SCHEMA};
pub use metrics::{
    counter, counter_with, describe, gauge, gauge_with, histogram, log2_buckets, render,
};
pub use profile::{Kernel, KernelReport, Profiled, SpanProfiler};
pub use trace::{NoopRecorder, Recorder, TraceRecorder};
