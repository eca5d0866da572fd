//! Parallel Gibbs scheduling: chromatic and Hogwild engines.
//!
//! Previous accelerators (paper references \[15\], \[16\]) parallelize the
//! Parameter Update step with *chromatic* scheduling (sample a whole
//! conditionally-independent color class concurrently) or *asynchronous*
//! ("Hogwild!") updates that tolerate stale neighbour reads. CoopMC's PG/SD
//! optimizations are orthogonal and compose with both — which this module
//! demonstrates executably: both engines accept any
//! [`ProbabilityPipeline`].
//!
//! The chromatic engine is **deterministic regardless of thread count**:
//! every variable draw uses an RNG seeded by `(seed, iteration, variable)`,
//! so a 1-thread and an 8-thread run produce identical chains — a strong
//! correctness handle that the tests exploit.

use coopmc_kernels::fusion::StagePhases;
use coopmc_models::coloring::ChromaticModel;
use coopmc_models::mrf::GridMrf;
use coopmc_models::{GibbsModel, LabelScore};
use coopmc_obs::health::Decision;
use coopmc_obs::journal::{ColorSample, SweepSample};
use coopmc_obs::profile::Kernel;
use coopmc_obs::{metrics, NoopRecorder, Recorder};
use coopmc_rng::SplitMix64;
use coopmc_sampler::{SampleResult, SampleScratch, Sampler, TreeSampler};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::{LaneTally, RunStats, Stopwatch, SweepCounts};
use crate::pipeline::{PgBatch, PgOutput, ProbabilityPipeline};
use crate::pool::WorkerPool;

/// Default batch stride of the chromatic engine: one lane-packed word of
/// the fixed-8 datapath per `generate_batch_into` call.
pub const DEFAULT_BATCH_ROWS: usize = coopmc_fixed::lane::LANES;

/// Derive the per-variable RNG for a chromatic draw. SplitMix64's finalizer
/// decorrelates the structured seeds.
fn draw_rng(seed: u64, iteration: u64, var: usize) -> SplitMix64 {
    let mut mixer = SplitMix64::new(
        seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (var as u64).wrapping_mul(0xDEAD_BEEF_CAFE_F00D),
    );
    SplitMix64::new(mixer.derive())
}

/// Per-worker-slot hot-path buffers for the chromatic engine. Each dispatch
/// slot keeps its own, so steady-state sweeps reuse warm memory.
#[derive(Debug, Default)]
struct SweepScratch {
    scores: Vec<LabelScore>,
    pg: PgOutput,
    sd: SampleScratch,
    /// `(var, label)` draws of this slot's chunk, committed after the class
    /// barrier.
    out: Vec<(usize, usize)>,
    /// Batched PG output shared by every stride this slot evaluates.
    batch: PgBatch,
    /// Gathered same-width rows awaiting the next `generate_batch_into`.
    batch_scores: Vec<LabelScore>,
    /// Variables owning each gathered row, in gather order.
    batch_vars: Vec<usize>,
    /// Per-row draws of the current stride.
    draws: Vec<SampleResult>,
    /// This slot's lane tally for the current chunk.
    tally: LaneTally,
}

/// Chromatic parallel Gibbs engine.
///
/// Like [`GibbsEngine`](crate::engine::GibbsEngine), a chain advances only
/// through [`run`](Self::run) and [`run_observed`](Self::run_observed),
/// which return the same [`RunStats`] (op tally and modeled cycles
/// included). Sweep `k` of a call (0-based) draws with iteration `k` and
/// journals as iteration `k + 1`; every call starts again at 0.
///
/// Worker threads are spawned **once** (at construction) into a persistent
/// [`WorkerPool`] and fed one job per chunk per color class — no per-sweep
/// thread spawning. Despite the pool, the engine stays deterministic
/// independent of thread count: every draw's RNG is derived from
/// `(seed, iteration, var)` alone, and draws of a class are committed only
/// after the whole class finishes, so neither chunking nor scheduling order
/// can leak into the chain. Recording (the `Rec` parameter, default
/// [`NoopRecorder`] = compiled out) observes the chain without touching the
/// draw path, so recorded and unrecorded runs are **bit-identical** — a
/// property the observability tests assert across thread counts.
#[derive(Debug)]
pub struct ChromaticEngine<P, Rec = NoopRecorder> {
    pipeline: P,
    n_threads: usize,
    seed: u64,
    chain: u64,
    batch_rows: usize,
    recorder: Rec,
    pool: WorkerPool,
    scratch: Vec<Mutex<SweepScratch>>,
}

impl<P: ProbabilityPipeline + Sync> ChromaticEngine<P> {
    /// Build an engine running `n_threads` persistent worker threads, with
    /// recording disabled.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn new(pipeline: P, n_threads: usize, seed: u64) -> Self {
        Self::with_recorder(pipeline, n_threads, seed, NoopRecorder)
    }
}

impl<P: ProbabilityPipeline + Sync, Rec: Recorder> ChromaticEngine<P, Rec> {
    /// Build an engine that reports every sweep (and per-color worker-pool
    /// utilization) to `recorder`.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn with_recorder(pipeline: P, n_threads: usize, seed: u64, recorder: Rec) -> Self {
        assert!(n_threads > 0, "need at least one thread");
        let scratch = (0..n_threads)
            .map(|_| Mutex::new(SweepScratch::default()))
            .collect();
        Self {
            pipeline,
            n_threads,
            seed,
            chain: 0,
            batch_rows: DEFAULT_BATCH_ROWS,
            recorder,
            pool: WorkerPool::new(n_threads),
            scratch,
        }
    }

    /// Set the chain identifier stamped into journal records.
    pub fn with_chain(mut self, chain: u64) -> Self {
        self.chain = chain;
        self
    }

    /// Set the batch stride: how many same-width log-domain rows each
    /// worker gathers per `generate_batch_into` call (`1` restores the
    /// scalar per-variable path). The chain is **bit-identical** for every
    /// stride — each row still sees its own `(seed, iteration, var)` RNG
    /// and the batched kernels are bit-exact with their scalar forms — so
    /// the stride only trades call overhead against gather-buffer size.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "batch stride must be positive");
        self.batch_rows = rows;
        self
    }

    /// The configured batch stride.
    pub fn batch_rows(&self) -> usize {
        self.batch_rows
    }

    /// Number of worker threads.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The recorder.
    pub fn recorder(&self) -> &Rec {
        &self.recorder
    }

    /// Cumulative busy time across the pool's workers, in nanoseconds.
    ///
    /// Inline work (single-thread engines, or classes small enough to skip
    /// the dispatch round-trip) runs on the coordinator and is *not*
    /// counted here — this is the pool's own job accounting, exposed so
    /// scaling studies can compute utilization without a recorder.
    pub fn pool_busy_ns(&self) -> u64 {
        self.pool.total_busy_ns()
    }

    /// Resample one chunk of a color class against an immutable snapshot.
    ///
    /// With `batch_rows > 1` the chunk is processed in batch strides: runs
    /// of same-width log-domain score rows are gathered and evaluated with
    /// one `generate_batch_into` + one `sample_rows_into` per stride.
    /// Factor-domain (or empty) rows, and every row at stride 1, take the
    /// per-variable path. Draw order within `out` is irrelevant — commits
    /// happen after the class barrier and each variable appears once — so
    /// grouping cannot change the chain.
    fn resample_chunk<M: ChromaticModel>(
        &self,
        model: &M,
        vars: &[usize],
        iteration: u64,
        scratch: &mut SweepScratch,
        lane: usize,
    ) {
        let prof = self.recorder.prof_enabled();
        let armed = self.recorder.enabled() || prof;
        let sampler = TreeSampler::new();
        scratch.out.clear();
        scratch.tally = LaneTally::default();
        // Arm the PG buffers' stage-timing sinks only while profiling.
        let sink = prof.then(StagePhases::default);
        scratch.pg.phases = sink;
        scratch.batch.phases = sink;
        scratch.batch_scores.clear();
        scratch.batch_vars.clear();
        let mut width = 0usize;
        for &var in vars {
            if model.is_clamped(var) {
                continue;
            }
            let mut clock = Stopwatch::start(armed);
            model.scores_into(var, &mut scratch.scores);
            let gather_ns = clock.lap();
            if armed {
                scratch.tally.gather(gather_ns);
            }
            let batchable = self.batch_rows > 1
                && !scratch.scores.is_empty()
                && scratch
                    .scores
                    .iter()
                    .all(|s| matches!(s, LabelScore::LogDomain(_)));
            if !batchable {
                self.draw_var_from_scores(var, iteration, &sampler, scratch, clock, armed);
                continue;
            }
            let w = scratch.scores.len();
            if !scratch.batch_vars.is_empty() && w != width {
                self.flush_batch(width, iteration, &sampler, scratch, armed);
            }
            width = w;
            scratch.batch_scores.extend(scratch.scores.iter().cloned());
            scratch.batch_vars.push(var);
            if scratch.batch_vars.len() == self.batch_rows {
                self.flush_batch(width, iteration, &sampler, scratch, armed);
            }
        }
        self.flush_batch(width, iteration, &sampler, scratch, armed);
        if prof {
            for phases in [scratch.pg.phases.take(), scratch.batch.phases.take()]
                .iter()
                .flatten()
            {
                scratch.tally.phases.merge(phases);
            }
            // PU commits happen on the coordinator after the class barrier,
            // so a chunk's tally holds no updates (the sweep books them
            // there). One leaf per kernel per *chunk* keeps ring traffic
            // proportional to jobs, like the pool's own accounting.
            scratch.tally.emit_profile(&self.recorder, lane);
        }
    }

    /// Scalar PG + SD for one variable whose scores are already gathered in
    /// `scratch.scores`; `clock` last lapped at the end of the gather.
    fn draw_var_from_scores(
        &self,
        var: usize,
        iteration: u64,
        sampler: &TreeSampler,
        scratch: &mut SweepScratch,
        mut clock: Stopwatch,
        armed: bool,
    ) {
        self.pipeline
            .generate_into(&scratch.scores, &mut scratch.pg);
        let pg_ns = clock.lap();
        let mut rng = draw_rng(self.seed, iteration, var);
        let sample = sampler.sample_into(&scratch.pg.probs, &mut rng, &mut scratch.sd);
        let sd_ns = clock.lap();
        scratch.out.push((var, sample.label));
        scratch
            .tally
            .draw(pg_ns, sd_ns, &scratch.pg, &sample, armed);
    }

    /// Evaluate the gathered stride: one `generate_batch_into` call, then
    /// one draw per row with the row's own `(seed, iteration, var)` RNG —
    /// exactly the RNG the scalar path would have used, which is what makes
    /// batching invisible to the chain.
    fn flush_batch(
        &self,
        width: usize,
        iteration: u64,
        sampler: &TreeSampler,
        scratch: &mut SweepScratch,
        armed: bool,
    ) {
        if scratch.batch_vars.is_empty() {
            return;
        }
        let mut clock = Stopwatch::start(armed);
        self.pipeline
            .generate_batch_into(&scratch.batch_scores, width, &mut scratch.batch);
        let pg_ns = clock.lap();
        let seed = self.seed;
        let row_vars = &scratch.batch_vars;
        sampler.sample_rows_into(
            &scratch.batch.probs,
            width,
            |row| draw_rng(seed, iteration, row_vars[row]),
            &mut scratch.draws,
            &mut scratch.sd,
        );
        let sd_ns = clock.lap();
        for (&var, sample) in scratch.batch_vars.iter().zip(&scratch.draws) {
            scratch.out.push((var, sample.label));
        }
        let tally = &mut scratch.tally;
        for (ops, sample) in scratch.batch.ops.iter().zip(&scratch.draws) {
            tally.sampled(ops, sample);
        }
        tally.pg_ns += pg_ns;
        tally.sd_ns += sd_ns;
        tally.pg_batches += 1;
        tally.pg_batch_rows += scratch.batch_vars.len() as u64;
        if armed {
            tally.telemetry.merge(&scratch.batch.telemetry);
        }
        scratch.batch_scores.clear();
        scratch.batch_vars.clear();
    }

    /// One full sweep number `iteration` (0-based) over precomputed color
    /// classes: each class is resampled concurrently from the same
    /// snapshot, then committed before the next class starts. Returns the
    /// sweep's merged tally.
    fn sweep<M: ChromaticModel + Sync>(
        &self,
        model: &mut M,
        classes: &[Vec<usize>],
        iteration: u64,
    ) -> LaneTally {
        let enabled = self.recorder.enabled();
        let prof = self.recorder.prof_enabled();
        let armed = enabled || prof;
        let sweep_start = if enabled { self.recorder.now_ns() } else { 0 };
        // Lane 0's own work (the PU commits), and every lane's tally merged.
        let mut coordinator = LaneTally::default();
        let mut merged = LaneTally::default();
        let mut colors = Vec::new();
        if prof {
            self.recorder.prof_begin(0, Kernel::Sweep);
        }
        for (class_idx, class) in classes.iter().enumerate() {
            let class_start = if enabled { self.recorder.now_ns() } else { 0 };
            let busy_before = if enabled {
                self.pool.total_busy_ns()
            } else {
                0
            };
            let chunk = class.len().div_ceil(self.n_threads).max(1);
            let inline = self.n_threads == 1 || class.len() <= chunk;
            let n_slots = if inline {
                // Single chunk: run inline, skip the dispatch round-trip.
                // Inline work executes on the coordinator, hence lane 0.
                let scratch = &mut *self.scratch[0].lock().unwrap();
                self.resample_chunk(&*model, class, iteration, scratch, 0);
                1
            } else {
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = class
                    .chunks(chunk)
                    .zip(&self.scratch)
                    .enumerate()
                    .map(|(slot_idx, (vars, slot))| {
                        let model_ref: &M = &*model;
                        Box::new(move || {
                            let scratch = &mut *slot.lock().unwrap();
                            // Profiler lane i + 1 is pool worker slot i.
                            self.resample_chunk(model_ref, vars, iteration, scratch, slot_idx + 1);
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                let n_jobs = jobs.len();
                self.pool.execute_with(jobs, &self.recorder);
                n_jobs
            };
            // The class barrier ends here; commits below are the PU phase.
            let barrier_ns = if enabled {
                self.recorder.now_ns().saturating_sub(class_start)
            } else {
                0
            };
            // Commit after the class barrier. Commit order is irrelevant to
            // the chain (each var appears once), so chunking cannot change
            // the result.
            let mut clock = Stopwatch::start(armed);
            for slot in &self.scratch[..n_slots] {
                let scratch = slot.lock().unwrap();
                for &(var, label) in &scratch.out {
                    coordinator.commit(model.label(var) != label);
                    model.update(var, label);
                }
                merged.merge(&scratch.tally);
            }
            coordinator.pu_ns += clock.lap();
            if enabled {
                // Worker busy time inside the barrier; the inline path runs
                // on the calling thread, so busy == wall by construction.
                let busy_ns = if inline {
                    barrier_ns
                } else {
                    self.pool.total_busy_ns().saturating_sub(busy_before)
                };
                let capacity = barrier_ns.saturating_mul(n_slots as u64);
                let utilization = if capacity == 0 {
                    1.0
                } else {
                    (busy_ns as f64 / capacity as f64).clamp(0.0, 1.0)
                };
                colors.push(ColorSample {
                    class: class_idx as u64,
                    wall_ns: barrier_ns,
                    busy_ns,
                    utilization,
                });
                self.recorder.span(
                    &format!("color {class_idx}"),
                    "pool",
                    class_start,
                    barrier_ns,
                    self.chain,
                );
            }
        }
        if prof {
            // PU runs on the coordinator: its leaf and modeled cycles land
            // on lane 0, inside the sweep span.
            coordinator.emit_profile(&self.recorder, 0);
            self.recorder.prof_end(0, Kernel::Sweep);
        }
        merged.merge(&coordinator);
        if enabled {
            for c in &colors {
                metrics::gauge_with(
                    "coopmc_pool_color_utilization",
                    &[("color", &c.class.to_string())],
                )
                .set(c.utilization);
            }
            for (i, w) in self.pool.worker_stats().iter().enumerate() {
                let worker = i.to_string();
                metrics::gauge_with("coopmc_pool_worker_busy_ns", &[("worker", &worker)])
                    .set(w.busy_ns as f64);
                metrics::gauge_with("coopmc_pool_worker_jobs", &[("worker", &worker)])
                    .set(w.jobs as f64);
            }
            let mut sample = SweepSample {
                chain: self.chain,
                iteration: iteration + 1,
                start_ns: sweep_start,
                wall_ns: self.recorder.now_ns().saturating_sub(sweep_start),
                colors,
                ..SweepSample::default()
            };
            merged.fill_sample(&mut sample);
            self.recorder.end_sweep(&sample);
        }
        merged
    }

    /// Run `iterations` sweeps. Color classes are computed once per call.
    pub fn run<M: ChromaticModel + Sync>(&self, model: &mut M, iterations: u64) -> RunStats {
        self.run_observed(model, iterations, |_, _| ())
    }

    /// Run up to `iterations` sweeps, handing `observer` each sweep's
    /// [`SweepCounts`] (1-based `iteration`, matching the journal) and the
    /// model. The run ends early when the observer returns
    /// [`Decision::Stop`]; an observer returning `()` never stops it.
    ///
    /// The observer only sees the committed chain — it never touches the
    /// `(seed, iteration, var)` draw path — so an observed run is
    /// bit-identical to a plain `run` for the sweeps they share, across any
    /// thread count.
    pub fn run_observed<M: ChromaticModel + Sync, D: Into<Decision>>(
        &self,
        model: &mut M,
        iterations: u64,
        mut observer: impl FnMut(&SweepCounts, &M) -> D,
    ) -> RunStats {
        let classes = model.color_classes();
        let mut stats = RunStats::default();
        for it in 0..iterations {
            let tally = self.sweep(model, &classes, it);
            stats.add_sweep(&tally);
            if observer(&tally.counts(it + 1), model).into() == Decision::Stop {
                break;
            }
        }
        stats
    }
}

/// Asynchronous ("Hogwild!") Gibbs sweeps over a grid MRF.
///
/// Worker threads own interleaved stripes of the grid and update shared
/// atomic labels without any synchronisation barrier: neighbour reads may
/// be one update stale, which is exactly the relaxation the paper's
/// reference \[16\] exploits for near-linear PU scaling. Convergence is
/// preserved in practice (and verified in the tests) because stale reads
/// only perturb the chain, not its stationary tendency toward low energy.
///
/// Runs `sweeps` full passes and writes the final labels back into `mrf`.
pub fn hogwild_mrf_sweeps<P: ProbabilityPipeline + Sync>(
    mrf: &mut GridMrf,
    pipeline: &P,
    sweeps: u64,
    n_threads: usize,
    seed: u64,
) {
    assert!(n_threads > 0, "need at least one thread");
    let shared: Vec<AtomicUsize> = mrf.labels().into_iter().map(AtomicUsize::new).collect();
    let n = shared.len();
    let n_labels = mrf.num_labels(0);

    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let shared = &shared;
            let mrf_ref: &GridMrf = &*mrf;
            scope.spawn(move || {
                // All hot-path buffers live for the whole worker: steady-
                // state iterations allocate nothing.
                let sampler = TreeSampler::new();
                let mut probs_in: Vec<LabelScore> = Vec::with_capacity(n_labels);
                let mut pg = PgOutput::new();
                let mut sd = SampleScratch::new();
                for it in 0..sweeps {
                    let mut var = t;
                    while var < n {
                        probs_in.clear();
                        for l in 0..n_labels {
                            let cost = mrf_ref
                                .total_cost_at(var, l, |j| shared[j].load(Ordering::Relaxed));
                            probs_in.push(LabelScore::LogDomain(-mrf_ref.beta() * cost));
                        }
                        pipeline.generate_into(&probs_in, &mut pg);
                        let mut rng = draw_rng(seed ^ 0x5150, it, var);
                        let label = sampler.sample_into(&pg.probs, &mut rng, &mut sd).label;
                        shared[var].store(label, Ordering::Relaxed);
                        var += n_threads;
                    }
                }
            });
        }
    });

    let labels: Vec<usize> = shared.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    mrf.set_labels(labels);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GibbsEngine, PU_CYCLES};
    use crate::pipeline::{CoopMcPipeline, FloatPipeline};
    use coopmc_models::bn::earthquake;
    use coopmc_models::mrf::image_segmentation;

    #[test]
    fn chromatic_is_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let mut app = image_segmentation(20, 16, 8);
            let engine = ChromaticEngine::new(FloatPipeline::new(), threads, 77);
            engine.run(&mut app.mrf, 5);
            app.mrf.labels()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(7));
    }

    #[test]
    fn chromatic_reduces_energy_like_sequential() {
        let mut app = image_segmentation(24, 24, 9);
        let before = app.mrf.energy();
        let engine = ChromaticEngine::new(CoopMcPipeline::new(64, 8), 4, 3);
        engine.run(&mut app.mrf, 10);
        let after = app.mrf.energy();
        assert!(
            after < before,
            "chromatic sweeps must lower energy: {before} -> {after}"
        );
    }

    #[test]
    fn chromatic_updates_every_unclamped_variable() {
        let mut net = earthquake();
        net.set_evidence(2, 0);
        let engine = ChromaticEngine::new(FloatPipeline::new(), 2, 5);
        let stats = engine.run(&mut net, 1);
        assert_eq!(stats.updates, 4, "5 nodes minus 1 evidence");
    }

    #[test]
    fn chromatic_and_sequential_reach_similar_quality() {
        // Not bitwise-identical chains (different RNG usage), but the same
        // stationary behaviour: compare final energies.
        let app = image_segmentation(24, 20, 10);
        let mut seq_model = app.mrf.clone();
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(3));
        engine.run(&mut seq_model, 15);
        let mut par_model = app.mrf.clone();
        let par = ChromaticEngine::new(FloatPipeline::new(), 4, 3);
        par.run(&mut par_model, 15);
        let e_seq = seq_model.energy();
        let e_par = par_model.energy();
        let rel = (e_seq - e_par).abs() / e_seq.abs().max(1.0);
        assert!(
            rel < 0.1,
            "energies should agree within 10%: {e_seq} vs {e_par}"
        );
    }

    #[test]
    fn hogwild_converges_and_respects_label_range() {
        let mut app = image_segmentation(24, 24, 11);
        let before = app.mrf.energy();
        hogwild_mrf_sweeps(&mut app.mrf, &FloatPipeline::new(), 10, 4, 9);
        let after = app.mrf.energy();
        assert!(
            after < before,
            "hogwild must lower energy: {before} -> {after}"
        );
        assert!(app.mrf.labels().iter().all(|&l| l < 2));
    }

    #[test]
    fn hogwild_parallel_quality_stays_in_band() {
        // Stale reads add sampling noise, so the parallel equilibrium is a
        // little hotter than the single-threaded one — but both must land
        // far below the initial energy and within the same band (the
        // "minimal added bias" claim of the Hogwild literature the paper
        // builds on).
        let app = image_segmentation(20, 20, 12);
        let initial = app.mrf.energy();
        let mut one = app.mrf.clone();
        hogwild_mrf_sweeps(&mut one, &FloatPipeline::new(), 12, 1, 4);
        let mut eight = app.mrf.clone();
        hogwild_mrf_sweeps(&mut eight, &FloatPipeline::new(), 12, 8, 4);
        let e1 = one.energy();
        let e8 = eight.energy();
        assert!(
            e1 < 0.7 * initial,
            "1-thread must converge: {initial} -> {e1}"
        );
        assert!(
            e8 < 0.7 * initial,
            "8-thread must converge: {initial} -> {e8}"
        );
        let rel = (e1 - e8).abs() / e1.abs().max(1.0);
        assert!(rel < 0.6, "equilibria should share a band: {e1} vs {e8}");
    }

    #[test]
    fn hogwild_composes_with_coopmc_pipeline() {
        let mut app = image_segmentation(20, 20, 13);
        let before = app.mrf.energy();
        hogwild_mrf_sweeps(&mut app.mrf, &CoopMcPipeline::new(64, 8), 10, 4, 5);
        assert!(app.mrf.energy() < before);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = ChromaticEngine::new(FloatPipeline::new(), 0, 1);
    }

    #[test]
    fn batched_chains_are_bit_identical_to_scalar_chains() {
        // The tentpole acceptance criterion: any batch stride (including
        // ragged tails, strides wider than a class chunk, and the scalar
        // stride 1) must produce the exact same chain.
        let run = |rows: usize, threads: usize| {
            let mut app = image_segmentation(20, 16, 21);
            let engine = ChromaticEngine::new(CoopMcPipeline::new(64, 8), threads, 909)
                .with_batch_rows(rows);
            engine.run(&mut app.mrf, 6);
            app.mrf.labels()
        };
        let scalar = run(1, 1);
        for rows in [2, 5, 8, 32] {
            assert_eq!(scalar, run(rows, 1), "stride {rows}, 1 thread");
            assert_eq!(scalar, run(rows, 3), "stride {rows}, 3 threads");
        }
    }

    #[test]
    fn batched_chains_match_scalar_on_factor_fallback_models() {
        // Bayesian-network scores are factor-domain, so every row takes the
        // scalar fallback inside the batched path — chains must still match.
        let run = |rows: usize| {
            let mut net = earthquake();
            net.set_evidence(2, 0);
            let engine = ChromaticEngine::new(FloatPipeline::new(), 2, 31).with_batch_rows(rows);
            engine.run(&mut net, 8);
            (0..5).map(|v| net.label(v)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn observed_chromatic_run_matches_plain_run_across_threads() {
        let plain = {
            let mut app = image_segmentation(16, 12, 33);
            let engine = ChromaticEngine::new(FloatPipeline::new(), 1, 55);
            engine.run(&mut app.mrf, 4);
            app.mrf.labels()
        };
        for threads in [1, 3] {
            let mut app = image_segmentation(16, 12, 33);
            let engine = ChromaticEngine::new(FloatPipeline::new(), threads, 55);
            engine.run_observed(&mut app.mrf, 4, |_, _| ());
            assert_eq!(plain, app.mrf.labels(), "{threads} threads");
        }
    }

    #[test]
    fn observed_chromatic_run_reports_counts_and_stops() {
        let mut app = image_segmentation(14, 10, 34);
        let engine = ChromaticEngine::new(FloatPipeline::new(), 2, 8);
        let (mut sweeps, mut updates, mut energies) = (0, 0, Vec::new());
        let stats = engine.run_observed(&mut app.mrf, 50, |c, m| {
            sweeps = c.iteration;
            updates += c.updates;
            assert!(c.flips <= c.updates);
            energies.push(m.energy());
            if c.iteration >= 3 {
                Decision::Stop
            } else {
                Decision::Continue
            }
        });
        assert_eq!(sweeps, 3, "stopped by the observer");
        assert_eq!(stats.iterations, 3);
        assert_eq!(updates, stats.updates);
        assert_eq!(stats.updates, 3 * 14 * 10, "every variable, every sweep");
        assert_eq!(energies.len(), 3);
        assert!(energies.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn profiled_chromatic_run_is_chain_invisible_and_covers_worker_lanes() {
        use coopmc_obs::SpanProfiler;
        let base = {
            let mut app = image_segmentation(20, 16, 21);
            let engine = ChromaticEngine::new(CoopMcPipeline::new(64, 8), 3, 909);
            engine.run(&mut app.mrf, 4);
            app.mrf.labels()
        };
        let prof = SpanProfiler::new(4);
        let (labels, stats) = {
            let mut app = image_segmentation(20, 16, 21);
            let engine = ChromaticEngine::with_recorder(CoopMcPipeline::new(64, 8), 3, 909, &prof);
            let stats = engine.run(&mut app.mrf, 4);
            (app.mrf.labels(), stats)
        };
        assert_eq!(base, labels, "profiling must be chain-invisible");

        let reports = prof.kernel_reports();
        let sweep = reports
            .iter()
            .find(|r| r.kernel == Kernel::Sweep && r.worker == 0)
            .expect("lane-0 sweep span");
        assert_eq!(sweep.calls, 4);
        assert_eq!(sweep.unclosed, 0);
        // 320 vars over 2 color classes and 3 threads: every class is
        // chunked across the pool, so worker lanes must carry PG/SD leaves
        // and the coordinator the dispatch/join/commit ones.
        for k in [Kernel::PoolDispatch, Kernel::PoolJoin, Kernel::PuUpdate] {
            assert!(
                reports.iter().any(|r| r.kernel == k && r.worker == 0),
                "missing coordinator {} leaf",
                k.name()
            );
        }
        for lane in 1..=3 {
            for k in [Kernel::PgGather, Kernel::PgNormalize, Kernel::SdSampleRows] {
                assert!(
                    reports.iter().any(|r| r.kernel == k && r.worker == lane),
                    "missing {} on worker lane {lane}",
                    k.name()
                );
            }
        }
        // PU cycles follow the sweep's update count.
        let pu: u64 = reports
            .iter()
            .filter(|r| r.kernel == Kernel::PuUpdate)
            .map(|r| r.modeled_cycles)
            .sum();
        assert_eq!(pu, PU_CYCLES * stats.updates);
    }

    #[test]
    fn default_batch_stride_is_one_packed_word() {
        let engine = ChromaticEngine::new(FloatPipeline::new(), 1, 1);
        assert_eq!(engine.batch_rows(), DEFAULT_BATCH_ROWS);
        assert_eq!(DEFAULT_BATCH_ROWS, 8);
    }

    #[test]
    #[should_panic(expected = "batch stride must be positive")]
    fn zero_batch_stride_panics() {
        let _ = ChromaticEngine::new(FloatPipeline::new(), 1, 1).with_batch_rows(0);
    }
}
