//! The generic Gibbs inference engine and its one instrumentation path.
//!
//! Both engines advance a chain only through `run` and `run_observed`, and
//! both return one [`RunStats`]. Each lane summarises its work in one
//! `LaneTally`: the deterministic counts (updates, flips, fallbacks, op
//! tally, sampler cycles, batch strides) always, and wall time only when
//! the recorder is armed (`enabled() || prof_enabled()`), through a
//! `Stopwatch` that reads no clock otherwise. A sweep's merged tally is the
//! single source of every view: the run's statistics, the observer's
//! [`SweepCounts`], profiler kernel leaves and modeled cycles, and the
//! journal's Table II phase split.

use std::time::Instant;

use coopmc_kernels::cost::{
    OpCounts, ADD_CYCLES, DIV_CYCLES, EXP_APPROX_CYCLES, LUT_CYCLES, MUL_CYCLES, TREE_LAYER_CYCLES,
};
use coopmc_kernels::fusion::StagePhases;
use coopmc_kernels::telemetry::PgTelemetry;
use coopmc_models::{GibbsModel, LabelScore};
use coopmc_obs::health::Decision;
use coopmc_obs::journal::SweepSample;
use coopmc_obs::profile::Kernel;
use coopmc_obs::{NoopRecorder, Recorder};
use coopmc_rng::HwRng;
use coopmc_sampler::{SampleResult, SampleScratch, Sampler};

use crate::pipeline::{PgOutput, ProbabilityPipeline};

/// Modeled Parameter Update cost per variable commit, in cycles.
///
/// Must stay equal to `coopmc_hw::cycles::PU_CYCLES` — the journal's
/// per-sweep `pu_cycles` and [`RunStats::simulated_hw_cycles`] both price
/// PU with this constant, and a cross-crate test pins the two together.
pub const PU_CYCLES: u64 = 4;

/// Cumulative statistics of an engine run: deterministic counts only, so
/// two runs of the same chain compare equal whatever their recorder or
/// thread count. Wall time lives in the journal (see
/// [`coopmc_obs::journal::breakdown_percent`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Completed full sweeps.
    pub iterations: u64,
    /// Variables resampled (clamped variables are skipped).
    pub updates: u64,
    /// Resampled variables whose label changed.
    pub flips: u64,
    /// Draws that hit the all-zero-mass uniform fallback (the Fig. 2 flush
    /// regime).
    pub uniform_fallbacks: u64,
    /// Datapath operation tally across the run.
    pub ops: OpCounts,
    /// Total sampler cycles (hardware model accounting).
    pub sd_cycles: u64,
    /// Total PG datapath cycles (operation tally priced at the per-op
    /// latencies of `coopmc_kernels::cost`, serialized per shared ALU).
    pub pg_cycles: u64,
}

impl RunStats {
    /// Total simulated hardware cycles (PG + SD + a [`PU_CYCLES`]-cycle PU
    /// per update), the per-workload analogue of the Table IV cycle
    /// accounting measured on the actual executed chain rather than the
    /// closed-form model.
    pub fn simulated_hw_cycles(&self) -> u64 {
        self.pg_cycles + self.sd_cycles + PU_CYCLES * self.updates
    }

    /// Fold one finished sweep's merged tally into the run.
    /// `sequential_cycles` is linear in the op counts, so pricing the
    /// sweep's tally once equals pricing every row.
    pub(crate) fn add_sweep(&mut self, sweep: &LaneTally) {
        self.iterations += 1;
        self.updates += sweep.updates;
        self.flips += sweep.flips;
        self.uniform_fallbacks += sweep.uniform_fallbacks;
        self.ops.merge(&sweep.ops);
        self.sd_cycles += sweep.sd_cycles;
        self.pg_cycles += sweep.ops.sequential_cycles();
    }
}

/// What one sweep did to the chain: what a `run_observed` observer — and
/// through it a convergence controller — sees after every sweep. The counts
/// are deterministic, identical with or without a recorder.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepCounts {
    /// The sweep's 1-based journal iteration (the `iteration` its journal
    /// record carries).
    pub iteration: u64,
    /// Variables resampled this sweep.
    pub updates: u64,
    /// Resampled variables whose label changed.
    pub flips: u64,
    /// Draws that hit the all-zero-mass uniform fallback.
    pub uniform_fallbacks: u64,
}

/// A clock that is read only when armed: [`Stopwatch::lap`] returns the
/// nanoseconds since the previous lap, or 0 (and reads nothing) when
/// disarmed. Engines arm it with `recorder.enabled() ||
/// recorder.prof_enabled()`, which is compile-time false for
/// [`NoopRecorder`], so unrecorded sweeps carry no clock reads at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stopwatch(Option<Instant>);

impl Stopwatch {
    #[inline]
    pub(crate) fn start(armed: bool) -> Self {
        Stopwatch(armed.then(Instant::now))
    }

    #[inline]
    pub(crate) fn lap(&mut self) -> u64 {
        match &mut self.0 {
            Some(last) => {
                let now = Instant::now();
                let ns = (now - *last).as_nanos() as u64;
                *last = now;
                ns
            }
            None => 0,
        }
    }
}

/// What one lane did over one chunk (chromatic) or one sweep (sequential).
/// The counts are always kept; the `_ns` fields come from [`Stopwatch`]
/// captures (0 while disarmed) and the telemetry is merged only while the
/// recorder is armed. Lane tallies [`merge`](Self::merge) into a sweep
/// tally, and [`RunStats::add_sweep`], [`counts`](Self::counts),
/// [`emit_profile`](Self::emit_profile) and
/// [`fill_sample`](Self::fill_sample) derive every view from the same
/// numbers.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneTally {
    /// PU commits (the coordinator's tally in the chromatic engine).
    pub(crate) updates: u64,
    /// Commits that changed the variable's label.
    pub(crate) flips: u64,
    /// Draws that hit the uniform fallback.
    pub(crate) uniform_fallbacks: u64,
    /// Time in `scores_into` (the PG gather), ns.
    pub(crate) gather_ns: u64,
    /// PG wall time — gather plus datapath, the journal's Table II
    /// meaning — ns.
    pub(crate) pg_ns: u64,
    /// Fused-datapath stage splits, taken from the PG buffers' armed
    /// `phases` sinks when the lane emits its profile (`active` only if the
    /// pipeline reports stages at all).
    pub(crate) phases: StagePhases,
    /// Sampling-from-Distribution wall time, ns.
    pub(crate) sd_ns: u64,
    /// Parameter Update wall time, ns.
    pub(crate) pu_ns: u64,
    /// Datapath op tally; its `sequential_cycles` is the modeled PG cost.
    pub(crate) ops: OpCounts,
    /// Modeled sampler cycles.
    pub(crate) sd_cycles: u64,
    /// Batched PG evaluations (`generate_batch_into` strides).
    pub(crate) pg_batches: u64,
    /// Rows evaluated through batched PG strides.
    pub(crate) pg_batch_rows: u64,
    /// DyNorm / TableExp telemetry (armed recorders only).
    pub(crate) telemetry: PgTelemetry,
}

impl LaneTally {
    /// Book one score gather: host-side assembly counts toward PG.
    #[inline]
    pub(crate) fn gather(&mut self, ns: u64) {
        self.gather_ns += ns;
        self.pg_ns += ns;
    }

    /// Book one row's PG op tally and its draw.
    #[inline]
    pub(crate) fn sampled(&mut self, ops: &OpCounts, sample: &SampleResult) {
        self.ops.merge(ops);
        self.sd_cycles += sample.cycles;
        self.uniform_fallbacks += u64::from(sample.fallback);
    }

    /// Book one scalar PG evaluation and its draw; the telemetry only when
    /// `armed`.
    #[inline]
    pub(crate) fn draw(
        &mut self,
        pg_ns: u64,
        sd_ns: u64,
        pg: &PgOutput,
        sample: &SampleResult,
        armed: bool,
    ) {
        self.pg_ns += pg_ns;
        self.sd_ns += sd_ns;
        self.sampled(&pg.ops, sample);
        if armed {
            self.telemetry.merge(&pg.telemetry);
        }
    }

    /// Book one PU commit.
    #[inline]
    pub(crate) fn commit(&mut self, flipped: bool) {
        self.updates += 1;
        self.flips += u64::from(flipped);
    }

    /// Fold another tally into this one.
    pub(crate) fn merge(&mut self, other: &LaneTally) {
        self.updates += other.updates;
        self.flips += other.flips;
        self.uniform_fallbacks += other.uniform_fallbacks;
        self.gather_ns += other.gather_ns;
        self.pg_ns += other.pg_ns;
        self.phases.merge(&other.phases);
        self.sd_ns += other.sd_ns;
        self.pu_ns += other.pu_ns;
        self.ops.merge(&other.ops);
        self.sd_cycles += other.sd_cycles;
        self.pg_batches += other.pg_batches;
        self.pg_batch_rows += other.pg_batch_rows;
        self.telemetry.merge(&other.telemetry);
    }

    /// The observer view of a finished sweep numbered `iteration`.
    pub(crate) fn counts(&self, iteration: u64) -> SweepCounts {
        SweepCounts {
            iteration,
            updates: self.updates,
            flips: self.flips,
            uniform_fallbacks: self.uniform_fallbacks,
        }
    }

    /// The profiler view: one leaf per kernel that recorded time, plus the
    /// tally's modeled cycles, on `lane`, with its commits priced at
    /// [`PU_CYCLES`].
    ///
    /// The cycle split mirrors how the fused PG datapath spends its op
    /// tally: TableLog lookups (`log_lut`) land in `pg.log`, accumulator
    /// add/mul/div in `pg.normalize`, NormTree comparators in `pg.dynorm`,
    /// the remaining (TableExp) lookups and approximation-ALU calls in
    /// `pg.exp_batch` — together exactly [`OpCounts::sequential_cycles`],
    /// so the ledger's modeled total matches the journal's `pg_cycles`.
    pub(crate) fn emit_profile<Rec: Recorder>(&self, rec: &Rec, lane: usize) {
        let p = &self.phases;
        for (kernel, ns) in [
            (Kernel::PgGather, self.gather_ns),
            (Kernel::PgLog, p.log_ns),
            (Kernel::PgNormalize, p.normalize_ns),
            (Kernel::PgDynorm, p.dynorm_ns),
            (Kernel::PgExpBatch, p.exp_ns),
            (Kernel::SdSampleRows, self.sd_ns),
            (Kernel::PuUpdate, self.pu_ns),
        ] {
            if ns > 0 {
                rec.prof_leaf(lane, kernel, ns);
            }
        }
        let ops = &self.ops;
        for (kernel, cycles) in [
            (Kernel::PgLog, ops.log_lut * LUT_CYCLES),
            (
                Kernel::PgNormalize,
                ops.add * ADD_CYCLES + ops.mul * MUL_CYCLES + ops.div * DIV_CYCLES,
            ),
            (Kernel::PgDynorm, ops.cmp * TREE_LAYER_CYCLES),
            (
                Kernel::PgExpBatch,
                (ops.lut - ops.log_lut) * LUT_CYCLES + ops.approx * EXP_APPROX_CYCLES,
            ),
            (Kernel::SdSampleRows, self.sd_cycles),
            (Kernel::PuUpdate, PU_CYCLES * self.updates),
        ] {
            rec.prof_cycles(lane, kernel, cycles);
        }
    }

    /// The journal view: fill `sample`'s counts, phase times, modeled
    /// cycles, batch counts and telemetry.
    pub(crate) fn fill_sample(&self, sample: &mut SweepSample) {
        sample.updates = self.updates;
        sample.flips = self.flips;
        sample.uniform_fallbacks = self.uniform_fallbacks;
        sample.pg_ns = self.pg_ns;
        sample.sd_ns = self.sd_ns;
        sample.pu_ns = self.pu_ns;
        sample.pg_cycles = self.ops.sequential_cycles();
        sample.sd_cycles = self.sd_cycles;
        sample.pu_cycles = PU_CYCLES * self.updates;
        sample.pg_batches = self.pg_batches;
        sample.pg_batch_rows = self.pg_batch_rows;
        sample.norm_max = self.telemetry.norm_max;
        sample.exp_in_min = self.telemetry.exp_in_min;
        sample.exp_in_max = self.telemetry.exp_in_max;
    }
}

/// Drives a [`GibbsModel`] through PG → SD → PU sweeps, one variable at a
/// time from one RNG stream.
///
/// A chain advances only through [`run`](Self::run) and
/// [`run_observed`](Self::run_observed); a single sweep is `run(model, 1)`.
/// Both are generic over the model, so an observer sees the concrete type
/// (`&GridMrf`, `&BayesNet`, `&Lda`, or `&dyn GibbsModel`) with its
/// energy, joint probability or log-likelihood.
///
/// The engine owns every hot-path buffer (score vector, PG output, sampler
/// scratch), so after a warm-up sweep has grown them to the model's label
/// count, a steady-state sweep performs **zero heap allocations**.
///
/// The engine is generic over a [`Recorder`]; the default [`NoopRecorder`]
/// is statically dispatched into nothing — no clock reads, no telemetry —
/// so the counting-allocator test in `tests/alloc_free.rs` proves
/// instrumented-but-disabled sweeps keep the zero-allocation guarantee.
/// Construct with [`GibbsEngine::with_recorder`] (typically over
/// `&TraceRecorder`, so the caller keeps ownership for export) to emit one
/// journal record — and, when profiling, one set of lane-0 kernel leaves —
/// per sweep.
#[derive(Debug, Clone)]
pub struct GibbsEngine<P, S, R, Rec = NoopRecorder> {
    pipeline: P,
    sampler: S,
    rng: R,
    recorder: Rec,
    /// Chain identifier stamped into journal records.
    chain: u64,
    /// 1-based journal iteration, monotone for the engine's lifetime (so
    /// repeated `run` calls on one engine keep a valid journal).
    journal_iteration: u64,
    scores: Vec<LabelScore>,
    pg: PgOutput,
    sd_scratch: SampleScratch,
}

impl<P: ProbabilityPipeline, S: Sampler, R: HwRng> GibbsEngine<P, S, R> {
    /// Assemble an engine from a pipeline, a sampler and an RNG, with
    /// recording disabled (the zero-overhead [`NoopRecorder`]).
    pub fn new(pipeline: P, sampler: S, rng: R) -> Self {
        Self::with_recorder(pipeline, sampler, rng, NoopRecorder)
    }
}

impl<P: ProbabilityPipeline, S: Sampler, R: HwRng, Rec: Recorder> GibbsEngine<P, S, R, Rec> {
    /// Assemble an engine that reports every sweep to `recorder`.
    pub fn with_recorder(pipeline: P, sampler: S, rng: R, recorder: Rec) -> Self {
        Self {
            pipeline,
            sampler,
            rng,
            recorder,
            chain: 0,
            journal_iteration: 0,
            scores: Vec::new(),
            pg: PgOutput::new(),
            sd_scratch: SampleScratch::new(),
        }
    }

    /// Set the chain identifier stamped into journal records.
    pub fn with_chain(mut self, chain: u64) -> Self {
        self.chain = chain;
        self
    }

    /// The pipeline.
    pub fn pipeline(&self) -> &P {
        &self.pipeline
    }

    /// The recorder.
    pub fn recorder(&self) -> &Rec {
        &self.recorder
    }

    /// Resample a single unclamped variable into `tally`.
    fn step<M: GibbsModel + ?Sized>(
        &mut self,
        model: &mut M,
        var: usize,
        tally: &mut LaneTally,
        armed: bool,
    ) {
        let old_label = model.label(var);
        let mut clock = Stopwatch::start(armed);
        model.begin_resample(var);
        model.scores_into(var, &mut self.scores);
        let gather_ns = clock.lap();
        self.pipeline.generate_into(&self.scores, &mut self.pg);
        let pg_ns = clock.lap();
        let sample = self
            .sampler
            .sample_into(&self.pg.probs, &mut self.rng, &mut self.sd_scratch);
        let sd_ns = clock.lap();
        model.update(var, sample.label);
        tally.pu_ns += clock.lap();
        tally.gather(gather_ns);
        tally.draw(pg_ns, sd_ns, &self.pg, &sample, armed);
        tally.commit(sample.label != old_label);
    }

    /// One full sweep over every variable; returns the sweep's tally.
    fn sweep<M: GibbsModel + ?Sized>(&mut self, model: &mut M) -> LaneTally {
        // With the NoopRecorder every recorder branch below folds away:
        // `enabled()` and `prof_enabled()` are compile-time false.
        let enabled = self.recorder.enabled();
        let prof = self.recorder.prof_enabled();
        let armed = enabled || prof;
        let start_ns = if enabled { self.recorder.now_ns() } else { 0 };
        if prof {
            self.recorder.prof_begin(0, Kernel::Sweep);
        }
        // Arm the PG buffer's stage-timing sink only while profiling.
        self.pg.phases = prof.then(StagePhases::default);
        let mut tally = LaneTally::default();
        for var in 0..model.num_variables() {
            if !model.is_clamped(var) {
                self.step(model, var, &mut tally, armed);
            }
        }
        self.journal_iteration += 1;
        if prof {
            tally.phases = self.pg.phases.take().unwrap_or_default();
            // Sequential engine: everything runs on lane 0, the coordinator.
            tally.emit_profile(&self.recorder, 0);
            self.recorder.prof_end(0, Kernel::Sweep);
        }
        if enabled {
            let mut sample = SweepSample {
                chain: self.chain,
                iteration: self.journal_iteration,
                start_ns,
                wall_ns: self.recorder.now_ns().saturating_sub(start_ns),
                ..SweepSample::default()
            };
            tally.fill_sample(&mut sample);
            self.recorder.end_sweep(&sample);
        }
        tally
    }

    /// Run `iterations` full sweeps.
    pub fn run<M: GibbsModel + ?Sized>(&mut self, model: &mut M, iterations: u64) -> RunStats {
        self.run_observed(model, iterations, |_, _| ())
    }

    /// Run up to `iterations` full sweeps, handing `observer` each sweep's
    /// [`SweepCounts`] (its `iteration` is the journal's: 1-based and
    /// monotone across `run` calls on this engine) and the model. The run
    /// ends early when the observer returns [`Decision::Stop`]; an observer
    /// returning `()` never stops it.
    ///
    /// The observer sees the chain after the sweep but never its RNG or
    /// draw path, so an observed run is bit-identical to a plain `run` for
    /// the sweeps they share.
    pub fn run_observed<M: GibbsModel + ?Sized, D: Into<Decision>>(
        &mut self,
        model: &mut M,
        iterations: u64,
        mut observer: impl FnMut(&SweepCounts, &M) -> D,
    ) -> RunStats {
        let mut stats = RunStats::default();
        for _ in 0..iterations {
            let tally = self.sweep(model);
            stats.add_sweep(&tally);
            let counts = tally.counts(self.journal_iteration);
            if observer(&counts, model).into() == Decision::Stop {
                break;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FloatPipeline, PipelineConfig};
    use coopmc_models::bn::asia;
    use coopmc_models::mrf::image_segmentation;
    use coopmc_models::GibbsModel;
    use coopmc_rng::SplitMix64;
    use coopmc_sampler::{SequentialSampler, TreeSampler};

    #[test]
    fn engine_runs_and_counts() {
        let mut app = image_segmentation(12, 12, 3);
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(1));
        let stats = engine.run(&mut app.mrf, 3);
        assert_eq!(stats.iterations, 3);
        assert_eq!(stats.updates, 3 * 144);
        assert!(stats.sd_cycles > 0);
    }

    #[test]
    fn clamped_variables_are_skipped() {
        let mut net = asia();
        let d = net.node_index("dysp").unwrap();
        net.set_evidence(d, 0);
        let mut engine = GibbsEngine::new(
            FloatPipeline::new(),
            SequentialSampler::new(),
            SplitMix64::new(2),
        );
        let stats = engine.run(&mut net, 10);
        assert_eq!(stats.updates, 10 * 7, "evidence node must not be resampled");
        assert_eq!(net.label(d), 0);
    }

    #[test]
    fn breakdown_percentages_sum_to_100() {
        use coopmc_obs::journal::breakdown_percent;
        use coopmc_obs::TraceRecorder;
        let mut app = image_segmentation(10, 10, 4);
        let recorder = TraceRecorder::new();
        let mut engine = GibbsEngine::with_recorder(
            PipelineConfig::coopmc(64, 8).build(),
            TreeSampler::new(),
            SplitMix64::new(3),
            &recorder,
        );
        engine.run(&mut app.mrf, 2);
        let (pg, sd, pu) = breakdown_percent(&recorder.sweeps()).expect("armed run records time");
        assert!((pg + sd + pu - 100.0).abs() < 1e-9);
        assert!(pg > 0.0 && sd > 0.0);
    }

    #[test]
    fn observer_sees_every_iteration() {
        let mut app = image_segmentation(8, 8, 5);
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(4));
        let mut seen = Vec::new();
        engine.run_observed(&mut app.mrf, 4, |c, _| seen.push(c.iteration));
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn gibbs_reduces_mrf_energy() {
        let mut app = image_segmentation(16, 16, 6);
        let before = app.mrf.energy();
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(5));
        engine.run(&mut app.mrf, 10);
        let after = app.mrf.energy();
        assert!(after < before, "energy must drop: {before} -> {after}");
    }

    #[test]
    fn hardware_cycle_accounting_accumulates() {
        let mut app = image_segmentation(10, 10, 8);
        let mut engine = GibbsEngine::new(
            PipelineConfig::coopmc(64, 8).build(),
            TreeSampler::new(),
            SplitMix64::new(6),
        );
        let stats = engine.run(&mut app.mrf, 2);
        assert!(stats.pg_cycles > 0, "LUT/add ops must be priced");
        // 2-label tree sampler: 5 cycles per draw.
        assert_eq!(stats.sd_cycles, stats.updates * 5);
        assert_eq!(
            stats.simulated_hw_cycles(),
            stats.pg_cycles + stats.sd_cycles + 4 * stats.updates
        );
    }

    #[test]
    fn observed_run_with_a_unit_observer_matches_plain_run() {
        let plain = {
            let mut app = image_segmentation(12, 12, 44);
            let mut engine =
                GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(8));
            engine.run(&mut app.mrf, 5);
            app.mrf.labels()
        };
        let observed = {
            let mut app = image_segmentation(12, 12, 44);
            let mut engine =
                GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(8));
            engine.run_observed(&mut app.mrf, 5, |_, _| ());
            app.mrf.labels()
        };
        assert_eq!(plain, observed);
    }

    #[test]
    fn observed_run_stops_when_the_observer_says_so() {
        let mut app = image_segmentation(10, 10, 45);
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(9));
        let mut energies = Vec::new();
        let stats = engine.run_observed(&mut app.mrf, 100, |c, m| {
            energies.push(m.energy());
            if c.iteration >= 3 {
                Decision::Stop
            } else {
                Decision::Continue
            }
        });
        assert_eq!(stats.iterations, 3, "must stop at the observer's word");
        assert_eq!(energies.len(), 3);
    }

    #[test]
    fn profiled_run_attributes_kernels_and_stays_bit_identical() {
        use coopmc_obs::SpanProfiler;
        let base = {
            let mut app = image_segmentation(10, 10, 31);
            let mut engine = GibbsEngine::new(
                PipelineConfig::coopmc(64, 8).build(),
                TreeSampler::new(),
                SplitMix64::new(7),
            );
            engine.run(&mut app.mrf, 2);
            app.mrf.labels()
        };
        let prof = SpanProfiler::new(1);
        let (labels, stats) = {
            let mut app = image_segmentation(10, 10, 31);
            let mut engine = GibbsEngine::with_recorder(
                PipelineConfig::coopmc(64, 8).build(),
                TreeSampler::new(),
                SplitMix64::new(7),
                &prof,
            );
            let stats = engine.run(&mut app.mrf, 2);
            (app.mrf.labels(), stats)
        };
        assert_eq!(base, labels, "profiling must be chain-invisible");

        let reports = prof.kernel_reports();
        let modeled: u64 = reports.iter().map(|r| r.modeled_cycles).sum();
        assert_eq!(
            modeled,
            stats.simulated_hw_cycles(),
            "kernel attribution must conserve the modeled cycle total"
        );
        let sweep = reports
            .iter()
            .find(|r| r.kernel == Kernel::Sweep)
            .expect("sweep span");
        assert_eq!(sweep.calls, 2);
        assert_eq!(sweep.unclosed, 0);
        for k in [
            Kernel::PgGather,
            Kernel::PgNormalize,
            Kernel::PgDynorm,
            Kernel::PgExpBatch,
            Kernel::SdSampleRows,
            Kernel::PuUpdate,
        ] {
            let row = reports
                .iter()
                .find(|r| r.kernel == k)
                .unwrap_or_else(|| panic!("missing {} row", k.name()));
            assert!(row.calls > 0 || row.modeled_cycles > 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut app = image_segmentation(10, 10, 7);
            let mut engine = GibbsEngine::new(
                FloatPipeline::new(),
                TreeSampler::new(),
                SplitMix64::new(seed),
            );
            engine.run(&mut app.mrf, 3);
            app.mrf.labels()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
