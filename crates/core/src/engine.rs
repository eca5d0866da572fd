//! The generic Gibbs inference engine with per-step instrumentation.

use std::time::{Duration, Instant};

use coopmc_kernels::cost::{
    OpCounts, ADD_CYCLES, DIV_CYCLES, EXP_APPROX_CYCLES, LUT_CYCLES, MUL_CYCLES, TREE_LAYER_CYCLES,
};
use coopmc_kernels::fusion::StagePhases;
use coopmc_kernels::telemetry::PgTelemetry;
use coopmc_models::{GibbsModel, LabelScore};
use coopmc_obs::health::{ConvergenceController, Decision};
use coopmc_obs::journal::SweepSample;
use coopmc_obs::profile::Kernel;
use coopmc_obs::{NoopRecorder, Recorder};
use coopmc_rng::HwRng;
use coopmc_sampler::{SampleScratch, Sampler};

use crate::pipeline::{PgOutput, ProbabilityPipeline};

/// Modeled Parameter Update cost per variable commit, in cycles.
///
/// Must stay equal to `coopmc_hw::cycles::PU_CYCLES` — the journal's
/// per-sweep `pu_cycles` and [`RunStats::simulated_hw_cycles`] both price
/// PU with this constant, and a cross-crate test pins the two together.
pub const PU_CYCLES: u64 = 4;

/// Cumulative statistics of an engine run.
#[derive(Debug, Clone, Default)]
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
    /// Wall time in Probability Generation.
    pub pg_time: Duration,
    /// Wall time in Sampling from Distribution.
    pub sd_time: Duration,
    /// Wall time in Parameter Update.
    pub pu_time: Duration,
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

    /// Runtime percentages `(PG%, SD%, PU%)` — the Table II breakdown.
    ///
    /// # Panics
    ///
    /// Panics if no time was recorded.
    pub fn breakdown_percent(&self) -> (f64, f64, f64) {
        let total =
            self.pg_time.as_secs_f64() + self.sd_time.as_secs_f64() + self.pu_time.as_secs_f64();
        assert!(total > 0.0, "no time recorded");
        (
            100.0 * self.pg_time.as_secs_f64() / total,
            100.0 * self.sd_time.as_secs_f64() / total,
            100.0 * self.pu_time.as_secs_f64() / total,
        )
    }
}

/// Elementwise difference of two op tallies (`after` must dominate).
pub(crate) fn delta_ops(after: &OpCounts, before: &OpCounts) -> OpCounts {
    OpCounts {
        add: after.add - before.add,
        mul: after.mul - before.mul,
        div: after.div - before.div,
        lut: after.lut - before.lut,
        log_lut: after.log_lut - before.log_lut,
        approx: after.approx - before.approx,
        cmp: after.cmp - before.cmp,
    }
}

/// Attribute a sweep's modeled cycles to profiler kernels on `lane`.
///
/// The split mirrors how the fused PG datapath spends its op tally:
/// TableLog lookups (`log_lut`) land in `pg.log`, accumulator add/mul/div
/// in `pg.normalize`, NormTree comparators in `pg.dynorm`, the remaining
/// (TableExp) lookups and approximation-ALU calls in `pg.exp_batch` —
/// together exactly [`OpCounts::sequential_cycles`], so the
/// ledger's modeled total matches the journal's `pg_cycles`. SD is the
/// sampler's own latency tally and PU is [`PU_CYCLES`] per committed update,
/// matching [`RunStats::simulated_hw_cycles`].
pub(crate) fn emit_kernel_cycles<Rec: Recorder>(
    rec: &Rec,
    lane: usize,
    ops: &OpCounts,
    sd_cycles: u64,
    updates: u64,
) {
    rec.prof_cycles(lane, Kernel::PgLog, ops.log_lut * LUT_CYCLES);
    rec.prof_cycles(
        lane,
        Kernel::PgNormalize,
        ops.add * ADD_CYCLES + ops.mul * MUL_CYCLES + ops.div * DIV_CYCLES,
    );
    rec.prof_cycles(lane, Kernel::PgDynorm, ops.cmp * TREE_LAYER_CYCLES);
    rec.prof_cycles(
        lane,
        Kernel::PgExpBatch,
        (ops.lut - ops.log_lut) * LUT_CYCLES + ops.approx * EXP_APPROX_CYCLES,
    );
    rec.prof_cycles(lane, Kernel::SdSampleRows, sd_cycles);
    rec.prof_cycles(lane, Kernel::PuUpdate, PU_CYCLES * updates);
}

/// Emit a fused datapath's stage times as kernel leaves on `lane`. The
/// `pg.log` leaf appears only once the log stage has run (factor scores),
/// so log-domain workloads keep the vocabulary they always had.
pub(crate) fn emit_phase_leaves<Rec: Recorder>(rec: &Rec, lane: usize, phases: &StagePhases) {
    if phases.log_ns > 0 {
        rec.prof_leaf(lane, Kernel::PgLog, phases.log_ns);
    }
    rec.prof_leaf(lane, Kernel::PgNormalize, phases.normalize_ns);
    rec.prof_leaf(lane, Kernel::PgDynorm, phases.dynorm_ns);
    rec.prof_leaf(lane, Kernel::PgExpBatch, phases.exp_ns);
}

/// Drives a [`GibbsModel`] through PG → SD → PU sweeps.
///
/// The engine owns every hot-path buffer (score vector, PG output, sampler
/// scratch), so after a warm-up sweep has grown them to the model's label
/// count, a steady-state sweep performs **zero heap allocations**.
///
/// The engine is generic over a [`Recorder`]; the default [`NoopRecorder`]
/// is statically dispatched into nothing, so the counting-allocator test in
/// `tests/alloc_free.rs` proves instrumented-but-disabled sweeps keep the
/// zero-allocation guarantee. Construct with
/// [`GibbsEngine::with_recorder`] (typically over `&TraceRecorder`, so the
/// caller keeps ownership for export) to emit one journal record per sweep.
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
    /// Per-sweep PG telemetry aggregate (recording only).
    sweep_telemetry: PgTelemetry,
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
            sweep_telemetry: PgTelemetry::new(),
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

    /// The 1-based iteration number journal records carry; monotone across
    /// repeated `run` calls on the same engine.
    pub fn journal_iteration(&self) -> u64 {
        self.journal_iteration
    }

    /// Resample a single variable; returns its new label, or `None` if the
    /// variable is clamped.
    pub fn step(
        &mut self,
        model: &mut dyn GibbsModel,
        var: usize,
        stats: &mut RunStats,
    ) -> Option<usize> {
        if model.is_clamped(var) {
            return None;
        }
        let old_label = model.label(var);
        let prof = self.recorder.prof_enabled();
        let mut phases = StagePhases::default();
        let t0 = Instant::now();
        model.begin_resample(var);
        model.scores_into(var, &mut self.scores);
        let tg = Instant::now();
        if prof {
            self.pipeline
                .generate_into_profiled(&self.scores, &mut self.pg, &mut phases);
        } else {
            self.pipeline.generate_into(&self.scores, &mut self.pg);
        }
        let t1 = Instant::now();
        let sample = self
            .sampler
            .sample_into(&self.pg.probs, &mut self.rng, &mut self.sd_scratch);
        let t2 = Instant::now();
        model.update(var, sample.label);
        let t3 = Instant::now();
        if prof {
            // Sequential engine: everything runs on lane 0, the coordinator.
            self.recorder
                .prof_leaf(0, Kernel::PgGather, (tg - t0).as_nanos() as u64);
            if phases.active {
                emit_phase_leaves(&self.recorder, 0, &phases);
            }
            self.recorder
                .prof_leaf(0, Kernel::SdSampleRows, (t2 - t1).as_nanos() as u64);
            self.recorder
                .prof_leaf(0, Kernel::PuUpdate, (t3 - t2).as_nanos() as u64);
        }

        stats.pg_time += t1 - t0;
        stats.sd_time += t2 - t1;
        stats.pu_time += t3 - t2;
        stats.pg_cycles += self.pg.ops.sequential_cycles();
        stats.ops.merge(&self.pg.ops);
        stats.sd_cycles += sample.cycles;
        stats.updates += 1;
        stats.flips += u64::from(sample.label != old_label);
        stats.uniform_fallbacks += u64::from(sample.fallback);
        if self.recorder.enabled() {
            self.sweep_telemetry.merge(&self.pg.telemetry);
        }
        Some(sample.label)
    }

    /// One full sweep over every variable.
    pub fn sweep(&mut self, model: &mut dyn GibbsModel, stats: &mut RunStats) {
        // With the NoopRecorder this whole prologue/epilogue folds away:
        // `enabled()` and `prof_enabled()` are compile-time false.
        let prof = self.recorder.prof_enabled();
        let (start_ns, before) = if self.recorder.enabled() || prof {
            (self.recorder.now_ns(), stats.clone())
        } else {
            (0, RunStats::default())
        };
        if prof {
            self.recorder.prof_begin(0, Kernel::Sweep);
        }
        for var in 0..model.num_variables() {
            self.step(model, var, stats);
        }
        if prof {
            self.recorder.prof_end(0, Kernel::Sweep);
            emit_kernel_cycles(
                &self.recorder,
                0,
                &delta_ops(&stats.ops, &before.ops),
                stats.sd_cycles - before.sd_cycles,
                stats.updates - before.updates,
            );
        }
        stats.iterations += 1;
        self.journal_iteration += 1;
        if self.recorder.enabled() {
            let updates = stats.updates - before.updates;
            let sample = SweepSample {
                chain: self.chain,
                iteration: self.journal_iteration,
                start_ns,
                wall_ns: self.recorder.now_ns().saturating_sub(start_ns),
                updates,
                flips: stats.flips - before.flips,
                uniform_fallbacks: stats.uniform_fallbacks - before.uniform_fallbacks,
                pg_ns: (stats.pg_time - before.pg_time).as_nanos() as u64,
                sd_ns: (stats.sd_time - before.sd_time).as_nanos() as u64,
                pu_ns: (stats.pu_time - before.pu_time).as_nanos() as u64,
                pg_cycles: stats.pg_cycles - before.pg_cycles,
                sd_cycles: stats.sd_cycles - before.sd_cycles,
                pu_cycles: PU_CYCLES * updates,
                pg_batches: 0,
                pg_batch_rows: 0,
                norm_max: self.sweep_telemetry.norm_max,
                exp_in_min: self.sweep_telemetry.exp_in_min,
                exp_in_max: self.sweep_telemetry.exp_in_max,
                stat: None,
                colors: Vec::new(),
            };
            self.recorder.end_sweep(&sample);
            self.sweep_telemetry = PgTelemetry::new();
        }
    }

    /// Run `iterations` full sweeps.
    pub fn run(&mut self, model: &mut dyn GibbsModel, iterations: u64) -> RunStats {
        let mut stats = RunStats::default();
        for _ in 0..iterations {
            self.sweep(model, &mut stats);
        }
        stats
    }

    /// Run up to `max_sweeps` sweeps, consulting `controller` after each.
    ///
    /// After every sweep, `stat_fn` extracts the chain's scalar statistic
    /// from the model (return `None` to run the flip/fallback detectors
    /// without moment tracking); the statistic is forwarded to the recorder
    /// (when enabled) and handed to the controller together with the
    /// sweep's update/flip/fallback counts. The run ends early when the
    /// controller returns [`Decision::Stop`].
    ///
    /// With [`coopmc_obs::health::NoControl`] and a `|_| None` statistic
    /// this is exactly [`run`](Self::run): the controller neither observes
    /// the chain's labels nor its RNG, so controlled and plain runs are
    /// bit-identical — pinned by the workspace `tests/health.rs`.
    pub fn run_controlled(
        &mut self,
        model: &mut dyn GibbsModel,
        max_sweeps: u64,
        mut stat_fn: impl FnMut(&dyn GibbsModel) -> Option<f64>,
        controller: &mut impl ConvergenceController,
    ) -> RunStats {
        let mut stats = RunStats::default();
        for _ in 0..max_sweeps {
            let (u0, f0, fb0) = (stats.updates, stats.flips, stats.uniform_fallbacks);
            self.sweep(model, &mut stats);
            let stat = stat_fn(model);
            if self.recorder.enabled() {
                if let Some(v) = stat {
                    self.recorder
                        .observe_stat(self.chain, self.journal_iteration, v);
                }
            }
            let decision = controller.observe_sweep(
                self.journal_iteration,
                stats.updates - u0,
                stats.flips - f0,
                stats.uniform_fallbacks - fb0,
                stat,
            );
            if decision == Decision::Stop {
                break;
            }
        }
        stats
    }

    /// Run `iterations` sweeps, invoking `observer` after each with the
    /// journal iteration index (1-based, monotone across `run` calls) and
    /// the model.
    pub fn run_observed(
        &mut self,
        model: &mut dyn GibbsModel,
        iterations: u64,
        mut observer: impl FnMut(u64, &dyn GibbsModel),
    ) -> RunStats {
        let mut stats = RunStats::default();
        for _ in 0..iterations {
            self.sweep(model, &mut stats);
            observer(self.journal_iteration, model);
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
        let mut app = image_segmentation(10, 10, 4);
        let mut engine = GibbsEngine::new(
            PipelineConfig::coopmc(64, 8).build(),
            TreeSampler::new(),
            SplitMix64::new(3),
        );
        let stats = engine.run(&mut app.mrf, 2);
        let (pg, sd, pu) = stats.breakdown_percent();
        assert!((pg + sd + pu - 100.0).abs() < 1e-9);
        assert!(pg > 0.0 && sd > 0.0);
    }

    #[test]
    fn observer_sees_every_iteration() {
        let mut app = image_segmentation(8, 8, 5);
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(4));
        let mut seen = Vec::new();
        engine.run_observed(&mut app.mrf, 4, |it, _| seen.push(it));
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
    fn controlled_run_with_no_control_matches_plain_run() {
        use coopmc_obs::health::NoControl;
        let plain = {
            let mut app = image_segmentation(12, 12, 44);
            let mut engine =
                GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(8));
            engine.run(&mut app.mrf, 5);
            app.mrf.labels()
        };
        let controlled = {
            let mut app = image_segmentation(12, 12, 44);
            let mut engine =
                GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(8));
            engine.run_controlled(&mut app.mrf, 5, |_| None, &mut NoControl);
            app.mrf.labels()
        };
        assert_eq!(plain, controlled);
    }

    #[test]
    fn controlled_run_stops_when_the_controller_says_so() {
        use coopmc_obs::health::{ConvergenceController, Decision};
        struct StopAfter(u64);
        impl ConvergenceController for StopAfter {
            fn observe_sweep(
                &mut self,
                it: u64,
                _: u64,
                _: u64,
                _: u64,
                _: Option<f64>,
            ) -> Decision {
                if it >= self.0 {
                    Decision::Stop
                } else {
                    Decision::Continue
                }
            }
        }
        let mut app = image_segmentation(10, 10, 45);
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(9));
        let stats = engine.run_controlled(
            &mut app.mrf,
            100,
            |m| Some(-(m.num_variables() as f64)),
            &mut StopAfter(3),
        );
        assert_eq!(stats.iterations, 3, "must stop at the controller's word");
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
