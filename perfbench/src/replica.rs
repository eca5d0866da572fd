//! Benchmark-side replicas of the two engine sweeps.
//!
//! Each replica makes the same public calls the engine makes — gather,
//! PG, SD, PU — in the same order and with the same RNG streams, so its
//! chain must end bit-identical to the engine's. The calls are wrapped in
//! [`Tracer`] spans; with [`Off`](crate::trace::Off) the replica is the
//! untimed reference loop behind `engine.overhead_ns_per_var`.

use coopmc_core::engine::PU_CYCLES;
use coopmc_core::pipeline::{CoopMcPipeline, PgBatch, PgOutput, ProbabilityPipeline};
use coopmc_models::coloring::ChromaticModel;
use coopmc_models::{GibbsModel, LabelScore};
use coopmc_rng::SplitMix64;
use coopmc_sampler::{SampleResult, SampleScratch, Sampler, TreeSampler};

use crate::trace::{Layer, Tracer};

/// Counts taken at the replica's layer boundaries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Variables resampled.
    pub updates: u64,
    /// Resampled variables whose label changed.
    pub flips: u64,
    /// Draws that took the sampler's uniform fallback.
    pub fallbacks: u64,
    /// PG calls (`generate_into` or `generate_batch_into`).
    pub pg_calls: u64,
    /// Rows evaluated by those calls.
    pub pg_rows: u64,
    /// Modeled PG cycles (op tally priced per op).
    pub pg_cycles: u64,
    /// Modeled sampler cycles.
    pub sd_cycles: u64,
    /// PG rows checked for finite, non-negative probabilities.
    pub rows_checked: u64,
    /// Checked rows holding a NaN, an infinity or a negative weight.
    pub bad_rows: u64,
}

impl Tally {
    /// Modeled accelerator cycles: PG + SD + `PU_CYCLES` per update.
    pub fn modeled_cycles(&self) -> u64 {
        self.pg_cycles + self.sd_cycles + PU_CYCLES * self.updates
    }
}

/// Whether every weight is finite and non-negative.
fn probs_ok(probs: &[f64]) -> bool {
    probs.iter().all(|p| p.is_finite() && *p >= 0.0)
}

/// Score rows captured from one sweep, for the replays.
#[derive(Debug, Default)]
pub struct Capture {
    /// Labels per row (every row of these workloads has the same width).
    pub width: usize,
    /// Row-major scores, `width` per captured variable.
    pub rows: Vec<LabelScore>,
}

impl Capture {
    fn push(&mut self, scores: &[LabelScore]) {
        if self.rows.is_empty() {
            self.width = scores.len();
        }
        assert_eq!(scores.len(), self.width, "ragged score rows");
        self.rows.extend_from_slice(scores);
    }
}

/// Replica of `GibbsEngine::sweep`: one RNG stream, in-place updates.
pub struct SeqReplica {
    pipeline: Box<dyn ProbabilityPipeline>,
    sampler: TreeSampler,
    rng: SplitMix64,
    scores: Vec<LabelScore>,
    pg: PgOutput,
    sd: SampleScratch,
    /// Counts since construction.
    pub tally: Tally,
    /// Check run: verify every PG row.
    pub check: bool,
    /// Rows captured by the next sweep, when set.
    pub capture: Option<Capture>,
}

impl SeqReplica {
    /// A replica drawing from `SplitMix64::new(seed)`, as the engine does.
    pub fn new(pipeline: Box<dyn ProbabilityPipeline>, seed: u64) -> Self {
        Self {
            pipeline,
            sampler: TreeSampler::new(),
            rng: SplitMix64::new(seed),
            scores: Vec::new(),
            pg: PgOutput::new(),
            sd: SampleScratch::new(),
            tally: Tally::default(),
            check: false,
            capture: None,
        }
    }

    /// One sweep over every variable.
    pub fn sweep<T: Tracer>(&mut self, model: &mut dyn GibbsModel, tr: &mut T) {
        tr.open(Layer::Sweep);
        for var in 0..model.num_variables() {
            if model.is_clamped(var) {
                continue;
            }
            let old = model.label(var);
            let t0 = tr.now();
            model.begin_resample(var);
            model.scores_into(var, &mut self.scores);
            let t1 = tr.now();
            tr.leaf(Layer::Gather, t0, t1);
            let t2 = tr.now();
            self.pipeline.generate_into(&self.scores, &mut self.pg);
            let t3 = tr.now();
            tr.leaf(Layer::Pg, t2, t3);
            let t4 = tr.now();
            let sample = self
                .sampler
                .sample_into(&self.pg.probs, &mut self.rng, &mut self.sd);
            let t5 = tr.now();
            tr.leaf(Layer::Sd, t4, t5);
            let t6 = tr.now();
            model.update(var, sample.label);
            let t7 = tr.now();
            tr.leaf(Layer::Pu, t6, t7);

            let t = &mut self.tally;
            t.updates += 1;
            t.flips += u64::from(sample.label != old);
            t.fallbacks += u64::from(sample.fallback);
            t.pg_calls += 1;
            t.pg_rows += 1;
            t.pg_cycles += self.pg.ops.sequential_cycles();
            t.sd_cycles += sample.cycles;
            if self.check {
                t.rows_checked += 1;
                t.bad_rows += u64::from(!probs_ok(&self.pg.probs));
            }
            if let Some(c) = self.capture.as_mut() {
                c.push(&self.scores);
            }
        }
        tr.close();
    }
}

/// Same `(seed, iteration, var)` derivation `ChromaticEngine` uses for
/// each draw, copied here so the replica draws the identical chain.
pub fn draw_rng(seed: u64, iteration: u64, var: usize) -> SplitMix64 {
    let mut mixer = SplitMix64::new(
        seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (var as u64).wrapping_mul(0xDEAD_BEEF_CAFE_F00D),
    );
    SplitMix64::new(mixer.derive())
}

/// Replica of `ChromaticEngine::run` on one thread: each colour class is
/// drawn from a snapshot in strides of `batch_rows` rows, then committed.
pub struct ChromReplica {
    pipeline: CoopMcPipeline,
    seed: u64,
    batch_rows: usize,
    sampler: TreeSampler,
    scores: Vec<LabelScore>,
    pg: PgOutput,
    batch: PgBatch,
    batch_scores: Vec<LabelScore>,
    batch_vars: Vec<usize>,
    draws: Vec<SampleResult>,
    sd: SampleScratch,
    out: Vec<(usize, usize)>,
    /// Counts since construction. Flips and modeled cycles are counted
    /// only in check runs: the unobserved engine does not take them.
    pub tally: Tally,
    /// Check run: verify every PG row and count flips and cycles.
    pub check: bool,
    /// Rows captured by the next sweep, when set.
    pub capture: Option<Capture>,
}

impl ChromReplica {
    /// A replica of an engine built with `seed` and stride `batch_rows`.
    pub fn new(pipeline: CoopMcPipeline, seed: u64, batch_rows: usize) -> Self {
        Self {
            pipeline,
            seed,
            batch_rows,
            sampler: TreeSampler::new(),
            scores: Vec::new(),
            pg: PgOutput::new(),
            batch: PgBatch::new(),
            batch_scores: Vec::new(),
            batch_vars: Vec::new(),
            draws: Vec::new(),
            sd: SampleScratch::new(),
            out: Vec::new(),
            tally: Tally::default(),
            check: false,
            capture: None,
        }
    }

    /// Sweep number `iteration` (0-based, as `ChromaticEngine::run` counts).
    pub fn sweep<M: ChromaticModel, T: Tracer>(
        &mut self,
        model: &mut M,
        classes: &[Vec<usize>],
        iteration: u64,
        tr: &mut T,
    ) {
        tr.open(Layer::Sweep);
        for class in classes {
            self.out.clear();
            let mut width = 0;
            for &var in class {
                if model.is_clamped(var) {
                    continue;
                }
                let t0 = tr.now();
                model.scores_into(var, &mut self.scores);
                let t1 = tr.now();
                tr.leaf(Layer::Gather, t0, t1);
                if let Some(c) = self.capture.as_mut() {
                    c.push(&self.scores);
                }
                let batchable = !self.scores.is_empty()
                    && self
                        .scores
                        .iter()
                        .all(|s| matches!(s, LabelScore::LogDomain(_)));
                if !batchable {
                    self.draw_scalar(var, iteration, tr);
                    continue;
                }
                if !self.batch_vars.is_empty() && self.scores.len() != width {
                    self.flush(width, iteration, tr);
                }
                width = self.scores.len();
                self.batch_scores.extend_from_slice(&self.scores);
                self.batch_vars.push(var);
                if self.batch_vars.len() == self.batch_rows {
                    self.flush(width, iteration, tr);
                }
            }
            self.flush(width, iteration, tr);
            for &(var, label) in &self.out {
                if self.check {
                    self.tally.flips += u64::from(label != model.label(var));
                }
                let t0 = tr.now();
                model.update(var, label);
                let t1 = tr.now();
                tr.leaf(Layer::Pu, t0, t1);
            }
            self.tally.updates += self.out.len() as u64;
        }
        tr.close();
    }

    fn draw_scalar<T: Tracer>(&mut self, var: usize, iteration: u64, tr: &mut T) {
        let t0 = tr.now();
        self.pipeline.generate_into(&self.scores, &mut self.pg);
        let t1 = tr.now();
        tr.leaf(Layer::Pg, t0, t1);
        let mut rng = draw_rng(self.seed, iteration, var);
        let t2 = tr.now();
        let sample = self
            .sampler
            .sample_into(&self.pg.probs, &mut rng, &mut self.sd);
        let t3 = tr.now();
        tr.leaf(Layer::Sd, t2, t3);
        self.out.push((var, sample.label));
        let t = &mut self.tally;
        t.fallbacks += u64::from(sample.fallback);
        t.pg_calls += 1;
        t.pg_rows += 1;
        if self.check {
            t.pg_cycles += self.pg.ops.sequential_cycles();
            t.sd_cycles += sample.cycles;
            t.rows_checked += 1;
            t.bad_rows += u64::from(!probs_ok(&self.pg.probs));
        }
    }

    fn flush<T: Tracer>(&mut self, width: usize, iteration: u64, tr: &mut T) {
        if self.batch_vars.is_empty() {
            return;
        }
        let t0 = tr.now();
        self.pipeline
            .generate_batch_into(&self.batch_scores, width, &mut self.batch);
        let t1 = tr.now();
        tr.leaf(Layer::PgBatch, t0, t1);
        let (seed, vars) = (self.seed, &self.batch_vars);
        let t2 = tr.now();
        self.sampler.sample_rows_into(
            &self.batch.probs,
            width,
            |row| draw_rng(seed, iteration, vars[row]),
            &mut self.draws,
            &mut self.sd,
        );
        let t3 = tr.now();
        tr.leaf(Layer::SdRows, t2, t3);
        let t = &mut self.tally;
        t.pg_calls += 1;
        t.pg_rows += vars.len() as u64;
        for (&var, draw) in vars.iter().zip(&self.draws) {
            self.out.push((var, draw.label));
            t.fallbacks += u64::from(draw.fallback);
        }
        if self.check {
            for ((row, ops), draw) in self
                .batch
                .probs
                .chunks_exact(width)
                .zip(&self.batch.ops)
                .zip(&self.draws)
            {
                t.pg_cycles += ops.sequential_cycles();
                t.sd_cycles += draw.cycles;
                t.rows_checked += 1;
                t.bad_rows += u64::from(!probs_ok(row));
            }
        }
        self.batch_scores.clear();
        self.batch_vars.clear();
    }
}
