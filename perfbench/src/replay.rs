//! Replays of single layers on inputs captured from one sweep.
//!
//! Each replay pass is one trace: a `Replay` root with one child span per
//! pass over the captured inputs, so the per-element cost is the child's
//! self time divided by the elements it processed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use coopmc_core::pipeline::{PgBatch, PgOutput, ProbabilityPipeline};
use coopmc_kernels::dynorm::dynorm_apply;
use coopmc_kernels::exp::TableExp;
use coopmc_kernels::log::{LogKernel, TableLog};
use coopmc_models::LabelScore;

use crate::replica::Capture;
use crate::trace::{Layer, Spans, Tracer};
use crate::workload::{LUT_BITS, LUT_SIZE, NORM_PIPELINES};

/// Run `pass` as `layer` spans until `budget` is spent (at least 3
/// passes); returns the median ns of one pass, derived from the spans.
fn passes(spans: &mut Spans, layer: Layer, budget: Duration, mut pass: impl FnMut()) -> f64 {
    let mut per_pass = Vec::new();
    let start = Instant::now();
    while per_pass.len() < 3 || start.elapsed() < budget {
        let before = spans.self_ns(layer);
        spans.open(Layer::Replay);
        let t0 = spans.now();
        pass();
        let t1 = spans.now();
        spans.leaf(layer, t0, t1);
        spans.close();
        per_pass.push((spans.self_ns(layer) - before) as f64);
    }
    crate::stats::median(&per_pass)
}

/// Per-element costs of the replayed layers, in ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCosts {
    /// `TableLog` log per linear-domain factor (0 when the workload has
    /// no factors).
    pub log_per_factor: f64,
    /// Factors the log replay converted per pass.
    pub factors: usize,
    /// `dynorm_apply` per row.
    pub dynorm_per_row: f64,
    /// `TableExp::exp_batch_into` per element.
    pub exp_per_elem: f64,
    /// `generate_into` per row.
    pub pg_per_var: f64,
    /// `generate_batch_into` per row at the engine stride.
    pub pg_batch_per_row: f64,
}

/// Replay the kernels and both PG entry points on `cap`, spending about
/// `budget` on each. `stride` is the rows per `exp_batch_into` call (the
/// rows the engine hands PG per call).
pub fn replay(
    cap: &Capture,
    pipeline: &dyn ProbabilityPipeline,
    batch_rows: usize,
    stride: usize,
    spans: &mut Spans,
    budget: Duration,
) -> ReplayCosts {
    let width = cap.width;
    let n_rows = cap.rows.len() / width;
    let log = TableLog::new(LUT_SIZE, LUT_BITS.min(46));
    let exp = TableExp::new(LUT_SIZE, LUT_BITS);

    // Linear-domain factors, and the fused log rows LogFusion builds from
    // them; log-domain rows pass through.
    let mut factors = Vec::new();
    let mut log_rows = Vec::with_capacity(cap.rows.len());
    for s in &cap.rows {
        match s {
            LabelScore::LogDomain(v) => log_rows.push(*v),
            LabelScore::Factors {
                numerators,
                denominators,
            } => {
                factors.extend_from_slice(numerators);
                factors.extend_from_slice(denominators);
                let num: f64 = numerators.iter().map(|&x| log.log(x)).sum();
                let den: f64 = denominators.iter().map(|&x| log.log(x)).sum();
                log_rows.push(num - den);
            }
        }
    }

    let mut out = ReplayCosts {
        factors: factors.len(),
        ..ReplayCosts::default()
    };
    if !factors.is_empty() {
        let ns = passes(spans, Layer::KernelLog, budget, || {
            let mut acc = 0.0;
            for &x in &factors {
                acc += log.log(black_box(x));
            }
            black_box(acc);
        });
        out.log_per_factor = ns / factors.len() as f64;
    }

    // DyNorm in place: after the first pass every row's max is 0, and the
    // later passes repeat the same tree and subtraction work.
    let ns = passes(spans, Layer::KernelDynorm, budget, || {
        for row in log_rows.chunks_exact_mut(width) {
            black_box(dynorm_apply(row, NORM_PIPELINES));
        }
    });
    out.dynorm_per_row = ns / n_rows as f64;

    let mut exp_out = vec![0.0; log_rows.len()];
    let call = width * stride;
    let ns = passes(spans, Layer::KernelExp, budget, || {
        for (xs, o) in log_rows.chunks(call).zip(exp_out.chunks_mut(call)) {
            exp.exp_batch_into(xs, o);
        }
        black_box(&exp_out);
    });
    out.exp_per_elem = ns / log_rows.len() as f64;

    let mut pg = PgOutput::new();
    let ns = passes(spans, Layer::Pg, budget, || {
        for row in cap.rows.chunks_exact(width) {
            pipeline.generate_into(row, &mut pg);
            black_box(&pg.probs);
        }
    });
    out.pg_per_var = ns / n_rows as f64;

    let mut batch = PgBatch::new();
    let ns = passes(spans, Layer::PgBatch, budget, || {
        for rows in cap.rows.chunks(width * batch_rows) {
            pipeline.generate_batch_into(rows, width, &mut batch);
            black_box(&batch.probs);
        }
    });
    out.pg_batch_per_row = ns / n_rows as f64;
    out
}
