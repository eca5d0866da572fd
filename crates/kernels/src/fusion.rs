//! Log-Domain Kernel Fusion (LogFusion) and the direct multiply/divide
//! baseline datapath.
//!
//! LogFusion (paper §III-C, Eq. 11) evaluates
//!
//! ```text
//!   Π a_i / Π b_j  =  exp( Σ log a_i  −  Σ log b_j )
//! ```
//!
//! replacing `#num + #denom` multiplications/divisions with the same number
//! of additions/subtractions, one log conversion per factor and one exp
//! conversion per output — and, crucially, eliminating the divider from the
//! PG datapath entirely. DyNorm sits between the accumulation and the exp
//! kernel so the exp inputs are always in range.

use std::time::Instant;

use coopmc_fixed::{Fixed, QFormat, Rounding};

use crate::cost::OpCounts;
use crate::dynorm::{dynorm_apply, dynorm_apply_rows};
use crate::exp::{ExpKernel, TableExp};
use crate::log::LogKernel;
use crate::telemetry::PgTelemetry;

/// Per-stage wall times of fused PG evaluations, filled for the kernel
/// profiler when an evaluation is handed `Some(phases)`.
///
/// Stage names follow the datapath order: `log` is the log-kernel lookup
/// of every linear-domain factor, `normalize` the accumulator-bus
/// arithmetic/requantization feeding the bus, `dynorm` the NormTree
/// max-shift, `exp` the TableExp lookup. Times accumulate across calls so
/// one `StagePhases` can cover a whole sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagePhases {
    /// True once any timed evaluation has run; lets callers distinguish
    /// "no stage decomposition available" from "stages took 0 ns".
    pub active: bool,
    /// Log-kernel lookups of linear-domain factors, quantized onto the
    /// accumulator bus, ns (0 for log-domain scores).
    pub log_ns: u64,
    /// Accumulator-bus arithmetic / requantization, ns.
    pub normalize_ns: u64,
    /// DyNorm NormTree max-shift, ns.
    pub dynorm_ns: u64,
    /// Exp-kernel evaluation, ns.
    pub exp_ns: u64,
}

impl StagePhases {
    /// Fold another stage split into this one.
    pub fn merge(&mut self, other: &StagePhases) {
        self.active |= other.active;
        self.log_ns += other.log_ns;
        self.normalize_ns += other.normalize_ns;
        self.dynorm_ns += other.dynorm_ns;
        self.exp_ns += other.exp_ns;
    }
}

/// Charge the time since `since` to one stage of `phases` and restart the
/// stage clock; `None` (and no clock read) when the call is unprofiled.
fn lap(
    phases: &mut Option<&mut StagePhases>,
    since: Option<Instant>,
    stage: fn(&mut StagePhases) -> &mut u64,
) -> Option<Instant> {
    let (p, since) = (phases.as_deref_mut()?, since?);
    let now = Instant::now();
    *stage(p) += now.duration_since(since).as_nanos() as u64;
    Some(now)
}

/// Start the stage clock of a timed evaluation (marking it active).
fn start(phases: &mut Option<&mut StagePhases>) -> Option<Instant> {
    phases.as_deref_mut().map(|p| {
        p.active = true;
        Instant::now()
    })
}

/// One element of a probability vector expressed as a product of linear
/// domain factors divided by another product (Eq. 11's numerators `a_i` and
/// denominators `b_j`).
///
/// A Bayesian-network label score is a product of CPT entries
/// (denominator-free); an LDA label score is
/// `(DT + α)(VT + β) / (ΣVT + βV)` — one denominator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FactorExpr {
    /// Linear-domain numerator factors `a_i`.
    pub numerators: Vec<f64>,
    /// Linear-domain denominator factors `b_j`.
    pub denominators: Vec<f64>,
}

impl FactorExpr {
    /// A score that is a plain product of `numerators`.
    pub fn product(numerators: Vec<f64>) -> Self {
        Self {
            numerators,
            denominators: Vec::new(),
        }
    }

    /// A score with both numerator and denominator factors.
    pub fn ratio(numerators: Vec<f64>, denominators: Vec<f64>) -> Self {
        Self {
            numerators,
            denominators,
        }
    }

    /// The expression as a borrowed `(numerators, denominators)` row, the
    /// form the factor datapaths iterate.
    pub fn row(&self) -> (&[f64], &[f64]) {
        (&self.numerators, &self.denominators)
    }

    /// Exact real value of the expression (float reference).
    pub fn reference_value(&self) -> f64 {
        let num: f64 = self.numerators.iter().product();
        let den: f64 = self.denominators.iter().product();
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

/// The fused log-domain PG datapath: log kernels → fixed-point
/// accumulation → DyNorm → exp kernel.
#[derive(Debug, Clone)]
pub struct LogFusion<L, E> {
    log: L,
    exp: E,
    acc_fmt: QFormat,
    /// Whether each log output needs its accumulator-bus requantization;
    /// false when [`LogFusion::new`] proved that step is the identity.
    requantize_logs: bool,
    pipelines: usize,
    dynorm: bool,
}

impl<L: LogKernel, E: ExpKernel> LogFusion<L, E> {
    /// Build a fused datapath.
    ///
    /// * `log`, `exp` — the conversion kernels (typically
    ///   [`crate::log::TableLog`] and [`crate::exp::TableExp`]).
    /// * `acc_fmt` — the fixed-point format of the log-domain accumulator
    ///   bus (the paper's DN+LF design uses Q15.16).
    /// * `pipelines` — number of parallel PG pipelines sharing the NormTree.
    ///
    /// # Panics
    ///
    /// Panics if `pipelines == 0`, or if `acc_fmt` has more than 52
    /// integer + fractional bits: the bus is modeled in `f64`, where every
    /// sum of two bus values is exact only up to that width.
    pub fn new(log: L, exp: E, acc_fmt: QFormat, pipelines: usize) -> Self {
        assert!(pipelines > 0, "pipeline count must be positive");
        assert!(
            acc_fmt.int_bits() + acc_fmt.frac_bits() <= 52,
            "accumulator bus must fit an f64 mantissa"
        );
        // A log output format no wider than the bus on either side puts
        // every output on the bus grid and inside the bus range, so the
        // bus snap returns it unchanged (log kernels never emit -0.0 or
        // NaN, the two values the snap would rewrite).
        let requantize_logs = !log.output_format().is_some_and(|out| {
            out.int_bits() <= acc_fmt.int_bits() && out.frac_bits() <= acc_fmt.frac_bits()
        });
        Self {
            log,
            exp,
            acc_fmt,
            requantize_logs,
            pipelines,
            dynorm: true,
        }
    }

    /// Disable DyNorm (used by the ablation showing LogFusion alone fails at
    /// low precision — the co-dependence the paper's intro stresses).
    pub fn without_dynorm(mut self) -> Self {
        self.dynorm = false;
        self
    }

    /// The factor datapath itself: evaluate one label per borrowed
    /// `(numerators, denominators)` row, with no copy of the factors.
    ///
    /// Stage `log` looks up every factor, row by row and numerators
    /// first, and quantizes it onto the accumulator bus — a step skipped
    /// when the log kernel's output format already fits the bus, where it
    /// is the identity. Stage `normalize` sums each row's logs on the bus,
    /// `Σ log a_i − Σ log b_j`, saturating after every add exactly as a
    /// fixed-point adder would. DyNorm and the exp kernel follow.
    ///
    /// `work` holds the log-domain accumulator values between accumulation
    /// and the exp stage; `probs` receives the output vector. Both are
    /// cleared first and only grow if shorter than needed — with warmed
    /// buffers the evaluation is allocation-free. `telemetry` (DyNorm/exp
    /// kernel observations for the run journal; a plain stack accumulator)
    /// and `phases` (per-stage wall times for the kernel profiler, with no
    /// clock read when `None`) are recorded when given; neither changes the
    /// result. The other two entry points share this contract.
    pub fn evaluate_factor_rows_into<'r, I>(
        &self,
        rows: I,
        work: &mut Vec<f64>,
        probs: &mut Vec<f64>,
        telemetry: Option<&mut PgTelemetry>,
        mut phases: Option<&mut StagePhases>,
    ) -> OpCounts
    where
        I: IntoIterator<Item = (&'r [f64], &'r [f64])>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        let t0 = start(&mut phases);
        let bus = self.acc_fmt;
        let (n_rows, n_factors) = rows.clone().fold((0, 0), |(r, f), (num, den)| {
            (r + 1, f + num.len() + den.len())
        });
        work.clear();
        work.resize(n_rows + n_factors, 0.0);
        let (scores, logs) = work.split_at_mut(n_rows);
        let mut slots = logs.iter_mut();
        for (num, den) in rows.clone() {
            for (&x, slot) in num.iter().chain(den).zip(slots.by_ref()) {
                *slot = self.log.log(x);
            }
        }
        if self.requantize_logs {
            for l in logs.iter_mut() {
                *l = bus.requantize_nearest(*l);
            }
        }
        let t1 = lap(&mut phases, t0, |p| &mut p.log_ns);
        // Both operands sit on the bus grid, so each f64 sum is exact and
        // the clamp is the adder's saturation.
        let (lo, hi) = (bus.min_value(), bus.max_value());
        let mut logs = logs.iter();
        for ((num, den), score) in rows.zip(scores.iter_mut()) {
            let mut acc = 0.0;
            for &l in logs.by_ref().take(num.len()) {
                acc = (acc + l).clamp(lo, hi);
            }
            for &l in logs.by_ref().take(den.len()) {
                acc = (acc - l).clamp(lo, hi);
            }
            *score = acc;
        }
        work.truncate(n_rows);
        lap(&mut phases, t1, |p| &mut p.normalize_ns);
        let n_factors = n_factors as u64;
        let mut ops = OpCounts {
            lut: n_factors,
            log_lut: n_factors,
            add: n_factors,
            ..OpCounts::new()
        };
        self.finish_into(work, probs, &mut ops, telemetry, phases);
        ops
    }

    /// Evaluate a label vector whose scores are already in the log domain
    /// (e.g. MRF energies `-β·TC`): skips the log kernels. Same contract as
    /// [`LogFusion::evaluate_factor_rows_into`].
    pub fn evaluate_log_scores_into(
        &self,
        scores: &[f64],
        work: &mut Vec<f64>,
        probs: &mut Vec<f64>,
        telemetry: Option<&mut PgTelemetry>,
        mut phases: Option<&mut StagePhases>,
    ) -> OpCounts {
        let mut ops = OpCounts::new();
        let t0 = start(&mut phases);
        work.clear();
        work.extend(scores.iter().map(|&s| self.acc_fmt.requantize_nearest(s)));
        lap(&mut phases, t0, |p| &mut p.normalize_ns);
        self.finish_into(work, probs, &mut ops, telemetry, phases);
        ops
    }

    fn finish_into(
        &self,
        scores: &mut [f64],
        probs: &mut Vec<f64>,
        ops: &mut OpCounts,
        telemetry: Option<&mut PgTelemetry>,
        mut phases: Option<&mut StagePhases>,
    ) {
        probs.clear();
        if scores.is_empty() {
            return;
        }
        let t0 = phases.as_deref().map(|_| Instant::now());
        if self.dynorm {
            let report = dynorm_apply(scores, self.pipelines);
            ops.cmp += report.comparisons;
            ops.add += scores.len() as u64; // the broadcast subtraction
            if let Some(t) = telemetry {
                t.observe_norm_max(report.max);
                for &s in scores.iter() {
                    t.observe_exp_input(s);
                }
            }
        } else if let Some(t) = telemetry {
            for &s in scores.iter() {
                t.observe_exp_input(s);
            }
        }
        let t1 = lap(&mut phases, t0, |p| &mut p.dynorm_ns);
        probs.extend(scores.iter().map(|&s| {
            ops.lut += 1;
            self.exp.exp(s)
        }));
        lap(&mut phases, t1, |p| &mut p.exp_ns);
    }
}

impl<L: LogKernel> LogFusion<L, TableExp> {
    /// Evaluate a whole batch of same-width log-domain score rows in one
    /// call: the vector datapath behind `generate_batch_into`.
    ///
    /// `scores` is row-major (`scores.len() / width` rows of exactly
    /// `width` labels). The result is **bit-identical** to calling
    /// [`LogFusion::evaluate_log_scores_into`] once per row: the
    /// same per-score accumulator quantization, the same per-row DyNorm
    /// fold, and the same ROM entries — only fused into one quantize pass,
    /// one [`dynorm_apply_rows`] sweep and one lane-packed
    /// [`TableExp::exp_batch_into`] gather over the contiguous buffer.
    ///
    /// `probs` receives the concatenated per-row probability vectors and
    /// `ops_per_row` one tally per row (matching the scalar path's
    /// per-call [`OpCounts`] exactly, so modeled cycle totals are
    /// batching-invariant). All output buffers are cleared first; with
    /// warmed buffers the evaluation is allocation-free. `telemetry` and
    /// `phases` as for [`LogFusion::evaluate_factor_rows_into`].
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `scores.len()` is not a multiple of
    /// `width`.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_log_score_rows_into(
        &self,
        scores: &[f64],
        width: usize,
        work: &mut Vec<f64>,
        probs: &mut Vec<f64>,
        ops_per_row: &mut Vec<OpCounts>,
        mut telemetry: Option<&mut PgTelemetry>,
        mut phases: Option<&mut StagePhases>,
    ) {
        assert!(width > 0, "row width must be positive");
        assert_eq!(
            scores.len() % width,
            0,
            "batch length must be a multiple of the row width"
        );
        let t0 = start(&mut phases);
        // Stage 1: the accumulator-bus quantization, identical per score.
        work.clear();
        work.extend(scores.iter().map(|&s| self.acc_fmt.requantize_nearest(s)));
        ops_per_row.clear();
        probs.clear();
        let t1 = lap(&mut phases, t0, |p| &mut p.normalize_ns);
        if scores.is_empty() {
            return;
        }
        // Stage 2: per-row DyNorm (one NormTree fold per row, in order).
        if self.dynorm {
            dynorm_apply_rows(work, width, self.pipelines, |_, report| {
                let ops = OpCounts {
                    add: width as u64, // the broadcast subtraction
                    lut: width as u64, // the exp gathers below
                    cmp: report.comparisons,
                    ..OpCounts::new()
                };
                ops_per_row.push(ops);
                if let Some(t) = telemetry.as_deref_mut() {
                    t.observe_norm_max(report.max);
                }
            });
        } else {
            let ops = OpCounts {
                lut: width as u64,
                ..OpCounts::new()
            };
            for _ in 0..scores.len() / width {
                ops_per_row.push(ops);
            }
        }
        if let Some(t) = telemetry {
            for &s in work.iter() {
                t.observe_exp_input(s);
            }
        }
        let t2 = lap(&mut phases, t1, |p| &mut p.dynorm_ns);
        // Stage 3: one gathered TableExp lookup over the whole batch.
        probs.resize(scores.len(), 0.0);
        self.exp.exp_batch_into(work, probs);
        lap(&mut phases, t2, |p| &mut p.exp_ns);
    }
}

/// The direct (non-fused) baseline datapath: fixed-point multiplier and
/// divider chains, as in previous accelerators.
#[derive(Debug, Clone, Copy)]
pub struct DirectDatapath {
    fmt: QFormat,
}

impl DirectDatapath {
    /// A direct datapath on a fixed-point bus of format `fmt`
    /// (the paper's baseline is 32-bit, [`QFormat::baseline32`]).
    pub fn new(fmt: QFormat) -> Self {
        Self { fmt }
    }

    /// Evaluate one label per borrowed `(numerators, denominators)` row
    /// with explicit multiply/divide sequences into `probs` (cleared
    /// first); allocation-free once `probs` has capacity for every row.
    pub fn evaluate_factor_rows_into<'r>(
        &self,
        rows: impl IntoIterator<Item = (&'r [f64], &'r [f64])>,
        probs: &mut Vec<f64>,
    ) -> OpCounts {
        let mut ops = OpCounts::new();
        probs.clear();
        for (num, den) in rows {
            let mut acc = Fixed::one(self.fmt);
            for &a in num {
                acc = acc * Fixed::from_f64(a, self.fmt, Rounding::Nearest);
                ops.mul += 1;
            }
            for &b in den {
                acc = acc / Fixed::from_f64(b, self.fmt, Rounding::Nearest);
                ops.div += 1;
            }
            probs.push(acc.to_f64().max(0.0));
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{FloatExp, TableExp};
    use crate::log::{FloatLog, TableLog};

    fn acc() -> QFormat {
        QFormat::baseline32()
    }

    /// The fused factor datapath into fresh buffers, untraced.
    fn fused<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        exprs: &[FactorExpr],
    ) -> (Vec<f64>, OpCounts) {
        let (mut work, mut probs) = (Vec::new(), Vec::new());
        let ops = fusion.evaluate_factor_rows_into(
            exprs.iter().map(FactorExpr::row),
            &mut work,
            &mut probs,
            None,
            None,
        );
        (probs, ops)
    }

    /// The fused log-score datapath into fresh buffers, with telemetry.
    fn fused_log<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        scores: &[f64],
        telemetry: &mut PgTelemetry,
    ) -> (Vec<f64>, OpCounts) {
        let (mut work, mut probs) = (Vec::new(), Vec::new());
        let ops =
            fusion.evaluate_log_scores_into(scores, &mut work, &mut probs, Some(telemetry), None);
        (probs, ops)
    }

    fn direct(exprs: &[FactorExpr]) -> (Vec<f64>, OpCounts) {
        let mut probs = Vec::new();
        let ops = DirectDatapath::new(acc())
            .evaluate_factor_rows_into(exprs.iter().map(FactorExpr::row), &mut probs);
        (probs, ops)
    }

    #[test]
    fn factor_expr_reference_value() {
        let e = FactorExpr::ratio(vec![0.5, 0.4], vec![0.1]);
        assert!((e.reference_value() - 2.0).abs() < 1e-12);
        assert_eq!(
            FactorExpr::ratio(vec![1.0], vec![0.0]).reference_value(),
            0.0
        );
    }

    #[test]
    fn bus_requantization_is_skipped_only_when_provably_the_identity() {
        let q7_8 = QFormat::new(7, 8).unwrap();
        let table = |size, bit, bus| {
            LogFusion::new(TableLog::new(size, bit), FloatExp::new(), bus, 1).requantize_logs
        };
        // Q15.8 outputs sit on the Q15.16 grid and inside its range.
        assert!(!table(64, 8, acc()));
        // Q15.32 outputs are finer than the Q15.16 grid.
        assert!(table(1024, 32, acc()));
        // Q15.8 outputs overflow the Q7.8 range.
        assert!(table(64, 8, q7_8));
        // The float reference promises no output grid at all.
        for bus in [acc(), q7_8] {
            assert!(LogFusion::new(FloatLog::new(), FloatExp::new(), bus, 1).requantize_logs);
        }
    }

    #[test]
    fn fused_float_kernels_match_reference_ratios() {
        // With float log/exp kernels the fused result must match the direct
        // ratio up to accumulator quantization.
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc(), 4);
        let exprs = vec![
            FactorExpr::ratio(vec![0.5, 0.8], vec![0.9]),
            FactorExpr::ratio(vec![0.3, 0.6], vec![0.9]),
        ];
        let (probs, _) = fused(&fusion, &exprs);
        // DyNorm rescales both by the same constant: ratios are preserved.
        let got = probs[0] / probs[1];
        let want = exprs[0].reference_value() / exprs[1].reference_value();
        assert!((got - want).abs() / want < 1e-3, "got {got} want {want}");
    }

    #[test]
    fn fused_lut_kernels_preserve_argmax_and_ordering() {
        let fusion = LogFusion::new(TableLog::new(128, 16), TableExp::new(128, 16), acc(), 4);
        let exprs: Vec<FactorExpr> = [0.02, 0.5, 0.1, 0.31]
            .iter()
            .map(|&p| FactorExpr::product(vec![p, 0.7]))
            .collect();
        let (probs, _) = fused(&fusion, &exprs);
        let argmax = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 1);
        assert!(probs[3] > probs[2]);
        assert!(probs[2] > probs[0]);
    }

    #[test]
    fn dynorm_pins_best_label_at_one_through_table_exp() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 4);
        // Tiny probabilities that would all flush to zero without DyNorm.
        let exprs: Vec<FactorExpr> = [1e-6, 3e-6, 2e-6]
            .iter()
            .map(|&p| FactorExpr::product(vec![p]))
            .collect();
        let (probs, _) = fused(&fusion, &exprs);
        assert_eq!(probs[1], 1.0, "best label must map to exp(0) = 1");
        assert!(probs.iter().all(|&p| p > 0.0), "{probs:?}");
    }

    #[test]
    fn without_dynorm_low_precision_flushes_everything() {
        let fusion =
            LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 4).without_dynorm();
        let exprs: Vec<FactorExpr> = [1e-6, 3e-6, 2e-6]
            .iter()
            .map(|&p| FactorExpr::product(vec![p]))
            .collect();
        let (probs, _) = fused(&fusion, &exprs);
        assert!(
            probs.iter().all(|&p| p == 0.0),
            "tiny probs must flush without DyNorm: {probs:?}"
        );
    }

    #[test]
    fn log_scores_path_skips_log_kernels() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 2);
        let (probs, ops) = fused_log(&fusion, &[-10.0, -9.0, -12.0], &mut PgTelemetry::new());
        assert_eq!(probs[1], 1.0);
        // one lut per exp, none per log
        assert_eq!(ops.lut, 3);
    }

    #[test]
    fn op_counts_match_factor_structure() {
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc(), 1);
        let exprs = vec![FactorExpr::ratio(vec![0.5, 0.5, 0.5], vec![0.25, 0.75])];
        let (_, ops) = fused(&fusion, &exprs);
        // 5 log lookups + 1 exp lookup, 5 adds + 1 dynorm subtract
        assert_eq!(ops.lut, 6);
        assert_eq!(ops.add, 6);
    }

    #[test]
    fn direct_datapath_matches_reference_for_benign_values() {
        let (probs, ops) = direct(&[FactorExpr::ratio(vec![0.5, 0.5], vec![0.125])]);
        assert!((probs[0] - 2.0).abs() < 1e-3);
        assert_eq!(ops.mul, 2);
        assert_eq!(ops.div, 1);
    }

    #[test]
    fn direct_datapath_underflows_on_long_products() {
        // §III-C: long multiply sequences underflow in fixed point; this is
        // what LogFusion fixes.
        let exprs = vec![FactorExpr::product(vec![1e-3; 6])];
        let (probs, _) = direct(&exprs);
        assert_eq!(probs[0], 0.0, "product of six 1e-3 must underflow Q15.16");
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc(), 1);
        let (probs, _) = fused(&fusion, &exprs);
        assert!(probs[0] > 0.0, "LogFusion+DyNorm must not underflow");
    }

    #[test]
    fn zero_factor_yields_zero_probability() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 2);
        let exprs = vec![
            FactorExpr::product(vec![0.0, 0.5]),
            FactorExpr::product(vec![0.5, 0.5]),
        ];
        let (probs, _) = fused(&fusion, &exprs);
        assert_eq!(probs[0], 0.0, "a zero factor must kill the label");
        assert!(probs[1] > 0.0);
    }

    #[test]
    fn empty_vector_is_empty() {
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc(), 1);
        assert!(fused(&fusion, &[]).0.is_empty());
        assert!(fused_log(&fusion, &[], &mut PgTelemetry::new())
            .0
            .is_empty());
    }

    #[test]
    fn batched_rows_are_bit_identical_to_per_row_scalar_calls() {
        // Cover both SWAR (64 ≤ 255 entries) and scalar-fallback (1024)
        // exp tables, several widths (ragged vs the 8-lane packing) and
        // pipeline counts (multi-pass NormTree folds included).
        for (size, bit) in [(64u32, 8u32), (1024, 24)] {
            for (width, pipelines) in [(2usize, 4usize), (3, 1), (8, 4), (13, 4)] {
                let fusion = LogFusion::new(
                    TableLog::new(size as usize, bit),
                    TableExp::new(size as usize, bit),
                    acc(),
                    pipelines,
                );
                let rows = 7;
                let flat: Vec<f64> = (0..rows * width)
                    .map(|i| -(((i * 13) % 29) as f64) * 0.61 - 0.01)
                    .collect();
                let (mut work, mut probs, mut ops_rows) = (Vec::new(), Vec::new(), Vec::new());
                let mut batched_tel = PgTelemetry::new();
                fusion.evaluate_log_score_rows_into(
                    &flat,
                    width,
                    &mut work,
                    &mut probs,
                    &mut ops_rows,
                    Some(&mut batched_tel),
                    None,
                );
                assert_eq!(probs.len(), rows * width);
                assert_eq!(ops_rows.len(), rows);
                let mut scalar_tel = PgTelemetry::new();
                for (row, chunk) in flat.chunks_exact(width).enumerate() {
                    let (p, ops) = fused_log(&fusion, chunk, &mut scalar_tel);
                    assert_eq!(
                        probs[row * width..(row + 1) * width],
                        p[..],
                        "{size}x{bit} width {width} row {row}"
                    );
                    assert_eq!(
                        ops_rows[row], ops,
                        "{size}x{bit} width {width} row {row} ops"
                    );
                }
                assert_eq!(
                    batched_tel, scalar_tel,
                    "{size}x{bit} width {width} telemetry"
                );
            }
        }
    }

    #[test]
    fn batched_rows_without_dynorm_match_scalar_too() {
        let fusion =
            LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 4).without_dynorm();
        let width = 4;
        let flat: Vec<f64> = (0..width * 3).map(|i| -(i as f64) * 0.9).collect();
        let (mut work, mut probs, mut ops_rows) = (Vec::new(), Vec::new(), Vec::new());
        fusion.evaluate_log_score_rows_into(
            &flat,
            width,
            &mut work,
            &mut probs,
            &mut ops_rows,
            None,
            None,
        );
        for (row, chunk) in flat.chunks_exact(width).enumerate() {
            let (p, ops) = fused_log(&fusion, chunk, &mut PgTelemetry::new());
            assert_eq!(probs[row * width..(row + 1) * width], p[..]);
            assert_eq!(ops_rows[row], ops);
        }
    }

    #[test]
    fn phased_evaluation_is_bit_identical_and_fills_phases() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 4);
        let scores = [-10.0, -9.0, -12.0, -11.5];

        let mut tel1 = PgTelemetry::new();
        let (p1, ops1) = fused_log(&fusion, &scores, &mut tel1);

        let (mut w2, mut p2, mut tel2) = (Vec::new(), Vec::new(), PgTelemetry::new());
        let mut phases = StagePhases::default();
        let ops2 = fusion.evaluate_log_scores_into(
            &scores,
            &mut w2,
            &mut p2,
            Some(&mut tel2),
            Some(&mut phases),
        );
        assert_eq!(p1, p2);
        assert_eq!(ops1, ops2);
        assert_eq!(tel1, tel2);
        assert!(phases.active, "a timed call must mark phases active");

        // The batched rows path agrees too.
        let (mut wb, mut pb, mut opsb) = (Vec::new(), Vec::new(), Vec::new());
        let mut bphases = StagePhases::default();
        fusion.evaluate_log_score_rows_into(
            &scores,
            scores.len(),
            &mut wb,
            &mut pb,
            &mut opsb,
            None,
            Some(&mut bphases),
        );
        assert_eq!(p1, pb);
        assert_eq!(vec![ops1], opsb);
        assert!(bphases.active);

        // Factor expressions fill phases through the same plumbing.
        let exprs = vec![FactorExpr::product(vec![0.5, 0.7])];
        let (mut wf, mut pf, mut telf) = (Vec::new(), Vec::new(), PgTelemetry::new());
        let mut fphases = StagePhases::default();
        let fops = fusion.evaluate_factor_rows_into(
            exprs.iter().map(FactorExpr::row),
            &mut wf,
            &mut pf,
            Some(&mut telf),
            Some(&mut fphases),
        );
        let (plain, plain_ops) = fused(&fusion, &exprs);
        assert_eq!(pf, plain);
        assert_eq!(fops, plain_ops);
        assert!(fphases.active);
        assert!(fphases.log_ns > 0, "the factor path times its log stage");
    }

    #[test]
    fn batched_rows_reuse_dirty_buffers_correctly() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 4);
        let (mut work, mut probs, mut ops_rows) = (Vec::new(), Vec::new(), Vec::new());
        let mut tel = PgTelemetry::new();
        // A big first batch leaves stale content behind...
        let big: Vec<f64> = (0..40).map(|i| -(i as f64)).collect();
        fusion.evaluate_log_score_rows_into(
            &big,
            8,
            &mut work,
            &mut probs,
            &mut ops_rows,
            Some(&mut tel),
            None,
        );
        // ...which a smaller second batch must fully overwrite.
        let small = [-1.0, -2.0, -3.0, -4.0];
        let mut tel2 = PgTelemetry::new();
        fusion.evaluate_log_score_rows_into(
            &small,
            2,
            &mut work,
            &mut probs,
            &mut ops_rows,
            Some(&mut tel2),
            None,
        );
        assert_eq!(probs.len(), 4);
        assert_eq!(ops_rows.len(), 2);
        let (p, _) = fused_log(&fusion, &small[..2], &mut PgTelemetry::new());
        assert_eq!(probs[..2], p[..]);
    }
}
