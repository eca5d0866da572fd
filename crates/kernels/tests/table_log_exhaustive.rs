//! Bit-identity of the TableLog fast path and the LogFusion factor loop.
//!
//! `TableLog::log` reads the exponent and mantissa from the `f64` bit
//! fields, and `LogFusion` accumulates factor logs in `f64` with a clamp.
//! Both replace a slower reference form: `floor(log2 x)` plus a divide,
//! and a `Fixed` saturating accumulator. This file keeps frozen copies of
//! those reference forms and compares the shipped code against them with
//! `to_bits`. The one intended difference is a NaN input: the reference
//! log returned `0.0` (a NaN factor counted as 1), the kernel returns
//! `LOG_ZERO` (zero mass).

use coopmc_fixed::{quantize_unsigned, Fixed, QFormat, Rounding};
use coopmc_kernels::exp::FloatExp;
use coopmc_kernels::fusion::{FactorExpr, LogFusion};
use coopmc_kernels::log::{LogKernel, TableLog, LOG_ZERO};
use coopmc_rng::{HwRng, SplitMix64};

mod common;
use common::configs;

/// The `TableLog` of the reference form, frozen.
struct FrozenTableLog {
    entries: Vec<f64>,
    out_fmt: QFormat,
}

impl FrozenTableLog {
    fn new(size_lut: usize, bit_lut: u32) -> Self {
        let entries = (0..size_lut)
            .map(|k| {
                let m = 1.0 + k as f64 / size_lut as f64;
                quantize_unsigned(m.ln(), bit_lut, 1u64 << bit_lut)
            })
            .collect();
        Self {
            entries,
            out_fmt: QFormat::new(15, bit_lut.min(46)).unwrap(),
        }
    }

    fn log(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return LOG_ZERO;
        }
        let e = x.log2().floor();
        let m = x / e.exp2(); // in [1, 2)
        let idx = ((m - 1.0) * self.entries.len() as f64).floor() as usize;
        let idx = idx.min(self.entries.len() - 1);
        let val = e * std::f64::consts::LN_2 + self.entries[idx];
        Fixed::from_f64(val, self.out_fmt, Rounding::Nearest).to_f64()
    }

    /// The reference log with the NaN contract of the shipped kernel.
    fn log_nan_fixed(&self, x: f64) -> f64 {
        if x.is_nan() {
            LOG_ZERO
        } else {
            self.log(x)
        }
    }
}

/// The `Fixed` accumulator loop of the reference form, frozen: one
/// saturating add per numerator log, one saturating subtract per
/// denominator log.
fn frozen_accumulate(log: &FrozenTableLog, acc_fmt: QFormat, exprs: &[FactorExpr]) -> Vec<f64> {
    exprs
        .iter()
        .map(|e| {
            let mut acc = Fixed::zero(acc_fmt);
            for &a in &e.numerators {
                acc = acc + Fixed::from_f64(log.log_nan_fixed(a), acc_fmt, Rounding::Nearest);
            }
            for &b in &e.denominators {
                acc = acc - Fixed::from_f64(log.log_nan_fixed(b), acc_fmt, Rounding::Nearest);
            }
            acc.to_f64()
        })
        .collect()
}

/// `m · 2^e` for a mantissa `m ∈ [1, 2)` and `e ∈ [-1074, 1023]`, rounded
/// once (into the subnormal range when `e < -1022`).
fn scale(m: f64, e: i32) -> f64 {
    if e >= -1022 {
        m * f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        (m * f64::from_bits(((e + 600 + 1023) as u64) << 52))
            * f64::from_bits(((1023 - 600) as u64) << 52)
    }
}

/// Compare the kernel against the frozen reference on `x`; returns 1 on a
/// mismatch so callers can count and report.
fn check(new: &TableLog, old: &FrozenTableLog, x: f64, what: &str) -> u64 {
    let got = new.log(x);
    let want = if x.is_nan() { LOG_ZERO } else { old.log(x) };
    if got.to_bits() == want.to_bits() {
        0
    } else {
        eprintln!(
            "{what}: x = {x:e} ({:#018x}) kernel {got:e} reference {want:e}",
            x.to_bits()
        );
        1
    }
}

#[test]
fn table_log_is_bit_identical_to_the_reference_formula() {
    let mut rng = SplitMix64::new(0x7ab1_e106);
    let mut widest: Vec<(usize, u32)> = Vec::new();
    let (mut inputs, mut bad) = (0u64, 0u64);
    for (size, bit) in configs() {
        let new = TableLog::new(size, bit);
        let old = FrozenTableLog::new(size, bit);
        // Every power of two, and three ulps either side of it: the only
        // places libm's log2 can round across an integer.
        for e in -1074..=1023 {
            let p = scale(1.0, e);
            let (mut up, mut down) = (p, p);
            bad += check(&new, &old, p, "power of two");
            for _ in 0..3 {
                up = up.next_up();
                down = down.next_down();
                bad += check(&new, &old, up, "above a power of two");
                bad += check(&new, &old, down, "below a power of two");
            }
            inputs += 7;
        }
        // Random bit patterns: every sign, exponent and mantissa, NaN and
        // infinities included.
        let n = if (size, bit) == (64, 8) {
            1 << 20
        } else {
            1 << 14
        };
        for _ in 0..n {
            bad += check(&new, &old, f64::from_bits(rng.next_u64()), "random bits");
        }
        inputs += n;
        match widest.iter_mut().find(|(s, _)| *s == size) {
            Some(w) => w.1 = w.1.max(bit),
            None => widest.push((size, bit)),
        }
    }
    // Every LUT index, at its start and one ulp either side, across every
    // exponent. The index only depends on the table size, so each size runs
    // once, at its finest output grid.
    for (size, bit) in widest {
        let new = TableLog::new(size, bit);
        let old = FrozenTableLog::new(size, bit);
        for k in 0..size {
            let m = 1.0 + k as f64 / size as f64;
            for e in -1074..=1023 {
                let x = scale(m, e);
                bad += check(&new, &old, x, "index start");
                bad += check(&new, &old, x.next_down(), "below an index start");
                bad += check(&new, &old, x.next_up(), "above an index start");
                inputs += 3;
            }
        }
    }
    assert!(inputs > 10_000_000, "only {inputs} inputs checked");
    assert_eq!(bad, 0, "{bad} of {inputs} inputs differ from the reference");
}

/// A factor drawn to exercise the accumulator: ordinary probabilities and
/// counts, exact zeros and tiny/huge magnitudes (both saturation edges),
/// and raw bit patterns (negatives, NaN, infinities, subnormals).
fn factor(rng: &mut SplitMix64) -> f64 {
    let u = rng.next_u64();
    match u % 8 {
        0 => 0.0,
        1 => f64::from_bits(rng.next_u64()),
        2 => scale(1.0 + (u >> 12) as f64 / (1u64 << 52) as f64, -1074),
        3 => f64::MAX / (1 + (u >> 40)) as f64,
        4 => ((u >> 20) % 5000) as f64 + 0.1,
        _ => (u >> 11) as f64 / (1u64 << 53) as f64,
    }
}

#[test]
fn factor_loop_is_bit_identical_to_the_fixed_accumulator() {
    let mut rng = SplitMix64::new(0x0acc_0001);
    let formats = [
        QFormat::baseline32(),
        QFormat::new(15, 24).unwrap(),
        QFormat::new(15, 30).unwrap(),
        QFormat::new(7, 8).unwrap(),
        QFormat::new(3, 4).unwrap(),
    ];
    let mut rows = 0usize;
    for (size, bit) in configs() {
        let old = FrozenTableLog::new(size, bit);
        for acc_fmt in formats {
            let fusion = LogFusion::new(TableLog::new(size, bit), FloatExp::new(), acc_fmt, 1)
                .without_dynorm();
            let (mut work, mut probs) = (Vec::new(), Vec::new());
            for _ in 0..8 {
                let labels = 1 + (rng.next_u64() % 16) as usize;
                let exprs: Vec<FactorExpr> = (0..labels)
                    .map(|_| {
                        let n = (rng.next_u64() % 5) as usize;
                        let d = (rng.next_u64() % 4) as usize;
                        FactorExpr::ratio(
                            (0..n).map(|_| factor(&mut rng)).collect(),
                            (0..d).map(|_| factor(&mut rng)).collect(),
                        )
                    })
                    .collect();
                let ops = fusion.evaluate_factor_rows_into(
                    exprs.iter().map(FactorExpr::row),
                    &mut work,
                    &mut probs,
                    None,
                    None,
                );
                let want = frozen_accumulate(&old, acc_fmt, &exprs);
                let got_bits: Vec<u64> = work.iter().map(|v| v.to_bits()).collect();
                let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got_bits, want_bits,
                    "{size}x{bit} on {acc_fmt:?}: {work:?} vs {want:?} for {exprs:?}"
                );
                let factors: u64 = exprs
                    .iter()
                    .map(|e| (e.numerators.len() + e.denominators.len()) as u64)
                    .sum();
                assert_eq!(ops.log_lut, factors);
                assert_eq!(ops.lut, factors + labels as u64);
                assert_eq!(ops.add, factors);
                rows += labels;
            }
        }
    }
    assert!(rows > 1000, "only {rows} rows checked");
}
