//! Logarithm kernels used by LogFusion.
//!
//! LogFusion (§III-C) converts every linear-domain factor through a log
//! kernel before accumulation. As with the exponential, the paper's design
//! point is a LUT-based kernel; the float and approximation-based variants
//! exist as baselines.

use coopmc_fixed::{Fixed, QFormat, Rounding};

/// Value returned for `log(x)` when `x <= 0` or `x` is NaN: the most
/// negative value a Q15.16 log bus can carry. A zero factor makes the whole
/// product zero; saturating the log keeps that behaviour through the exp
/// kernel (which flushes such inputs to zero).
pub const LOG_ZERO: f64 = -32768.0;

/// A natural-logarithm kernel.
pub trait LogKernel {
    /// Evaluate `ln(x)`.
    ///
    /// Non-finite and non-positive inputs follow one contract across all
    /// kernels: `x <= 0` (including `-0.0` and `-∞`) and NaN saturate to
    /// [`LOG_ZERO`], so a NaN factor carries zero mass, as it does in
    /// `FloatPipeline`. `+∞` returns the kernel's largest output: `+∞`
    /// for [`FloatLog`], the output bus maximum for the fixed-point
    /// kernels. Subnormal inputs are ordinary positive inputs.
    fn log(&self, x: f64) -> f64;

    /// The fixed-point format every output of [`LogKernel::log`] lies in
    /// (on its grid, inside its range, and never `-0.0` or NaN), or `None`
    /// when the outputs are not confined to one (the float reference).
    /// [`crate::fusion::LogFusion`] uses it to prove that its
    /// accumulator-bus requantization of each output is the identity.
    fn output_format(&self) -> Option<QFormat> {
        None
    }

    /// Latency of one evaluation in cycles.
    fn latency_cycles(&self) -> u64;

    /// Short human-readable kernel name for reports.
    fn name(&self) -> &'static str;
}

/// Full-precision reference logarithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloatLog;

impl FloatLog {
    /// Create the reference kernel.
    pub fn new() -> Self {
        Self
    }
}

impl LogKernel for FloatLog {
    fn log(&self, x: f64) -> f64 {
        if x > 0.0 {
            x.ln()
        } else {
            LOG_ZERO
        }
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::LOG_APPROX_CYCLES
    }

    fn name(&self) -> &'static str {
        "float-log"
    }
}

/// Approximation-based fixed-point logarithm ALU (the DN+LF design point of
/// Table III: a 32-bit approximation-function-based kernel).
///
/// Input and output ride a fixed-point bus with `frac_bits` fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedLog {
    fmt: QFormat,
}

impl FixedLog {
    /// A kernel quantizing input and output to `frac_bits` fractional bits
    /// (15 integer bits, Q15.f bus).
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits` is 0 or `frac_bits + 15` exceeds 62.
    pub fn new(frac_bits: u32) -> Self {
        Self {
            fmt: QFormat::new(15, frac_bits).expect("valid log bus format"),
        }
    }
}

impl LogKernel for FixedLog {
    fn log(&self, x: f64) -> f64 {
        let xq = Fixed::from_f64(x, self.fmt, Rounding::Nearest).to_f64();
        if xq <= 0.0 {
            return LOG_ZERO;
        }
        // Hardware structure: priority encoder extracts the exponent e and
        // mantissa m in [1, 2); a second fold maps m into [0.75, 1.5) so the
        // polynomial argument stays small. ln(x) = e*ln2 + poly(m-1).
        let mut e = xq.log2().floor();
        let mut m = xq / e.exp2();
        if m >= 1.5 {
            m /= 2.0;
            e += 1.0;
        }
        let t = m - 1.0; // in [-0.25, 0.5)
                         // Degree-5 Taylor of ln(1+t): max error ~1.8e-3 at t=0.5, below the
                         // output quantization for the bus widths the paper sweeps.
        let poly = t - t * t / 2.0 + t.powi(3) / 3.0 - t.powi(4) / 4.0 + t.powi(5) / 5.0;
        let val = e * std::f64::consts::LN_2 + poly;
        Fixed::from_f64(val, self.fmt, Rounding::Nearest).to_f64()
    }

    fn output_format(&self) -> Option<QFormat> {
        Some(self.fmt)
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::LOG_APPROX_CYCLES
    }

    fn name(&self) -> &'static str {
        "fixed-approx-log"
    }
}

/// LUT-based logarithm kernel: the log-side counterpart of TableExp.
///
/// Exponent extraction is a priority encoder (free in hardware); only the
/// mantissa's `ln` lives in a ROM of `size_lut` entries, each quantized to
/// `bit_lut` fractional bits. The output is `e·ln2 + ROM[mantissa]` computed
/// on the fixed-point accumulator bus.
///
/// In software the exponent and mantissa come straight from the `f64` bit
/// fields: `e` is the unbiased exponent and `m ∈ [1, 2)` is the mantissa
/// with the exponent forced to zero. The reference definition is
/// `e = floor(log2 x)`, `m = x / 2^e`. The two agree except where libm's
/// `log2` can round across an integer: for `|e| ≤ 1074` the result's ulp is
/// at most 2⁻⁴², so only mantissas within 2⁻⁴⁰ of a power of two are at
/// risk. Those inputs, together with subnormals and non-finite values,
/// take the reference formula. The result is bit-identical to it.
#[derive(Debug, Clone, PartialEq)]
pub struct TableLog {
    entries: Vec<f64>,
    /// `entries.len()` as an `f64`, the mantissa-to-index scale.
    size: f64,
    bit_lut: u32,
    out_fmt: QFormat,
}

impl TableLog {
    /// Build a mantissa-log table with `size_lut` entries of `bit_lut`
    /// fractional bits each.
    ///
    /// # Panics
    ///
    /// Panics if `size_lut == 0` or `bit_lut` is 0 or above 46.
    pub fn new(size_lut: usize, bit_lut: u32) -> Self {
        assert!(size_lut > 0, "size_lut must be positive");
        assert!((1..=46).contains(&bit_lut), "bit_lut must be in 1..=46");
        // Entries cover ln(m) for m in [1, 2): values in [0, ln 2).
        let entries = (0..size_lut)
            .map(|k| {
                let m = 1.0 + k as f64 / size_lut as f64;
                // ln(m) in [0, ln2): quantize onto the bit_lut grid.
                coopmc_fixed::quantize_unsigned(m.ln(), bit_lut, 1u64 << bit_lut)
            })
            .collect();
        let out_fmt = QFormat::new(15, bit_lut.min(46)).expect("valid log output format");
        Self {
            size: size_lut as f64,
            entries,
            bit_lut,
            out_fmt,
        }
    }

    /// Number of ROM entries.
    pub fn size_lut(&self) -> usize {
        self.entries.len()
    }

    /// Fractional bits per ROM entry.
    pub fn bit_lut(&self) -> u32 {
        self.bit_lut
    }

    /// Total ROM capacity in bits.
    pub fn rom_bits(&self) -> u64 {
        self.entries.len() as u64 * self.bit_lut as u64
    }
}

/// Mantissa field of an `f64`.
const MANTISSA_MASK: u64 = (1 << 52) - 1;

/// Bit pattern of `1.0`: OR-ed with a mantissa field it gives `m ∈ [1, 2)`.
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;

/// Guard band, in mantissa ulps: 2⁻⁴⁰ of a power of two.
const GUARD: u64 = 1 << 12;

impl TableLog {
    /// Reference path: subnormals, non-finite inputs and the guard band.
    #[cold]
    fn log_reference(&self, x: f64) -> f64 {
        if x.is_nan() || x <= 0.0 {
            return LOG_ZERO;
        }
        let e = x.log2().floor();
        let m = x / e.exp2();
        self.rom_log(e, ((m - 1.0) * self.size).floor() as usize)
    }

    /// `e·ln2 + ROM[idx]`, requantized onto the output bus.
    #[inline]
    fn rom_log(&self, e: f64, idx: usize) -> f64 {
        let idx = idx.min(self.entries.len() - 1);
        self.out_fmt
            .requantize_nearest(e * std::f64::consts::LN_2 + self.entries[idx])
    }
}

impl LogKernel for TableLog {
    #[inline]
    fn log(&self, x: f64) -> f64 {
        let bits = x.to_bits();
        // The sign bit is part of `biased`, so only positive normals pass
        // the first test (biased exponent 1..=2046).
        let biased = bits >> 52;
        let frac = bits & MANTISSA_MASK;
        if biased.wrapping_sub(1) < 2046 && frac.wrapping_sub(GUARD) <= (1 << 52) - 2 * GUARD {
            let m = f64::from_bits(frac | ONE_BITS);
            // The product lies in [0, size], so truncation is the floor.
            let idx = ((m - 1.0) * self.size) as i64 as usize;
            self.rom_log(biased as f64 - 1023.0, idx)
        } else {
            self.log_reference(x)
        }
    }

    fn output_format(&self) -> Option<QFormat> {
        Some(self.out_fmt)
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::LUT_CYCLES
    }

    fn name(&self) -> &'static str {
        "table-log"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_log_reference_and_saturation() {
        let k = FloatLog::new();
        assert_eq!(k.log(1.0), 0.0);
        assert_eq!(k.log(0.0), LOG_ZERO);
        assert_eq!(k.log(-3.0), LOG_ZERO);
    }

    #[test]
    fn fixed_log_accurate_at_high_precision() {
        let k = FixedLog::new(24);
        for x in [0.001, 0.5, 1.0, 7.25, 1000.0] {
            let err = (k.log(x) - x.ln()).abs();
            assert!(err < 2e-2, "x={x} err={err}");
        }
    }

    #[test]
    fn table_log_accurate_with_large_table() {
        let k = TableLog::new(1024, 24);
        for x in [0.01, 0.3, 1.0, 2.5, 100.0] {
            let err = (k.log(x) - x.ln()).abs();
            assert!(err < 2e-3, "x={x} err={err}");
        }
    }

    #[test]
    fn table_log_handles_zero_factor() {
        let k = TableLog::new(64, 8);
        assert_eq!(k.log(0.0), LOG_ZERO);
    }

    #[test]
    fn table_log_is_monotone_nondecreasing() {
        let k = TableLog::new(128, 16);
        let mut prev = f64::NEG_INFINITY;
        let mut x = 0.01;
        while x < 50.0 {
            let y = k.log(x);
            assert!(y >= prev - 1e-9, "non-monotone at x={x}");
            prev = y;
            x *= 1.13;
        }
    }

    #[test]
    fn log_exp_round_trip_through_luts() {
        // TableLog then TableExp should approximately invert for values in
        // (0, 1]: the core LogFusion correctness property.
        let lg = TableLog::new(1024, 16);
        let ex = crate::exp::TableExp::new(1024, 16);
        use crate::exp::ExpKernel;
        for v in [0.9, 0.5, 0.11, 0.027] {
            let back = ex.exp(lg.log(v));
            assert!((back - v).abs() < 0.03, "v={v} back={back}");
        }
    }

    #[test]
    fn non_finite_and_extreme_inputs_follow_the_contract() {
        let table = TableLog::new(64, 8);
        let float = FloatLog::new();
        let fixed = FixedLog::new(16);
        let kernels: [&dyn LogKernel; 3] = [&table, &float, &fixed];
        // NaN, -inf and both zeros carry zero mass in every kernel.
        for x in [f64::NAN, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
            for k in kernels {
                assert_eq!(
                    k.log(x).to_bits(),
                    LOG_ZERO.to_bits(),
                    "{} at {x}",
                    k.name()
                );
            }
        }
        let pin = |k: &dyn LogKernel, x: f64, want: f64| {
            assert_eq!(k.log(x).to_bits(), want.to_bits(), "{} at {x:e}", k.name());
        };
        // +inf saturates to the output bus maximum (Q15.8 for 64x8).
        pin(&table, f64::INFINITY, 32767.99609375);
        pin(&table, 5e-324, -744.44140625);
        pin(&table, f64::MIN_POSITIVE, -708.39453125);
        pin(&table, f64::MAX, 709.78125);
        pin(&float, f64::INFINITY, f64::INFINITY);
        for x in [5e-324, f64::MIN_POSITIVE, f64::MAX] {
            pin(&float, x, x.ln());
        }
        // The fixed-point kernel quantizes its input first: inputs below
        // the Q15.16 grid are zero, inputs above it saturate.
        pin(&fixed, 5e-324, LOG_ZERO);
        pin(&fixed, f64::MIN_POSITIVE, LOG_ZERO);
        pin(&fixed, f64::INFINITY, 10.397201538085938);
        pin(&fixed, f64::MAX, 10.397201538085938);
    }

    #[test]
    fn rom_bits_reported() {
        assert_eq!(TableLog::new(256, 16).rom_bits(), 4096);
    }

    #[test]
    #[should_panic(expected = "size_lut")]
    fn empty_table_panics() {
        let _ = TableLog::new(0, 8);
    }
}
