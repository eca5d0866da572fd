//! Exponential kernels.
//!
//! Probability Generation turns log-domain scores into (unnormalized)
//! probabilities through an exponential kernel. The paper compares three
//! implementations:
//!
//! - a float reference ([`FloatExp`]),
//! - the 32-bit (or narrower) fixed-point approximation-based ALU used by
//!   previous accelerators ([`FixedExp`]), and
//! - the LUT-based [`TableExp`] enabled by DyNorm (Eq. 10).

use coopmc_fixed::{lane, quantize_unsigned, QFormat};

/// An exponential kernel mapping a (log-domain) score to `e^x`.
///
/// Implementations model a hardware datapath: they quantize their input
/// and/or output exactly as the modelled circuit would. Inputs are expected
/// to be `<= 0` in normal operation (DyNorm guarantees this); implementations
/// define their own saturation behaviour for positive inputs.
pub trait ExpKernel {
    /// Evaluate the kernel on `x`.
    fn exp(&self, x: f64) -> f64;

    /// Latency of one evaluation in cycles.
    fn latency_cycles(&self) -> u64;

    /// Short human-readable kernel name for reports.
    fn name(&self) -> &'static str;
}

/// Full-precision reference exponential (the "Float32" baseline curves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloatExp;

impl FloatExp {
    /// Create the reference kernel.
    pub fn new() -> Self {
        Self
    }
}

impl ExpKernel for FloatExp {
    fn exp(&self, x: f64) -> f64 {
        x.exp()
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::EXP_APPROX_CYCLES
    }

    fn name(&self) -> &'static str {
        "float-exp"
    }
}

/// The approximation-based fixed-point exponential ALU of previous
/// accelerator designs.
///
/// The input is quantized onto a fixed-point grid with `frac_bits`
/// fractional bits, the exponential is evaluated by range reduction
/// (`e^x = 2^k · e^r`) plus a degree-4 polynomial on the reduced argument —
/// the classic shift-and-polynomial hardware structure — and the output is
/// re-quantized to `frac_bits` fractional bits. With few fractional bits,
/// outputs below `2^-frac_bits` flush to zero: exactly the failure mode
/// Fig. 2 demonstrates for un-normalized inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedExp {
    in_fmt: QFormat,
    out_frac_bits: u32,
}

impl FixedExp {
    /// A kernel with `frac_bits` fractional bits on both input and output,
    /// and 15 integer bits on the input (the paper's Q15.16-style split).
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits` is 0 or `frac_bits + 15` exceeds 62.
    pub fn new(frac_bits: u32) -> Self {
        let in_fmt = QFormat::new(15, frac_bits).expect("valid exp input format");
        Self {
            in_fmt,
            out_frac_bits: frac_bits,
        }
    }

    /// Fractional bits of the output grid.
    pub fn frac_bits(&self) -> u32 {
        self.out_frac_bits
    }

    /// The polynomial approximation on the range-reduced argument
    /// `r ∈ [-ln2/2, ln2/2]`: a degree-4 minimax-style expansion.
    fn poly(r: f64) -> f64 {
        // Taylor around 0; |error| < 6e-5 on the reduced range, far below
        // the output quantization for every precision the paper sweeps.
        1.0 + r + r * r / 2.0 + r * r * r / 6.0 + r * r * r * r / 24.0
    }
}

impl ExpKernel for FixedExp {
    fn exp(&self, x: f64) -> f64 {
        // Input quantization (the value arriving on the input bus).
        let xq = self.in_fmt.requantize_nearest(x);
        // Range reduction: x = k*ln2 + r.
        let k = (xq / std::f64::consts::LN_2).round();
        let r = xq - k * std::f64::consts::LN_2;
        let val = Self::poly(r) * (k as i32 as f64).exp2();
        // Output quantization: unsigned, max 2^15 to mirror the Q15.16 bus.
        let max_raw = (1u64 << self.out_frac_bits) << 15;
        quantize_unsigned(val, self.out_frac_bits, max_raw)
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::EXP_APPROX_CYCLES
    }

    fn name(&self) -> &'static str {
        "fixed-approx-exp"
    }
}

/// The paper's LUT-based exponential kernel (Eq. 10).
///
/// Inputs must be non-positive (DyNorm guarantees this). A negative input
/// `x` quantizes to `k = floor(-x / step_lut)`; the output is the ROM entry
/// `exp(-k·step_lut)` quantized to `bit_lut` fractional bits, or zero when
/// `k >= size_lut`. The default `step_lut` is `16 / size_lut` (the paper's
/// choice: inputs rarely fall below −16 after DyNorm).
#[derive(Debug, Clone, PartialEq)]
pub struct TableExp {
    entries: Vec<f64>,
    step: f64,
    bit_lut: u32,
}

impl TableExp {
    /// The SWAR primitives the packed [`TableExp::exp_batch_into`] address
    /// path is built on. The `lane-datapath` section of `coopmc-verify`
    /// asserts its theorems cover every member, so a kernel change that
    /// pulls in a new primitive fails verification until the analyzer
    /// covers it too.
    pub const BATCH_LANE_PRIMITIVES: &'static [lane::Primitive] = &[
        lane::Primitive::Pack8,
        lane::Primitive::Unpack8,
        lane::Primitive::Splat8,
        lane::Primitive::LaneGe,
        lane::Primitive::LaneSelect,
    ];

    /// Build a table with `size_lut` entries of `bit_lut` fractional bits
    /// each, with the default step `16 / size_lut`.
    ///
    /// # Panics
    ///
    /// Panics if `size_lut == 0` or `bit_lut` is 0 or above 52.
    pub fn new(size_lut: usize, bit_lut: u32) -> Self {
        Self::with_range(size_lut, bit_lut, 16.0)
    }

    /// Build a table covering inputs down to `-range` (i.e.
    /// `step_lut = range / size_lut`). Used by the step-size ablation.
    ///
    /// # Panics
    ///
    /// Panics if `size_lut == 0`, `bit_lut` is 0 or above 52, or `range` is
    /// not strictly positive.
    pub fn with_range(size_lut: usize, bit_lut: u32, range: f64) -> Self {
        assert!(size_lut > 0, "size_lut must be positive");
        assert!((1..=52).contains(&bit_lut), "bit_lut must be in 1..=52");
        assert!(range > 0.0, "range must be positive");
        let step = range / size_lut as f64;
        let max_raw = 1u64 << bit_lut; // entries are in (0, 1]
        let entries = (0..size_lut)
            .map(|k| quantize_unsigned((-(k as f64) * step).exp(), bit_lut, max_raw))
            .collect();
        Self {
            entries,
            step,
            bit_lut,
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

    /// Quantization step between adjacent inputs.
    pub fn step_lut(&self) -> f64 {
        self.step
    }

    /// Total ROM capacity in bits (drives the area model).
    pub fn rom_bits(&self) -> u64 {
        self.entries.len() as u64 * self.bit_lut as u64
    }

    /// Read entry `k` directly (`None` past the end — hardware returns 0).
    pub fn entry(&self, k: usize) -> Option<f64> {
        self.entries.get(k).copied()
    }

    /// The input coverage of the ROM: inputs in `(-lut_range, 0]` resolve
    /// to an entry, anything below flushes to zero. Equals
    /// `step_lut · size_lut`.
    pub fn lut_range(&self) -> f64 {
        self.step * self.entries.len() as f64
    }

    /// Output-grid step of the ROM entries, `2^-bit_lut`.
    pub fn output_ulp(&self) -> f64 {
        coopmc_fixed::unsigned_resolution(self.bit_lut)
    }

    /// Worst-case error from quantizing an ideal entry value onto the
    /// `bit_lut`-bit output grid (round-to-nearest: half an ulp).
    pub fn output_quantization_error(&self) -> f64 {
        coopmc_fixed::unsigned_rounding_error(self.bit_lut)
    }

    /// Worst-case *absolute* error of the step (floor-index) addressing
    /// against the true exponential, before output quantization:
    /// `sup_{x ≤ 0} |e^{-⌊-x/step⌋·step} - e^x| = 1 - e^{-step}`,
    /// attained as `x` approaches the first knot from below.
    pub fn step_error_bound(&self) -> f64 {
        -(-self.step).exp_m1()
    }

    /// Worst-case *relative* step error against the true exponential:
    /// the selected entry over-reads `e^x` by at most the factor
    /// `e^step - 1` (`entry/e^x - 1 ≤ e^step - 1`). The error-propagation
    /// pass scales this by each label's probability mass, which is what
    /// makes the end-to-end total-variation bound independent of how many
    /// labels carry negligible mass.
    pub fn step_error_factor(&self) -> f64 {
        self.step.exp_m1()
    }

    /// Probability mass at the flush-to-zero edge: inputs below
    /// `-lut_range` read 0 while the true exponential still carries up to
    /// `e^-lut_range`.
    pub fn flush_tail_mass(&self) -> f64 {
        (-self.lut_range()).exp()
    }

    /// Worst-case absolute error of the full kernel against `e^x` over all
    /// `x ≤ 0`: the step error plus output quantization inside the domain,
    /// or the discarded tail mass beyond it (the flushed output 0 is
    /// on-grid, so no quantization error applies there).
    pub fn worst_case_abs_error(&self) -> f64 {
        (self.step_error_bound() + self.output_quantization_error()).max(self.flush_tail_mass())
    }

    /// ROM address of input `x`, saturated into a byte.
    ///
    /// `0` for non-negative (and NaN) inputs, `floor(-x/step)` otherwise,
    /// with everything at or above 255 pinned to 255. Addresses at or past
    /// the table length mean "flush to zero"; the SWAR clamp in
    /// [`TableExp::exp_batch_into`] folds them all onto the length itself,
    /// so pinning at 255 loses nothing when the table has ≤ 255 entries.
    #[inline]
    fn byte_address(&self, x: f64) -> u8 {
        if x >= 0.0 {
            return 0;
        }
        // `q` is ≥ 0 or NaN here, so `q ≥ 255 ⟺ floor(q) ≥ 255` and the
        // truncating cast below is the floor. NaN compares false and casts
        // to 0 — the same entry-0 read the scalar path performs.
        let q = -x / self.step;
        if q >= 255.0 {
            255
        } else {
            q as u8
        }
    }

    /// Evaluate the kernel over a batch: `out[i] = self.exp(xs[i])`,
    /// **bit-identical** to element-wise [`ExpKernel::exp`] calls.
    ///
    /// Both paths resolve the same floor-index ROM address per input and
    /// read the same quantized entry. Tables with at most 255 entries take
    /// the lane-packed path: per `chunks_exact` group of 8 inputs, the
    /// byte addresses are packed into one `u64`, range-clamped with a
    /// single SWAR compare/select against the table length, and gathered
    /// from the ROM — the software analogue of eight parallel ROM ports.
    /// Larger tables and the ragged tail run a plain scalar loop the
    /// compiler can autovectorize.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != xs.len()`.
    pub fn exp_batch_into(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(
            xs.len(),
            out.len(),
            "exp_batch_into requires matching input/output lengths"
        );
        let len = self.entries.len();
        if len > u8::MAX as usize {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = self.exp(x);
            }
            return;
        }
        // The address one past the last entry doubles as the flush code.
        let flush = len as u8;
        let limit = lane::splat8(flush);
        let packed = xs.len() - xs.len() % lane::LANES;
        for (chunk, out_chunk) in xs[..packed]
            .chunks_exact(lane::LANES)
            .zip(out[..packed].chunks_exact_mut(lane::LANES))
        {
            let mut codes = [0u8; lane::LANES];
            for (c, &x) in codes.iter_mut().zip(chunk) {
                *c = self.byte_address(x);
            }
            let word = lane::pack8(codes);
            // One compare/select clamps all out-of-range addresses to the
            // flush code.
            let clamped = lane::lane_select(lane::lane_ge(word, limit), limit, word);
            for (o, c) in out_chunk.iter_mut().zip(lane::unpack8(clamped)) {
                *o = if c == flush {
                    0.0
                } else {
                    self.entries[c as usize]
                };
            }
        }
        for (o, &x) in out[packed..].iter_mut().zip(&xs[packed..]) {
            *o = self.exp(x);
        }
    }
}

impl ExpKernel for TableExp {
    fn exp(&self, x: f64) -> f64 {
        if x >= 0.0 {
            // DyNorm pins the maximum input at exactly 0; positive inputs
            // cannot occur in-circuit, so saturate at entry 0.
            return self.entries[0];
        }
        // `q` is ≥ 0 or NaN here, so `q ≥ len ⟺ floor(q) ≥ len` and the
        // truncating cast is the floor; NaN compares false and casts to 0
        // (entry 0). The divide stays: it keeps non-power-of-two steps
        // exact.
        let q = -x / self.step;
        if q >= self.entries.len() as f64 {
            0.0
        } else {
            self.entries[q as usize]
        }
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::LUT_CYCLES
    }

    fn name(&self) -> &'static str {
        "table-exp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_exp_is_reference() {
        let k = FloatExp::new();
        assert_eq!(k.exp(0.0), 1.0);
        assert!((k.exp(-1.0) - (-1.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn fixed_exp_flushes_small_outputs_to_zero() {
        // 4 fractional bits: anything below 2^-5 rounds to 0.
        let k = FixedExp::new(4);
        assert_eq!(k.exp(-6.0), 0.0, "exp(-6) ~ 2.5e-3 < 2^-5 must flush");
        assert!(k.exp(-1.0) > 0.0);
    }

    #[test]
    fn fixed_exp_accurate_at_high_precision() {
        let k = FixedExp::new(24);
        for x in [-10.0, -3.2, -0.5, 0.0] {
            let err = (k.exp(x) - x.exp()).abs();
            assert!(err < 1e-4, "x={x} err={err}");
        }
    }

    #[test]
    fn fixed_exp_output_is_on_grid() {
        let k = FixedExp::new(8);
        let y = k.exp(-2.345);
        let scaled = y * 256.0;
        assert_eq!(scaled, scaled.round(), "output must sit on the 2^-8 grid");
    }

    #[test]
    fn table_exp_matches_eq_10() {
        let t = TableExp::new(1024, 32);
        let step = 16.0 / 1024.0;
        assert_eq!(t.step_lut(), step);
        // k = floor(-x / step); entry = exp(-k*step)
        let x = -0.5;
        let k = (0.5 / step).floor();
        let expected = (-(k * step)).exp();
        assert!((t.exp(x) - expected).abs() < 1e-9);
    }

    #[test]
    fn table_exp_zero_beyond_table() {
        let t = TableExp::new(64, 8);
        assert_eq!(t.exp(-16.0), 0.0);
        assert_eq!(t.exp(-100.0), 0.0);
    }

    #[test]
    fn table_exp_positive_inputs_saturate_to_first_entry() {
        let t = TableExp::new(64, 8);
        assert_eq!(t.exp(0.0), 1.0);
        assert_eq!(t.exp(0.5), 1.0);
    }

    #[test]
    fn table_exp_is_monotone_nonincreasing() {
        let t = TableExp::new(128, 16);
        let mut prev = f64::INFINITY;
        let mut x = 0.0;
        while x > -17.0 {
            let y = t.exp(x);
            assert!(y <= prev + 1e-12, "non-monotone at x={x}");
            prev = y;
            x -= 0.037;
        }
    }

    #[test]
    fn table_exp_entries_quantized_to_bit_lut() {
        let t = TableExp::new(16, 4);
        for k in 0..16 {
            let e = t.entry(k).unwrap();
            let scaled = e * 16.0;
            assert_eq!(scaled, scaled.round(), "entry {k} off-grid");
        }
        assert_eq!(t.entry(16), None);
    }

    #[test]
    fn error_model_constants_are_consistent() {
        let t = TableExp::new(1024, 32);
        assert_eq!(t.lut_range(), 16.0);
        assert_eq!(t.output_ulp(), (2.0f64).powi(-32));
        assert_eq!(t.output_quantization_error(), t.output_ulp() / 2.0);
        // 1 - e^-step < step < e^step - 1: the absolute bound is tighter
        // than the raw step, the relative factor looser.
        assert!(t.step_error_bound() < t.step_lut());
        assert!(t.step_error_factor() > t.step_error_bound());
        assert!((t.flush_tail_mass() - (-16.0f64).exp()).abs() < 1e-22);
        assert_eq!(
            t.worst_case_abs_error(),
            t.step_error_bound() + t.output_quantization_error()
        );
    }

    #[test]
    fn worst_case_error_switches_to_tail_mass_for_narrow_ranges() {
        // A range-2 table discards e^-2 ≈ 0.135 of mass at the flush edge,
        // which dwarfs its fine step error.
        let t = TableExp::with_range(1024, 32, 2.0);
        assert_eq!(t.worst_case_abs_error(), t.flush_tail_mass());
    }

    #[test]
    fn rom_bits_scale_with_parameters() {
        assert_eq!(TableExp::new(1024, 32).rom_bits(), 32768);
        assert_eq!(TableExp::new(64, 8).rom_bits(), 512);
    }

    #[test]
    fn low_precision_table_collapses_small_probabilities() {
        // 1 fractional bit: only 0, 0.5 and 1.0 are representable.
        let t = TableExp::new(64, 1);
        let vals: Vec<f64> = (0..40).map(|i| t.exp(-(i as f64) * 0.25)).collect();
        for v in &vals {
            assert!([0.0, 0.5, 1.0].contains(v), "unexpected value {v}");
        }
    }

    #[test]
    #[should_panic(expected = "bit_lut")]
    fn zero_bit_lut_panics() {
        let _ = TableExp::new(16, 0);
    }

    /// Inputs exercising every address regime: in-range, first/last knot,
    /// flush edge, deep flush, positive saturation and NaN.
    fn batch_probe_inputs(t: &TableExp) -> Vec<f64> {
        let step = t.step_lut();
        let range = t.lut_range();
        let mut xs = vec![
            0.0,
            0.5,
            f64::NAN,
            -0.0,
            -step * 0.5,
            -step,
            -step * 1.5,
            -(range - step * 0.25),
            -range,
            -range - step,
            -1.0e6,
            -255.0 * step,
            -254.5 * step,
            -256.0 * step,
        ];
        // A dense sweep so chunks_exact groups mix regimes arbitrarily.
        for i in 0..61 {
            xs.push(-(i as f64) * range / 37.0);
        }
        xs
    }

    #[test]
    fn exp_batch_is_bit_identical_to_scalar_across_table_sizes() {
        // ≤255 entries takes the SWAR path; 256+ the scalar fallback.
        for (size, bit) in [(16, 4), (64, 8), (255, 8), (256, 16), (1024, 32)] {
            let t = TableExp::new(size, bit);
            let xs = batch_probe_inputs(&t);
            // Deliberately ragged length (not a multiple of 8).
            assert_ne!(xs.len() % 8, 0, "probe set should exercise the tail");
            let mut out = vec![f64::MAX; xs.len()];
            t.exp_batch_into(&xs, &mut out);
            for (i, (&x, &y)) in xs.iter().zip(&out).enumerate() {
                let scalar = t.exp(x);
                assert!(
                    y == scalar || (y.is_nan() && scalar.is_nan()),
                    "{size}x{bit} lane {i}: x={x} batch={y} scalar={scalar}"
                );
            }
        }
    }

    #[test]
    fn exp_batch_matches_scalar_on_narrow_range_tables() {
        // Narrow range pushes many addresses past the table: the clamp path.
        let t = TableExp::with_range(32, 6, 2.0);
        let xs: Vec<f64> = (0..80).map(|i| -(i as f64) * 0.1).collect();
        let mut out = vec![0.0; xs.len()];
        t.exp_batch_into(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            assert_eq!(y, t.exp(x), "x={x}");
        }
    }

    #[test]
    fn exp_batch_handles_empty_and_sub_lane_batches() {
        let t = TableExp::new(64, 8);
        let mut empty: [f64; 0] = [];
        t.exp_batch_into(&[], &mut empty);
        let xs = [-1.0, -2.0, -3.0];
        let mut out = [0.0; 3];
        t.exp_batch_into(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            assert_eq!(y, t.exp(x));
        }
    }

    #[test]
    #[should_panic(expected = "matching input/output lengths")]
    fn exp_batch_rejects_length_mismatch() {
        let t = TableExp::new(64, 8);
        let mut out = [0.0; 2];
        t.exp_batch_into(&[-1.0], &mut out);
    }
}
