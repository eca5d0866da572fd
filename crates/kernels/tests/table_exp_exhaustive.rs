//! Bit-identity of the floor-free `TableExp` addressing.
//!
//! `TableExp` resolves the ROM address of a negative input `x` as
//! `-x / step` compared against the table length and then truncated, where
//! the reference form took `(-x / step).floor()` first. This file keeps a
//! frozen copy of the reference kernel and compares the shipped scalar
//! and batched kernels against it with `to_bits`, on every Q15.16 grid
//! point from `-(lut_range + 1)` to 0 and on the non-finite and extreme
//! inputs.

use coopmc_fixed::{quantize_unsigned, QFormat};
use coopmc_kernels::exp::{ExpKernel, TableExp};

mod common;
use common::configs;

/// The `TableExp` of the reference form, frozen.
struct FrozenTableExp {
    entries: Vec<f64>,
    step: f64,
}

impl FrozenTableExp {
    fn with_range(size_lut: usize, bit_lut: u32, range: f64) -> Self {
        let step = range / size_lut as f64;
        let entries = (0..size_lut)
            .map(|k| quantize_unsigned((-(k as f64) * step).exp(), bit_lut, 1u64 << bit_lut))
            .collect();
        Self { entries, step }
    }

    fn exp(&self, x: f64) -> f64 {
        if x >= 0.0 {
            return self.entries[0];
        }
        let k = (-x / self.step).floor();
        if k >= self.entries.len() as f64 {
            0.0
        } else {
            self.entries[k as usize]
        }
    }
}

/// Inputs outside the grid sweep: NaN, both infinities, both zeros, the
/// smallest normal and subnormal magnitudes, and a deep flush.
const SPECIALS: [f64; 11] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    -1e300,
    1e300,
];

/// Compare `got[i]` with the reference on `xs[i]`; returns the number of
/// mismatches, printing the first few.
fn mismatches(old: &FrozenTableExp, xs: &[f64], got: &[f64], what: &str) -> u64 {
    let mut bad = 0;
    for (&x, &y) in xs.iter().zip(got) {
        let want = old.exp(x);
        if y.to_bits() != want.to_bits() {
            if bad < 5 {
                eprintln!("{what}: x = {x:e} kernel {y:e} reference {want:e}");
            }
            bad += 1;
        }
    }
    bad
}

/// Check scalar `exp` and `exp_batch_into` (packed groups of 8 and the
/// ragged tail) against the reference; returns (inputs, mismatches).
fn check_table(size: usize, bit: u32, range: f64) -> (u64, u64) {
    let new = TableExp::with_range(size, bit, range);
    let old = FrozenTableExp::with_range(size, bit, range);
    let what = format!("{size}x{bit} range {range}");
    let grid = QFormat::baseline32().resolution();
    let last = ((new.lut_range() + 1.0) / grid).ceil() as u64;
    let mut xs: Vec<f64> = (0..=last).map(|i| -(i as f64) * grid).collect();
    xs.extend(SPECIALS);
    if xs.len().is_multiple_of(8) {
        xs.push(-range);
    }
    let scalar: Vec<f64> = xs.iter().map(|&x| new.exp(x)).collect();
    let mut bad = mismatches(&old, &xs, &scalar, &format!("{what} scalar"));
    let mut batch = vec![f64::MAX; xs.len()];
    new.exp_batch_into(&xs, &mut batch);
    bad += mismatches(&old, &xs, &batch, &format!("{what} batch"));
    // Every special in a packed group and in a ragged tail: forward and
    // reversed (11 lanes: 8 packed + 3 tail each way), then one by one.
    let reversed: Vec<f64> = SPECIALS.iter().rev().copied().collect();
    for specials in [&SPECIALS[..], &reversed] {
        let mut out = [f64::MAX; SPECIALS.len()];
        new.exp_batch_into(specials, &mut out);
        bad += mismatches(&old, specials, &out, &format!("{what} special batch"));
    }
    for x in SPECIALS {
        let mut out = [f64::MAX];
        new.exp_batch_into(&[x], &mut out);
        bad += mismatches(&old, &[x], &out, &format!("{what} special tail"));
    }
    (xs.len() as u64 * 2 + SPECIALS.len() as u64 * 3, bad)
}

#[test]
fn table_exp_is_bit_identical_to_the_floor_reference() {
    let (mut inputs, mut bad) = (0, 0);
    // The in-tree geometries at the default range 16 (non-power-of-two
    // sizes 3, 100 and 1000 included), plus step-size ablation points.
    let tables = configs()
        .into_iter()
        .map(|(size, bit)| (size, bit, 16.0))
        .chain([(64, 16, 4.0), (64, 16, 64.0), (100, 16, 10.0)]);
    for (size, bit, range) in tables {
        let (n, b) = check_table(size, bit, range);
        inputs += n;
        bad += b;
    }
    assert!(inputs > 10_000_000, "only {inputs} inputs checked");
    assert_eq!(bad, 0, "{bad} of {inputs} inputs differ from the reference");
}
