//! Table geometries shared by the kernel bit-identity tests.

/// Every `(size_lut, bit_lut)` the in-tree pipeline configurations build
/// (the CLI/PG-core default, the Table III and ablation points, and the
/// Fig. 7/11/12/13 sweeps), plus non-power-of-two table sizes.
pub fn configs() -> Vec<(usize, u32)> {
    let mut out = vec![(64, 8), (1024, 32), (1024, 24), (1024, 16)];
    let sweeps: [(&[usize], &[u32]); 4] = [
        (&[16, 32, 64, 128, 256, 1024], &[4, 8, 16, 32]),
        (&[8, 16, 32, 64, 256], &[4, 8, 16]),
        (&[8, 32, 128, 512], &[2, 4, 8, 16]),
        (&[16, 64, 128, 512], &[4, 8, 16, 32]),
    ];
    for (sizes, bits) in sweeps {
        for &size in sizes {
            for &bit in bits {
                out.push((size, bit));
            }
        }
    }
    out.extend([(1, 4), (3, 8), (100, 16), (1000, 24), (1000, 46)]);
    out.sort_unstable();
    out.dedup();
    out
}
