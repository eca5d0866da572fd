//! Property-based tests: the three sampler micro-architectures are
//! statistically identical implementations of CDF-inversion sampling
//! (deterministic generator harness from `coopmc-testkit`).

use coopmc_rng::SplitMix64;
use coopmc_sampler::{
    AliasSampler, PipeTreeSampler, SampleScratch, Sampler, SequentialSampler, TreeSampler, TreeSum,
};
use coopmc_testkit::{check, Gen};

fn arb_probs(g: &mut Gen) -> Vec<f64> {
    loop {
        let v = g.vec_f64(1, 130, 0.0, 10.0);
        if v.iter().sum::<f64>() > 0.0 {
            return v;
        }
    }
}

#[test]
fn tree_equals_sequential() {
    check("tree_equals_sequential", 256, |g| {
        let probs = arb_probs(g);
        let total: f64 = probs.iter().sum();
        let t = g.f64_in(0.0, 0.9999) * total;
        let seq = SequentialSampler::new()
            .sample_with_threshold(&probs, t)
            .label;
        let tree = TreeSampler::new().sample_with_threshold(&probs, t).label;
        let pipe = PipeTreeSampler::new()
            .sample_with_threshold(&probs, t)
            .label;
        assert_eq!(seq, tree);
        assert_eq!(seq, pipe);
    });
}

#[test]
fn selected_label_has_mass() {
    check("selected_label_has_mass", 256, |g| {
        let probs = arb_probs(g);
        let mut rng = SplitMix64::new(g.u64());
        let mut scratch = SampleScratch::new();
        for s in [
            &TreeSampler::new() as &dyn Sampler,
            &SequentialSampler::new(),
        ] {
            let l = s.sample_into(&probs, &mut rng, &mut scratch).label;
            assert!(probs[l] > 0.0, "label {l} has zero weight");
        }
    });
}

#[test]
fn tree_sum_is_consistent() {
    check("tree_sum_is_consistent", 256, |g| {
        let probs = arb_probs(g);
        let tree = TreeSum::build(&probs);
        let total: f64 = probs.iter().sum();
        assert!((tree.total() - total).abs() < 1e-9 * total.max(1.0));
        for level in 1..=tree.depth() {
            let width = tree.leaf_count() >> level;
            for i in 0..width {
                let parent = tree.node(level, i);
                let kids = tree.node(level - 1, 2 * i) + tree.node(level - 1, 2 * i + 1);
                assert!((parent - kids).abs() < 1e-9);
            }
        }
    });
}

#[test]
fn latency_laws() {
    check("latency_laws", 256, |g| {
        let n = g.usize_in(2, 4096);
        let seq = SequentialSampler::new();
        let tree = TreeSampler::new();
        assert_eq!(seq.latency_cycles(n), 2 * n as u64 + 1);
        let depth = n.next_power_of_two().trailing_zeros() as u64;
        assert_eq!(tree.latency_cycles(n), 2 * depth + 3);
        assert!(tree.latency_cycles(n) <= seq.latency_cycles(n));
    });
}

#[test]
fn alias_table_encodes_exactly() {
    check("alias_table_encodes_exactly", 128, |g| {
        let probs = {
            let v = g.vec_f64(2, 64, 0.0, 10.0);
            if v.iter().sum::<f64>() <= 1e-6 {
                return;
            }
            v
        };
        let table = coopmc_sampler::AliasTable::build(&probs);
        let total: f64 = probs.iter().sum();
        let encoded = table.encoded_distribution();
        for (p, e) in probs.iter().zip(&encoded) {
            assert!((p / total - e).abs() < 1e-9, "want {} got {e}", p / total);
        }
    });
}

#[test]
fn threshold_segment_consistency() {
    check("threshold_segment_consistency", 256, |g| {
        let probs = g.vec_f64(2, 40, 0.01, 5.0);
        let i = g.index(probs.len());
        let frac = g.f64_in(0.0, 0.999);
        let before: f64 = probs[..i].iter().sum();
        let t = before + probs[i] * frac;
        let got = TreeSampler::new().sample_with_threshold(&probs, t).label;
        assert_eq!(got, i);
    });
}

/// Whatever a shared scratch holds on entry is invisible: draws through
/// one dirty scratch, reused across samplers and distribution sizes, equal
/// draws through a fresh scratch under the same RNG state.
#[test]
fn sample_into_ignores_stale_scratch() {
    check("sample_into_ignores_stale_scratch", 128, |g| {
        let probs = arb_probs(g);
        let seed = g.u64();
        // Dirty the shared scratch with a distribution of another size.
        let mut dirty = SampleScratch::new();
        let stale = arb_probs(g);
        TreeSampler::new().sample_into(&stale, &mut SplitMix64::new(seed), &mut dirty);
        let boxed: Box<dyn Sampler> = Box::new(TreeSampler::new());
        for s in [
            &TreeSampler::new() as &dyn Sampler,
            &SequentialSampler::new(),
            &PipeTreeSampler::new(),
            &AliasSampler::new(),
            &boxed,
        ] {
            let mut rng_fresh = SplitMix64::new(seed);
            let mut rng_dirty = SplitMix64::new(seed);
            for _ in 0..16 {
                let fresh = s.sample_into(&probs, &mut rng_fresh, &mut SampleScratch::new());
                let reused = s.sample_into(&probs, &mut rng_dirty, &mut dirty);
                assert_eq!(fresh, reused, "{} diverged", s.name());
            }
        }
    });
}

/// A deterministic empirical check that the tree sampler's draws follow the
/// distribution (Kolmogorov–Smirnov-style max deviation on the CDF).
#[test]
fn empirical_cdf_deviation_small() {
    let probs: Vec<f64> = (1..=16).map(|i| i as f64).collect();
    let total: f64 = probs.iter().sum();
    let mut rng = SplitMix64::new(2024);
    let sampler = TreeSampler::new();
    let mut scratch = SampleScratch::new();
    let draws = 60_000;
    let mut counts = vec![0u64; probs.len()];
    for _ in 0..draws {
        counts[sampler.sample_into(&probs, &mut rng, &mut scratch).label] += 1;
    }
    let mut cdf_err: f64 = 0.0;
    let mut emp = 0.0;
    let mut exact = 0.0;
    for (c, p) in counts.iter().zip(&probs) {
        emp += *c as f64 / draws as f64;
        exact += p / total;
        cdf_err = cdf_err.max((emp - exact).abs());
    }
    assert!(cdf_err < 0.01, "max CDF deviation {cdf_err}");
}
