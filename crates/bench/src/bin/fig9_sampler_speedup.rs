//! Regenerates **Figure 9**: runtime speedup of TreeSampler over the
//! sequential sampler as the number of labels grows (cycle-model latencies
//! plus measured end-to-end samples on the software simulator).

use coopmc_bench::harness::{Cell, Report, Table};
use coopmc_rng::SplitMix64;
use coopmc_sampler::{SampleScratch, Sampler, SequentialSampler, TreeSampler};

fn main() {
    let mut report = Report::new(
        "fig9_sampler_speedup",
        "Figure 9",
        "TreeSampler runtime speedup vs number of labels",
    );
    let seq = SequentialSampler::new();
    let tree = TreeSampler::new();

    let mut latency = Table::new(&["#labels", "seq (cyc)", "tree (cyc)", "speedup"]);
    for n in [2usize, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128] {
        let s = seq.latency_cycles(n);
        let t = tree.latency_cycles(n);
        latency.row(vec![
            Cell::int(n as i64),
            Cell::int(s as i64),
            Cell::int(t as i64),
            Cell::unit(s as f64 / t as f64, 2, "x"),
        ]);
    }
    report.push(latency);

    // Cross-check: simulated hardware cycles accumulated over real draws.
    let probs: Vec<f64> = (1..=64).map(|i| i as f64).collect();
    let mut total_seq = 0u64;
    let mut total_tree = 0u64;
    let mut rng = SplitMix64::new(7);
    let mut scratch = SampleScratch::new();
    for _ in 0..10_000 {
        total_seq += seq.sample_into(&probs, &mut rng, &mut scratch).cycles;
        total_tree += tree.sample_into(&probs, &mut rng, &mut scratch).cycles;
    }
    let mut check = Table::titled(
        "cross-check over 10,000 draws at 64 labels:",
        &["sampler", "total cycles", "speedup"],
    );
    check.row(vec![
        Cell::text("sequential"),
        Cell::int(total_seq as i64),
        Cell::unit(1.0, 2, "x"),
    ]);
    check.row(vec![
        Cell::text("tree"),
        Cell::int(total_tree as i64),
        Cell::unit(total_seq as f64 / total_tree as f64, 2, "x"),
    ]);
    report.push(check);
    report.note(
        "Figure 9 / §IV-C. Paper: speedup grows with label count, reaching \
         8.7x at 64 labels; constant between powers of two (step function).",
    );
    report.finish();
}
