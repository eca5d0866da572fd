//! **Extension**: statistical-robustness diagnostics across precision
//! configurations, following the evaluation axes of the paper's reference
//! \[36\] (Zhang et al., ASPLOS 2021): convergence diagnostics (Gelman–Rubin
//! R̂), sampling quality (effective sample size) and goodness of fit (total
//! variation of marginals).
//!
//! The question this answers: does the reduced-precision CoopMC datapath
//! merely reach the same *point estimate*, or does it leave the *chain
//! statistics* intact? (The paper claims the latter: "takes advantage of
//! statistical robustness".)

use coopmc_bench::harness::{Cell, Report, Table};
use coopmc_bench::seeds;
use coopmc_core::engine::GibbsEngine;
use coopmc_core::pipeline::PipelineConfig;
use coopmc_models::bn::{earthquake, exact_marginal, MarginalCounter};
use coopmc_models::diagnostics::{effective_sample_size, gelman_rubin, total_variation};
use coopmc_models::mrf::stereo_matching;
use coopmc_rng::SplitMix64;
use coopmc_sampler::TreeSampler;

fn mrf_energy_chain(config: PipelineConfig, seed: u64, sweeps: u64) -> Vec<f64> {
    let app = stereo_matching(32, 24, seeds::WORKLOAD);
    let mut model = app.mrf.clone();
    let mut engine = GibbsEngine::new(config.build(), TreeSampler::new(), SplitMix64::new(seed));
    let mut chain = Vec::with_capacity(sweeps as usize);
    engine.run_observed(&mut model, sweeps, |_, m| chain.push(m.energy()));
    chain
}

fn main() {
    let mut report = Report::new(
        "robustness_diagnostics",
        "Robustness diagnostics",
        "R-hat / ESS / TV across precision configurations (after [36])",
    );

    let configs = [
        ("float32", PipelineConfig::float32()),
        ("coopmc 1024x32", PipelineConfig::coopmc(1024, 32)),
        ("coopmc 64x8", PipelineConfig::coopmc(64, 8)),
        ("coopmc 16x4", PipelineConfig::coopmc(16, 4)),
    ];

    let mut mrf_table = Table::titled(
        "MRF stereo matching — energy-chain statistics (4 chains x 40 \
         sweeps, first 10 discarded as burn-in):",
        &["datapath", "R-hat", "ESS/chain"],
    );
    for (name, config) in configs {
        let chains: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                let full = mrf_energy_chain(config, seeds::CHAIN + c, 40);
                full[10..].to_vec()
            })
            .collect();
        let rhat = gelman_rubin(&chains);
        let ess: f64 =
            chains.iter().map(|c| effective_sample_size(c)).sum::<f64>() / chains.len() as f64;
        mrf_table.row(vec![
            Cell::text(name),
            Cell::num(rhat, 3),
            Cell::num(ess, 1),
        ]);
    }
    report.push(mrf_table);

    let mut bn_table = Table::titled(
        "BN earthquake — total variation of estimated vs exact marginals \
         (6000 sweeps, 600 burn-in):",
        &["datapath", "max TV"],
    );
    let net = earthquake();
    for (name, config) in configs {
        let mut model = net.clone();
        let mut engine = GibbsEngine::new(
            config.build(),
            TreeSampler::new(),
            SplitMix64::new(seeds::CHAIN),
        );
        let mut counter = MarginalCounter::new(&model);
        engine.run_observed(&mut model, 6000, |c, m| {
            if c.iteration > 600 {
                counter.record(m);
            }
        });
        let mut max_tv: f64 = 0.0;
        for v in 0..5 {
            let exact = exact_marginal(&net, v);
            max_tv = max_tv.max(total_variation(&counter.marginal(v), &exact));
        }
        bn_table.row(vec![Cell::text(name), Cell::num(max_tv, 4)]);
    }
    report.push(bn_table);
    report.note(
        "Reference [36]'s evaluation axes applied to CoopMC: well-provisioned \
         LUTs should match the float chain statistics (R-hat ~ 1, similar \
         ESS, small TV); a starved LUT (16x4) should visibly degrade them.",
    );
    report.finish();
}
