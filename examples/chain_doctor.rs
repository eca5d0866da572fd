//! Chain doctor: put an MCMC run under the statistical-robustness
//! instruments — R̂ across parallel chains, effective sample size,
//! autocorrelation, Geweke drift — and compare a healthy float chain with a
//! precision-starved one, as prescribed by Zhang et al. (ASPLOS 2021),
//! the robustness framework the CoopMC paper builds on.
//!
//! Run with: `cargo run --release --example chain_doctor`

use coopmc::core::engine::GibbsEngine;
use coopmc::core::pipeline::PipelineConfig;
use coopmc::models::diagnostics::{
    autocorrelation, effective_sample_size, gelman_rubin, geweke_z, thin,
};
use coopmc::models::mrf::stereo_matching;
use coopmc::models::GibbsModel;
use coopmc::rng::SplitMix64;
use coopmc::sampler::TreeSampler;

fn energy_chain(config: PipelineConfig, seed: u64, sweeps: u64) -> Vec<f64> {
    let app = stereo_matching(32, 24, 7);
    let mut model = app.mrf.clone();
    let mut engine = GibbsEngine::new(config.build(), TreeSampler::new(), SplitMix64::new(seed));
    let mut chain = Vec::new();
    engine.run_observed(&mut model, sweeps, |_, m| chain.push(m.energy()));
    chain
}

fn examine(name: &str, config: PipelineConfig) {
    println!("--- {name} ---");
    let chains: Vec<Vec<f64>> = (0..4)
        .map(|c| thin(&energy_chain(config, 100 + c, 60), 15, 1))
        .collect();
    let rhat = gelman_rubin(&chains);
    let ess: f64 =
        chains.iter().map(|c| effective_sample_size(c)).sum::<f64>() / chains.len() as f64;
    let acf1: f64 = chains.iter().map(|c| autocorrelation(c, 1)).sum::<f64>() / chains.len() as f64;
    let geweke: f64 = chains.iter().map(|c| geweke_z(c).abs()).sum::<f64>() / chains.len() as f64;
    println!("  R-hat (4 chains):        {rhat:.3}   (want ~1.0, flag > 1.1)");
    println!("  ESS per 45-sample chain: {ess:.1}");
    println!("  lag-1 autocorrelation:   {acf1:.3}");
    println!("  |Geweke z| (mean):       {geweke:.2}   (want < 2)");
}

fn main() {
    println!(
        "workload: stereo matching 32x24 ({} variables, 16 labels), 60 sweeps,\n\
         energy tracked per sweep, first 15 discarded\n",
        32 * 24
    );
    examine("float32 reference", PipelineConfig::float32());
    examine(
        "CoopMC 64x8 (the paper's design point)",
        PipelineConfig::coopmc(64, 8),
    );
    examine("CoopMC 8x2 (starved LUT)", PipelineConfig::coopmc(8, 2));
    println!(
        "\nreading: the paper-point datapath is statistically \
         indistinguishable from float32. (A starved LUT can still look \
         healthy on MRF energy chains — its damage shows in goodness-of-fit \
         metrics like the BN marginal TV of `robustness_diagnostics`.)"
    );

    // Bonus: what the chain actually samples, for one variable.
    let app = stereo_matching(32, 24, 7);
    let mut model = app.mrf.clone();
    let mut engine = GibbsEngine::new(
        PipelineConfig::coopmc(64, 8).build(),
        TreeSampler::new(),
        SplitMix64::new(5),
    );
    let var = 12 * 32 + 16; // mid-grid pixel
    let mut trace = Vec::new();
    engine.run_observed(&mut model, 40, |_, m| trace.push(m.label(var)));
    println!("\nlabel trace of pixel (16, 12) under CoopMC 64x8: {trace:?}");
}
