//! End-to-end Bayesian-network integration: Gibbs marginals against exact
//! variable-elimination posteriors across all three Table I networks.

use coopmc::core::experiments::bn_marginal_mse;
use coopmc::core::pipeline::PipelineConfig;
use coopmc::models::bn::{asia, earthquake, survey, BayesNet};

fn networks() -> Vec<(&'static str, BayesNet)> {
    vec![
        ("asia", asia()),
        ("earthquake", earthquake()),
        ("survey", survey()),
    ]
}

/// Float Gibbs converges to the exact marginals on every network.
#[test]
fn float_gibbs_matches_exact_on_all_networks() {
    for (name, net) in networks() {
        let mse = bn_marginal_mse(&net, PipelineConfig::float32(), 6000, 600, 77);
        assert!(mse < 6e-3, "{name}: float Gibbs MSE {mse}");
    }
}

/// The CoopMC datapath at the paper's BN threshold (size 128) stays close
/// to the float result (Fig. 12's saturation region).
#[test]
fn coopmc_lut128_tracks_float_on_all_networks() {
    for (name, net) in networks() {
        let float = bn_marginal_mse(&net, PipelineConfig::float32(), 5000, 500, 11);
        let coop = bn_marginal_mse(&net, PipelineConfig::coopmc(128, 16), 5000, 500, 11);
        assert!(
            coop < float + 0.02,
            "{name}: lut128x16 MSE {coop} vs float {float}"
        );
    }
}

/// Severely reduced LUT precision degrades BN inference (the left edge of
/// Fig. 12) — BNs are more precision-sensitive than MRFs because the factor
/// values themselves are the signal.
#[test]
fn starved_lut_degrades_bn_inference() {
    let net = earthquake();
    let good = bn_marginal_mse(&net, PipelineConfig::coopmc(128, 16), 5000, 500, 5);
    let bad = bn_marginal_mse(&net, PipelineConfig::coopmc(4, 1), 5000, 500, 5);
    assert!(
        bad > 2.0 * good + 1e-3,
        "size-4/1-bit LUT must hurt: {bad} vs {good}"
    );
}

/// Evidence propagates end to end: clamping a symptom shifts the estimated
/// cause marginal in the same direction as exact inference.
#[test]
fn evidence_shifts_marginals_in_the_right_direction() {
    use coopmc::core::engine::GibbsEngine;
    use coopmc::models::bn::{exact_marginal, MarginalCounter};
    use coopmc::rng::SplitMix64;
    use coopmc::sampler::TreeSampler;

    let mut net = earthquake();
    let alarm = net.node_index("alarm").unwrap();
    let burglary = net.node_index("burglary").unwrap();
    net.set_evidence(alarm, 0);

    let exact = exact_marginal(&net, burglary)[0];
    let prior = 0.01;
    assert!(
        exact > 10.0 * prior,
        "alarm evidence must raise P(burglary)"
    );

    let mut engine = GibbsEngine::new(
        PipelineConfig::coopmc(256, 16).build(),
        TreeSampler::new(),
        SplitMix64::new(3),
    );
    let mut counter = MarginalCounter::new(&net);
    engine.run_observed(&mut net, 8000, |c, n| {
        if c.iteration > 500 {
            counter.record(n);
        }
    });
    let gibbs = counter.marginal(burglary)[0];
    assert!(
        (gibbs - exact).abs() < 0.05,
        "gibbs {gibbs} vs exact {exact}"
    );
}
