//! Benchmarks for full Gibbs sweeps on each model family, under the float
//! reference and the CoopMC datapath.
//!
//! Run with `cargo bench -p coopmc-bench --bench models`.

use coopmc_bench::harness::{black_box, Harness};
use coopmc_core::engine::GibbsEngine;
use coopmc_core::pipeline::PipelineConfig;
use coopmc_models::bn::asia;
use coopmc_models::lda::{synthetic_corpus, CorpusSpec, Lda};
use coopmc_models::mrf::stereo_matching;
use coopmc_rng::SplitMix64;
use coopmc_sampler::TreeSampler;

fn bench_mrf_sweep(h: &Harness) {
    for config in [PipelineConfig::float32(), PipelineConfig::coopmc(64, 8)] {
        let name = config.build().name();
        let app = stereo_matching(48, 32, 3);
        let mut engine = GibbsEngine::new(config.build(), TreeSampler::new(), SplitMix64::new(1));
        let mut model = app.mrf.clone();
        h.run(&format!("mrf_sweep_48x32x16/{name}"), || {
            engine.run(black_box(&mut model), 1).updates
        });
    }
}

fn bench_bn_sweep(h: &Harness) {
    for config in [PipelineConfig::float32(), PipelineConfig::coopmc(128, 16)] {
        let name = config.build().name();
        let mut net = asia();
        let mut engine = GibbsEngine::new(config.build(), TreeSampler::new(), SplitMix64::new(1));
        h.run(&format!("bn_sweep_asia/{name}"), || {
            engine.run(black_box(&mut net), 1).updates
        });
    }
}

fn bench_lda_sweep(h: &Harness) {
    let corpus = synthetic_corpus(&CorpusSpec {
        n_docs: 40,
        n_vocab: 120,
        n_topics: 8,
        doc_len: 60,
        topics_per_doc: 2,
        seed: 5,
    });
    for config in [PipelineConfig::float32(), PipelineConfig::coopmc(128, 16)] {
        let name = config.build().name();
        let mut lda = Lda::new(&corpus, 8, 1.0, 0.01);
        lda.randomize_topics(2);
        let mut engine = GibbsEngine::new(config.build(), TreeSampler::new(), SplitMix64::new(1));
        h.run(&format!("lda_sweep_2400tok_8topics/{name}"), || {
            engine.run(black_box(&mut lda), 1).updates
        });
    }
}

fn main() {
    let h = Harness::quick();
    bench_mrf_sweep(&h);
    bench_bn_sweep(&h);
    bench_lda_sweep(&h);
}
