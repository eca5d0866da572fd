//! The three benchmark workloads and the engine paths that drive them.
//!
//! Every workload is built from the seed with `WorkloadSpec::build_scaled`
//! and runs pipeline `coopmc:64x8` with `TreeSampler`, through the engine
//! `coopmc run` uses for it: `GibbsEngine` at `--threads 1`,
//! `ChromaticEngine` at `--threads N`.

use coopmc_core::engine::{GibbsEngine, RunStats};
use coopmc_core::parallel::{ChromaticEngine, DEFAULT_BATCH_ROWS};
use coopmc_core::pipeline::{CoopMcPipeline, PipelineConfig, ProbabilityPipeline};
use coopmc_models::lda::Lda;
use coopmc_models::mrf::MrfApp;
use coopmc_models::workloads::{all_workloads, BuiltWorkload};
use coopmc_models::GibbsModel;
use coopmc_rng::SplitMix64;
use coopmc_sampler::TreeSampler;

/// TableExp/TableLog entries of the benchmarked pipeline.
pub const LUT_SIZE: usize = 64;
/// TableExp/TableLog entry bits of the benchmarked pipeline.
pub const LUT_BITS: u32 = 8;
/// Parallel PG pipelines feeding the NormTree (`CoopMcPipeline::new`'s).
pub const NORM_PIPELINES: usize = 4;

/// How a workload is swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `GibbsEngine`, one thread, one RNG stream.
    Sequential,
    /// `ChromaticEngine` on the worker pool at `nproc` threads.
    Chromatic,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Benchmark name (`--workload`).
    pub name: &'static str,
    /// Table I workload built.
    pub spec: &'static str,
    /// `build_scaled` scale.
    pub scale: f64,
    /// Engine path.
    pub schedule: Schedule,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mrf-seg2-seq",
        spec: "MRF-Image Segmentation",
        scale: 20.0,
        schedule: Schedule::Sequential,
    },
    Workload {
        name: "mrf-stereo16-par",
        spec: "MRF-Stereo Matching",
        scale: 10.0,
        schedule: Schedule::Chromatic,
    },
    Workload {
        name: "lda-nips-seq",
        spec: "LDA-NIPS",
        scale: 1.0,
        schedule: Schedule::Sequential,
    },
];

/// A built model.
pub enum Model {
    /// Grid MRF with its clean label field.
    Mrf(MrfApp),
    /// Collapsed LDA.
    Lda(Lda),
}

impl Model {
    /// The model as a `GibbsModel`.
    pub fn gibbs(&mut self) -> &mut dyn GibbsModel {
        match self {
            Model::Mrf(app) => &mut app.mrf,
            Model::Lda(lda) => lda,
        }
    }

    /// Variables per sweep.
    pub fn num_variables(&self) -> usize {
        match self {
            Model::Mrf(app) => app.mrf.num_variables(),
            Model::Lda(lda) => lda.num_variables(),
        }
    }

    /// Current labels.
    pub fn labels(&self) -> Vec<usize> {
        match self {
            Model::Mrf(app) => app.mrf.labels(),
            Model::Lda(lda) => lda.labels(),
        }
    }

    /// Chain quality, lower is better. For an MRF, the label MSE against
    /// `MrfApp::clean` normalized by the MSE of the `untrained` (initial)
    /// labels (`metrics::normalized_mse`, the paper's §II-A metric); for
    /// LDA, the negative log-likelihood per token
    /// (`-Lda::log_likelihood() / tokens`).
    pub fn quality_loss(&self, untrained: &[usize]) -> f64 {
        match self {
            Model::Mrf(app) => {
                coopmc_models::metrics::normalized_mse(&app.mrf.labels(), &app.clean, untrained)
            }
            Model::Lda(lda) => -lda.log_likelihood() / lda.num_variables() as f64,
        }
    }

    /// `label_mse` (`metrics::mse` against `MrfApp::clean`) for an MRF,
    /// `loglik_per_token` for LDA.
    pub fn quality_detail(&self) -> String {
        match self {
            Model::Mrf(app) => format!(
                "label_mse {}",
                coopmc_models::metrics::mse(&app.mrf.labels(), &app.clean)
            ),
            Model::Lda(lda) => format!(
                "loglik_per_token {}",
                lda.log_likelihood() / lda.num_variables() as f64
            ),
        }
    }

    /// `(labels checked, labels out of range)`.
    pub fn labels_in_range(&self) -> (u64, u64) {
        let check = |m: &dyn GibbsModel| {
            let n = m.num_variables();
            let bad = (0..n).filter(|&v| m.label(v) >= m.num_labels(v)).count();
            (n as u64, bad as u64)
        };
        match self {
            Model::Mrf(app) => check(&app.mrf),
            Model::Lda(lda) => check(lda),
        }
    }
}

/// The sequential engine `coopmc run --threads 1` builds.
pub type SeqEngine = GibbsEngine<Box<dyn ProbabilityPipeline>, TreeSampler, SplitMix64>;

/// The pipeline `coopmc run` builds for `--pipeline coopmc:64x8`.
pub fn seq_pipeline() -> Box<dyn ProbabilityPipeline> {
    PipelineConfig::coopmc(LUT_SIZE, LUT_BITS).build()
}

/// The pipeline `coopmc run --threads N` hands the chromatic engine.
pub fn chrom_pipeline() -> CoopMcPipeline {
    CoopMcPipeline::new(LUT_SIZE, LUT_BITS)
}

/// The sequential engine for `seed`.
pub fn seq_engine(seed: u64) -> SeqEngine {
    GibbsEngine::new(seq_pipeline(), TreeSampler::new(), SplitMix64::new(seed))
}

/// The chromatic engine for `seed` at `threads`, default batch stride.
pub fn chrom_engine(seed: u64, threads: usize) -> ChromaticEngine<CoopMcPipeline> {
    ChromaticEngine::new(chrom_pipeline(), threads, seed)
}

/// The batch stride the chromatic engine uses.
pub const BATCH_ROWS: usize = DEFAULT_BATCH_ROWS;

impl Workload {
    /// Look a workload up by name.
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Build the model from `seed`.
    pub fn build(&self, seed: u64) -> Model {
        let spec = all_workloads()
            .into_iter()
            .find(|s| s.name == self.spec)
            .expect("workload in the Table I registry");
        match spec.build_scaled(self.scale, seed) {
            BuiltWorkload::Mrf(app) => Model::Mrf(app),
            BuiltWorkload::Lda(lda) => Model::Lda(lda),
            BuiltWorkload::Bn(_) => unreachable!("no BN workload is benchmarked"),
        }
    }

    /// Worker threads of the engine path: 1, or every CPU the host has.
    pub fn threads(&self, nproc: usize) -> usize {
        match self.schedule {
            Schedule::Sequential => 1,
            Schedule::Chromatic => nproc,
        }
    }
}

/// A set-up workload: model plus the engine that sweeps it.
pub enum Running {
    /// Sequential engine over any model.
    Seq(Model, Box<SeqEngine>),
    /// Chromatic engine over a grid MRF.
    Chrom(MrfApp, Box<ChromaticEngine<CoopMcPipeline>>),
}

impl Running {
    /// Build the model, colour classes, engine and pool, and run one
    /// warm-up sweep: what `setup_s` times.
    pub fn setup(w: &Workload, seed: u64, threads: usize) -> Running {
        let model = w.build(seed);
        match (w.schedule, model) {
            (Schedule::Sequential, mut model) => {
                let mut engine = Box::new(seq_engine(seed));
                engine.run(model.gibbs(), 1);
                Running::Seq(model, engine)
            }
            (Schedule::Chromatic, Model::Mrf(mut app)) => {
                let engine = Box::new(chrom_engine(seed, threads));
                engine.run(&mut app.mrf, 1);
                Running::Chrom(app, engine)
            }
            (Schedule::Chromatic, Model::Lda(_)) => unreachable!("chromatic LDA"),
        }
    }

    /// Variables updated per sweep.
    pub fn vars(&self) -> usize {
        match self {
            Running::Seq(m, _) => m.num_variables(),
            Running::Chrom(app, _) => app.mrf.num_variables(),
        }
    }

    /// Run `n` sweeps through the engine's own `run_observed`, pushing the
    /// wall time of each sweep (seconds) into `times`; returns the CPU ns
    /// the process spent on the block.
    pub fn timed_block(&mut self, n: u64, times: &mut Vec<f64>) -> u64 {
        let cpu = crate::stats::cpu_ns();
        let mut tick = ticker(times);
        match self {
            Running::Seq(model, engine) => {
                engine.run_observed(model.gibbs(), n, |_, _| tick());
            }
            Running::Chrom(app, engine) => {
                engine.run_observed(&mut app.mrf, n, |_, _| tick());
            }
        }
        crate::stats::cpu_ns().saturating_sub(cpu)
    }
}

/// Observer for `run_observed` that pushes per-sweep wall times (seconds).
pub fn ticker(times: &mut Vec<f64>) -> impl FnMut() + '_ {
    let mut last = std::time::Instant::now();
    move || {
        let now = std::time::Instant::now();
        times.push((now - last).as_secs_f64());
        last = now;
    }
}

/// A chain of `sweeps` engine sweeps from a fresh model, at `threads` on
/// the chromatic schedule. Returns the model, its initial labels, and the
/// run statistics the sequential engine keeps.
pub fn engine_chain(
    w: &Workload,
    seed: u64,
    threads: usize,
    sweeps: u64,
) -> (Model, Vec<usize>, Option<RunStats>) {
    let mut model = w.build(seed);
    let untrained = model.labels();
    let stats = match (w.schedule, &mut model) {
        (Schedule::Sequential, m) => Some(seq_engine(seed).run(m.gibbs(), sweeps)),
        (Schedule::Chromatic, Model::Mrf(app)) => {
            chrom_engine(seed, threads).run(&mut app.mrf, sweeps);
            None
        }
        (Schedule::Chromatic, Model::Lda(_)) => unreachable!("chromatic LDA"),
    };
    (model, untrained, stats)
}
