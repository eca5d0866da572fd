//! The zero-allocation guarantee of the Gibbs hot path.
//!
//! A counting `#[global_allocator]` wrapper measures heap traffic during a
//! warm steady-state sweep of [`GibbsEngine`] with the fixed-point pipeline
//! and the tree sampler: after a warm-up run has grown every scratch buffer
//! (engine score/PG/sampler buffers, per-thread pipeline scratch), a full
//! sweep must allocate **nothing**. The CoopMC pipeline's factor path
//! (LogFusion over borrowed factor rows) is held to the same guarantee on
//! LDA and on a Bayesian network, under both the Gibbs engine and the
//! Metropolis–Hastings driver, and a warm ICM sweep over caller-owned
//! buffers allocates nothing either.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrently running sibling test would pollute
//! the measurement window.

// The counting allocator must implement the unsafe `GlobalAlloc` trait;
// every unsafe block merely forwards to `System`.
#![allow(unsafe_code)]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use coopmc_core::engine::{GibbsEngine, RunStats};
use coopmc_core::metropolis::{icm_sweep, MetropolisEngine};
use coopmc_core::pipeline::{FixedPipeline, PgOutput, PipelineConfig};
use coopmc_models::bn::asia;
use coopmc_models::lda::{synthetic_corpus, CorpusSpec, Lda};
use coopmc_models::mrf::image_segmentation;
use coopmc_models::GibbsModel;
use coopmc_obs::NoopRecorder;
use coopmc_rng::SplitMix64;
use coopmc_sampler::TreeSampler;

/// Forwards to the system allocator, counting allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_steady_state_sweep_allocates_nothing() {
    let mut app = image_segmentation(32, 32, 21);
    let mut engine = GibbsEngine::new(
        FixedPipeline::new(8, true),
        TreeSampler::new(),
        SplitMix64::new(7),
    );

    // Warm-up: grows the engine's score/PG/sampler buffers and the
    // pipeline's per-thread scratch to this model's label count.
    let warm = engine.run(&mut app.mrf, 2);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let hot = engine.run(&mut app.mrf, 1);
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "a warm Gibbs sweep must not touch the heap ({allocs} allocations observed)"
    );
    assert_eq!(warm.iterations + hot.iterations, 3);
    assert_eq!(warm.updates + hot.updates, 3 * 32 * 32);

    // Same guarantee with the observability hooks compiled in but disabled:
    // an engine built explicitly with `NoopRecorder` must monomorphize the
    // instrumentation away entirely. (Sequential measurement in the same
    // test — the counter is process-global; see the module docs.)
    let mut app = image_segmentation(32, 32, 21);
    let mut engine = GibbsEngine::with_recorder(
        FixedPipeline::new(8, true),
        TreeSampler::new(),
        SplitMix64::new(7),
        NoopRecorder,
    );
    engine.run(&mut app.mrf, 2);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    engine.run(&mut app.mrf, 1);
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "a warm instrumented-but-disabled sweep must not touch the heap \
         ({allocs} allocations observed)"
    );

    // The CoopMC factor path: every LDA and BN label score is a factor
    // row, read in place by LogFusion (again sequentially, same test).
    let spec = CorpusSpec {
        n_docs: 20,
        n_vocab: 60,
        n_topics: 6,
        doc_len: 20,
        topics_per_doc: 2,
        seed: 13,
    };
    let mut lda = Lda::new(&synthetic_corpus(&spec), 6, 0.5, 0.01);
    lda.randomize_topics(7);
    let mut bn = asia();
    let models: [(&str, &mut dyn GibbsModel); 2] = [("LDA", &mut lda), ("BN-ASIA", &mut bn)];
    for (name, model) in models {
        let mut engine = GibbsEngine::new(
            PipelineConfig::coopmc(64, 8).build(),
            TreeSampler::new(),
            SplitMix64::new(7),
        );
        engine.run(model, 2);

        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let stats = engine.run(model, 1);
        ARMED.store(false, Ordering::SeqCst);

        let allocs = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            allocs, 0,
            "a warm CoopMC {name} sweep must not touch the heap ({allocs} allocations observed)"
        );
        assert!(stats.ops.log_lut > 0, "{name} must run the factor path");

        // Metropolis–Hastings gathers through the same in-place call. A
        // proposal equal to the current label skips the gather, so warm up
        // over several sweeps until every variable's rows have been built.
        let mut mh =
            MetropolisEngine::new(PipelineConfig::coopmc(64, 8).build(), SplitMix64::new(7));
        let mut stats = RunStats::default();
        for _ in 0..8 {
            mh.sweep(model, &mut stats);
        }
        let warm_ops = stats.ops.log_lut;

        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        mh.sweep(model, &mut stats);
        ARMED.store(false, Ordering::SeqCst);

        let allocs = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            allocs, 0,
            "a warm CoopMC {name} MH sweep must not touch the heap ({allocs} allocations observed)"
        );
        assert!(
            stats.ops.log_lut > warm_ops,
            "{name} MH sweep must run the factor path"
        );
    }

    // ICM over caller-owned buffers: once the first sweeps have grown them,
    // a sweep allocates nothing (the annealing loop's steady state).
    let mut app = image_segmentation(32, 32, 21);
    let pipeline = FixedPipeline::new(8, true);
    let (mut scores, mut pg) = (Vec::new(), PgOutput::new());
    icm_sweep(&mut app.mrf, &pipeline, &mut scores, &mut pg);
    icm_sweep(&mut app.mrf, &pipeline, &mut scores, &mut pg);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    icm_sweep(&mut app.mrf, &pipeline, &mut scores, &mut pg);
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "a warm ICM sweep must not touch the heap ({allocs} allocations observed)"
    );
}
