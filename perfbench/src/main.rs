//! CoopMC Gibbs-sweep benchmark.
//!
//! ```text
//! coopmc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! Builds the workload from the seed, checks the chain's outputs, then
//! measures for `--seconds`:
//!
//! - `--trace 0`: end-to-end metrics from untraced `NoopRecorder` engines
//!   (samples/s, set-up time, peak RSS, modeled cycles, chain quality);
//! - `--trace 1`: per-layer metrics from a traced replica of the engine's
//!   sweep, interleaved block by block with the untraced engine, a
//!   `SpanProfiler`-armed engine and an untraced replica, plus replays of
//!   the kernels on inputs captured from one sweep. Spans are written to
//!   `<out>/spans-<workload>.tsv`.
//!
//! Prints a table of every metric with its unit and quartiles, then one
//! JSON line (`perfbench/run.py` turns it into the result record). Exits 1
//! when an output check fails.

mod replay;
mod replica;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use coopmc_core::engine::GibbsEngine;
use coopmc_core::parallel::ChromaticEngine;
use coopmc_models::coloring::ChromaticModel;
use coopmc_models::GibbsModel;
use coopmc_obs::SpanProfiler;
use coopmc_rng::SplitMix64;
use coopmc_sampler::TreeSampler;

use replica::{Capture, ChromReplica, SeqReplica, Tally};
use stats::{summarize, Summary};
use trace::{Layer, Off, Spans};
use workload::{ticker, Model, Running, Schedule, Workload, BATCH_ROWS};

/// Sweeps of the fixed-length check chain (quality and modeled cycles
/// come from it, so they repeat exactly for a seed).
const CHECK_SWEEPS: u64 = 8;
/// Independent model instances `quality_loss` averages over (the check
/// chain's seed plus derived ones), to damp instance-to-instance spread.
const QUALITY_CHAINS: u64 = 24;
/// Set-ups per run, spread evenly over the timed phase so they sample the
/// same host conditions as the sweeps; `setup_s` is their interquartile
/// mean.
const SETUPS: usize = 12;
/// Target wall time of one timed block of sweeps.
const BLOCK_SECONDS: f64 = 0.05;
/// Spans kept in memory for the span file.
const KEEP_SPANS: usize = 100_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::find(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out: out.ok_or("missing --out")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Quartiles of the samples behind `value`, when it has several.
    spread: Option<Summary>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        spread: None,
    }
}

/// Output checks, counted item by item.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Record `items` checked items of which `bad` failed.
    fn add(&mut self, what: &str, items: u64, bad: u64) {
        self.attempted += items;
        self.failed += bad;
        if bad > 0 {
            self.failures
                .push(format!("{what}: {bad} of {items} failed"));
        }
    }

    /// Compare two label fields variable by variable.
    fn same_labels(&mut self, what: &str, a: &[usize], b: &[usize]) {
        let bad = if a.len() == b.len() {
            a.iter().zip(b).filter(|(x, y)| x != y).count() as u64
        } else {
            a.len().max(b.len()) as u64
        };
        self.add(what, a.len().max(b.len()) as u64, bad);
    }
}

/// What the fixed-length check chain yields besides pass/fail.
struct CheckChain {
    /// Chain quality after `CHECK_SWEEPS` sweeps of the engine.
    quality: f64,
    /// The same chain's `label_mse` or `loglik_per_token`, for the table.
    detail: String,
    /// Replica counts over the same sweeps.
    tally: Tally,
}

/// Run the engine and the untraced replica for `CHECK_SWEEPS` sweeps from
/// fresh models and check that they agree, that labels are in range and
/// that every PG row is finite.
fn check_chain(w: &Workload, seed: u64, nproc: usize, checks: &mut Checks) -> CheckChain {
    match w.schedule {
        Schedule::Sequential => {
            let (engine_model, untrained, stats) = workload::engine_chain(w, seed, 1, CHECK_SWEEPS);
            let stats = stats.expect("the sequential engine keeps RunStats");
            let mut model = w.build(seed);
            let mut rep = SeqReplica::new(workload::seq_pipeline(), seed);
            rep.check = true;
            for _ in 0..CHECK_SWEEPS {
                rep.sweep(model.gibbs(), &mut Off);
            }
            checks.same_labels(
                "replica labels == GibbsEngine::run labels",
                &model.labels(),
                &engine_model.labels(),
            );
            let t = rep.tally;
            for (what, a, b) in [
                ("updates", t.updates, stats.updates),
                ("flips", t.flips, stats.flips),
                ("uniform fallbacks", t.fallbacks, stats.uniform_fallbacks),
                ("pg cycles", t.pg_cycles, stats.pg_cycles),
                ("sd cycles", t.sd_cycles, stats.sd_cycles),
            ] {
                checks.add(&format!("replica {what} == RunStats"), 1, u64::from(a != b));
            }
            let (n, bad) = engine_model.labels_in_range();
            checks.add("labels in range", n, bad);
            checks.add("PG rows finite", t.rows_checked, t.bad_rows);
            CheckChain {
                quality: engine_model.quality_loss(&untrained),
                detail: engine_model.quality_detail(),
                tally: t,
            }
        }
        Schedule::Chromatic => {
            let (at_n, untrained, _) = workload::engine_chain(w, seed, nproc, CHECK_SWEEPS);
            let (at_1, _, _) = workload::engine_chain(w, seed, 1, CHECK_SWEEPS);
            let mut model = w.build(seed);
            let Model::Mrf(app) = &mut model else {
                unreachable!("chromatic workloads are MRFs")
            };
            let classes = app.mrf.color_classes();
            let mut rep = ChromReplica::new(workload::chrom_pipeline(), seed, BATCH_ROWS);
            rep.check = true;
            for it in 0..CHECK_SWEEPS {
                rep.sweep(&mut app.mrf, &classes, it, &mut Off);
            }
            checks.same_labels(
                "ChromaticEngine at nproc threads == at 1 thread",
                &at_n.labels(),
                &at_1.labels(),
            );
            checks.same_labels(
                "replica labels == ChromaticEngine labels",
                &model.labels(),
                &at_n.labels(),
            );
            let (n, bad) = at_n.labels_in_range();
            checks.add("labels in range", n, bad);
            let t = rep.tally;
            checks.add("PG rows finite", t.rows_checked, t.bad_rows);
            checks.add(
                "replica updates == vars x sweeps",
                1,
                u64::from(t.updates != model.num_variables() as u64 * CHECK_SWEEPS),
            );
            CheckChain {
                quality: at_n.quality_loss(&untrained),
                detail: at_n.quality_detail(),
                tally: t,
            }
        }
    }
}

/// Sweeps per timed block, from the duration of one sweep.
fn block_len(one_sweep: f64) -> u64 {
    ((BLOCK_SECONDS / one_sweep.max(1e-6)).round() as u64).max(1)
}

/// `samples_per_cpu_s`: updates ÷ (process CPU time ÷ engine threads)
/// over the timed blocks, with the per-block rates' quartiles. CPU time
/// leaves out the time the host steals from this VM's CPUs, which on a
/// shared host halves a two-thread sweep's wall-clock rate for minutes at a
/// time; the wall-clock rate is printed beside it.
fn samples_per_cpu_s(vars: usize, threads: usize, blocks: &[(u64, u64)]) -> Metric {
    let per_thread_s = |cpu_ns: u64| cpu_ns as f64 * 1e-9 / threads as f64;
    let rates: Vec<f64> = blocks
        .iter()
        .map(|&(sweeps, cpu)| (vars as u64 * sweeps) as f64 / per_thread_s(cpu))
        .collect();
    let sweeps: u64 = blocks.iter().map(|b| b.0).sum();
    let cpu: u64 = blocks.iter().map(|b| b.1).sum();
    Metric {
        name: "samples_per_cpu_s",
        unit: "1/s",
        value: (vars as u64 * sweeps) as f64 / per_thread_s(cpu),
        spread: Some(summarize(&rates)),
    }
}

/// `setup_s`: the mean of the middle half of the set-ups' CPU times, with
/// their quartiles. On a host whose speed switches between two levels every
/// few seconds, set-up times are bimodal and their median jumps from one
/// level to the other with the share of time spent in each; this mean
/// follows that share smoothly and still ignores stray outliers.
fn setup_metric(xs: &[f64]) -> Metric {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    Metric {
        name: "setup_s",
        unit: "s",
        value: middle.iter().sum::<f64>() / middle.len() as f64,
        spread: Some(summarize(xs)),
    }
}

/// `--trace 0`: end-to-end metrics.
fn end_to_end(args: &Args, nproc: usize, checks: &mut Checks) -> Vec<Metric> {
    let w = &args.workload;
    let threads = w.threads(nproc);
    let chain = check_chain(w, args.seed, nproc, checks);

    let quality = (1..QUALITY_CHAINS)
        .map(|i| {
            let seed = args
                .seed
                .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (model, untrained, _) = workload::engine_chain(w, seed, threads, CHECK_SWEEPS);
            model.quality_loss(&untrained)
        })
        .sum::<f64>()
        + chain.quality;

    // Set-up CPU time includes the pool threads it spawns: they are live
    // when it ends.
    let setup = || {
        let cpu = stats::cpu_ns();
        let r = Running::setup(w, args.seed, threads);
        (r, stats::cpu_ns().saturating_sub(cpu) as f64 * 1e-9)
    };
    let (mut running, first) = setup();
    let mut setups = vec![first];
    let vars = running.vars();
    let mut times = Vec::new();
    running.timed_block(1, &mut times);
    let n = block_len(times[0]);
    times.clear();
    let mut blocks = Vec::new();
    let start = Instant::now();
    let every = Duration::from_secs_f64(args.seconds / SETUPS as f64);
    let deadline = start + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        blocks.push((n, running.timed_block(n, &mut times)));
        if setups.len() < SETUPS && start.elapsed() >= every * setups.len() as u32 {
            setups.push(setup().1);
        }
    }
    drop(running);

    let wall = summarize(&times);
    println!(
        "wall-clock samples/s {:.0} (per-sweep q1 {:.0}, q3 {:.0}, {} sweeps)",
        (vars * times.len()) as f64 / times.iter().sum::<f64>(),
        vars as f64 / wall.q3,
        vars as f64 / wall.q1,
        wall.n
    );
    println!("seed chain after {CHECK_SWEEPS} sweeps: {}", chain.detail);
    let t = chain.tally;
    vec![
        samples_per_cpu_s(vars, threads, &blocks),
        setup_metric(&setups),
        metric(
            "peak_rss_mb",
            "MiB",
            stats::peak_rss_mb().unwrap_or(f64::NAN),
        ),
        metric(
            "modeled_cycles_per_sample",
            "cycles",
            t.modeled_cycles() as f64 / t.updates as f64,
        ),
        metric("quality_loss", "loss", quality / QUALITY_CHAINS as f64),
    ]
}

/// Per-sweep wall times of the interleaved variants of a traced run.
#[derive(Default)]
struct Variants {
    /// Engine at the workload's thread count, `NoopRecorder`.
    engine: Vec<f64>,
    /// Chromatic engine at 1 thread (chromatic workloads only).
    engine_1: Vec<f64>,
    /// Engine with a `SpanProfiler` armed.
    profiled: Vec<f64>,
    /// Replica, tracing off.
    replica: Vec<f64>,
    /// Replica, tracing on.
    traced: Vec<f64>,
    /// Pool busy ns during the `engine` blocks.
    pool_busy_ns: u64,
    /// Wall ns of the `engine` blocks.
    engine_wall_ns: u64,
}

/// Time `n` replica sweeps, one sample per sweep.
fn time_each(n: u64, times: &mut Vec<f64>, mut sweep: impl FnMut()) {
    for _ in 0..n {
        let t = Instant::now();
        sweep();
        times.push(t.elapsed().as_secs_f64());
    }
}

/// Interleave the sequential variants block by block until `budget` is
/// spent; returns the captured rows of one sweep and the traced replica's
/// tally.
fn traced_seq(
    w: &Workload,
    seed: u64,
    budget: Duration,
    spans: &mut Spans,
    v: &mut Variants,
) -> (Capture, Tally, usize) {
    let mut model = w.build(seed);
    let mut engine = workload::seq_engine(seed);
    let prof = SpanProfiler::new(1);
    let mut profiled = GibbsEngine::with_recorder(
        workload::seq_pipeline(),
        TreeSampler::new(),
        SplitMix64::new(seed ^ 1),
        &prof,
    );
    let mut replica = SeqReplica::new(workload::seq_pipeline(), seed ^ 2);
    let mut traced = SeqReplica::new(workload::seq_pipeline(), seed ^ 3);

    replica.capture = Some(Capture::default());
    let t = Instant::now();
    replica.sweep(model.gibbs(), &mut Off);
    let n = block_len(t.elapsed().as_secs_f64());
    let capture = replica.capture.take().expect("capture set");
    profiled.run(model.gibbs(), 1);
    traced.sweep(model.gibbs(), &mut Off);

    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        let t = Instant::now();
        let mut tick = ticker(&mut v.engine);
        engine.run_observed(model.gibbs(), n, |_, _| tick());
        v.engine_wall_ns += t.elapsed().as_nanos() as u64;
        let mut tick = ticker(&mut v.profiled);
        profiled.run_observed(model.gibbs(), n, |_, _| tick());
        time_each(n, &mut v.replica, || replica.sweep(model.gibbs(), &mut Off));
        time_each(n, &mut v.traced, || traced.sweep(model.gibbs(), spans));
    }
    (capture, traced.tally, model.num_variables())
}

/// Chromatic counterpart of [`traced_seq`]: adds the 1-thread engine and
/// pool accounting.
fn traced_chrom(
    w: &Workload,
    seed: u64,
    nproc: usize,
    budget: Duration,
    spans: &mut Spans,
    v: &mut Variants,
) -> (Capture, Tally, usize) {
    let Model::Mrf(mut app) = w.build(seed) else {
        unreachable!("chromatic workloads are MRFs")
    };
    let mrf = &mut app.mrf;
    let classes = mrf.color_classes();
    let engine = workload::chrom_engine(seed, nproc);
    let engine_1 = workload::chrom_engine(seed, 1);
    let prof = SpanProfiler::new(nproc + 1);
    let profiled = ChromaticEngine::with_recorder(workload::chrom_pipeline(), nproc, seed, &prof);
    let mut replica = ChromReplica::new(workload::chrom_pipeline(), seed, BATCH_ROWS);
    let mut traced = ChromReplica::new(workload::chrom_pipeline(), seed, BATCH_ROWS);

    replica.capture = Some(Capture::default());
    let t = Instant::now();
    replica.sweep(mrf, &classes, 0, &mut Off);
    let n = block_len(t.elapsed().as_secs_f64());
    let capture = replica.capture.take().expect("capture set");
    engine.run(mrf, 1);
    engine_1.run(mrf, 1);
    profiled.run(mrf, 1);
    traced.sweep(mrf, &classes, 0, &mut Off);

    let deadline = Instant::now() + budget;
    let mut it = 1;
    while Instant::now() < deadline {
        let busy = engine.pool_busy_ns();
        let t = Instant::now();
        let mut tick = ticker(&mut v.engine);
        engine.run_observed(mrf, n, |_, _| tick());
        v.engine_wall_ns += t.elapsed().as_nanos() as u64;
        v.pool_busy_ns += engine.pool_busy_ns() - busy;
        let mut tick = ticker(&mut v.engine_1);
        engine_1.run_observed(mrf, n, |_, _| tick());
        let mut tick = ticker(&mut v.profiled);
        profiled.run_observed(mrf, n, |_, _| tick());
        time_each(n, &mut v.replica, || {
            replica.sweep(mrf, &classes, it, &mut Off);
            it += 1;
        });
        time_each(n, &mut v.traced, || {
            traced.sweep(mrf, &classes, it, spans);
            it += 1;
        });
    }
    (capture, traced.tally, mrf.num_variables())
}

/// `--trace 1`: per-layer metrics.
fn per_layer(args: &Args, nproc: usize, checks: &mut Checks) -> Vec<Metric> {
    let w = &args.workload;
    let threads = w.threads(nproc);
    let chain = check_chain(w, args.seed, nproc, checks);

    let sweep_budget = Duration::from_secs_f64(args.seconds * 0.75);
    let replay_budget = Duration::from_secs_f64(args.seconds * 0.05);
    let mut spans = Spans::new(KEEP_SPANS);
    let mut v = Variants::default();
    let (capture, tr, vars) = match w.schedule {
        Schedule::Sequential => traced_seq(w, args.seed, sweep_budget, &mut spans, &mut v),
        Schedule::Chromatic => traced_chrom(w, args.seed, nproc, sweep_budget, &mut spans, &mut v),
    };

    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let u = tr.updates;
    let gather = per(spans.self_ns(Layer::Gather), u);
    let update = per(spans.self_ns(Layer::Pu), u);
    let pg_scalar = per(spans.self_ns(Layer::Pg), spans.calls(Layer::Pg));
    let pg_batch = per(spans.self_ns(Layer::PgBatch), tr.pg_rows);
    let pg = per(spans.self_ns(Layer::Pg) + spans.self_ns(Layer::PgBatch), u);
    let sd = per(spans.self_ns(Layer::Sd) + spans.self_ns(Layer::SdRows), u);
    let sweep_self = per(spans.self_ns(Layer::Sweep), u);
    let layers = gather + pg + sd + update;

    let (stride, replay_pipeline): (usize, Box<dyn coopmc_core::pipeline::ProbabilityPipeline>) =
        match w.schedule {
            Schedule::Sequential => (1, workload::seq_pipeline()),
            Schedule::Chromatic => (BATCH_ROWS, Box::new(workload::chrom_pipeline())),
        };
    let costs = replay::replay(
        &capture,
        &*replay_pipeline,
        BATCH_ROWS,
        stride,
        &mut spans,
        replay_budget,
    );
    let path = args.out.join(format!("spans-{}.tsv", w.name));
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|_| spans.write_tsv(&path)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }

    // Means, not medians: the variants alternate block by block, so each
    // sees the same mix of host speed, and a mean follows that mix
    // smoothly where a median jumps between modes.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    // The replica runs on one thread, so it is compared with the 1-thread
    // engine of the same schedule.
    let reference = match w.schedule {
        Schedule::Sequential => &v.engine,
        Schedule::Chromatic => &v.engine_1,
    };
    let ref_ns_per_var = mean(reference) * 1e9 / vars as f64;
    let replica_ns_per_var = mean(&v.replica) * 1e9 / vars as f64;
    let traced_ns_per_var = mean(&v.traced) * 1e9 / vars as f64;
    let sweep = summarize(&v.engine);
    let c = chain.tally;
    let cu = c.updates as f64;
    let (pg_ns_per_var, pg_batch_ns_per_row) = match w.schedule {
        Schedule::Sequential => (pg_scalar, costs.pg_batch_per_row),
        Schedule::Chromatic => (costs.pg_per_var, pg_batch),
    };
    let (busy_frac, scaling_eff) = match w.schedule {
        Schedule::Sequential => (0.0, 1.0),
        Schedule::Chromatic => (
            v.pool_busy_ns as f64 / (threads as f64 * v.engine_wall_ns as f64),
            mean(&v.engine_1) / (threads as f64 * mean(&v.engine)),
        ),
    };

    println!(
        "accounting (ns/var): untraced engine {ref_ns_per_var:.1} = engine overhead {:.1} \
         + untraced replica {replica_ns_per_var:.1}; replica = layers {layers:.1} (gather \
         {gather:.1} + pg {pg:.1} + sd {sd:.1} + pu {update:.1}) + loop {:.1}; traced replica \
         {traced_ns_per_var:.1} (sweep self {sweep_self:.1}, clock floor {:.1} ns per span \
         taken off each layer)",
        ref_ns_per_var - replica_ns_per_var,
        replica_ns_per_var - layers,
        spans.floor_ns(),
    );
    println!(
        "table II split: host pg {:.1}% sd {:.1}% pu {:.1}% | modeled pg {:.1}% sd {:.1}% pu {:.1}%",
        100.0 * (gather + pg) / layers,
        100.0 * sd / layers,
        100.0 * update / layers,
        100.0 * c.pg_cycles as f64 / c.modeled_cycles() as f64,
        100.0 * c.sd_cycles as f64 / c.modeled_cycles() as f64,
        100.0 * (c.modeled_cycles() - c.pg_cycles - c.sd_cycles) as f64
            / c.modeled_cycles() as f64,
    );

    let ns = "ns";
    vec![
        metric("models.gather_ns_per_var", ns, gather),
        metric("models.update_ns_per_var", ns, update),
        metric("pipeline.pg_ns_per_var", ns, pg_ns_per_var),
        metric("pipeline.pg_batch_ns_per_row", ns, pg_batch_ns_per_row),
        metric(
            "pipeline.rows_per_call",
            "count",
            c.pg_rows as f64 / c.pg_calls as f64,
        ),
        metric("kernels.log_ns_per_factor", ns, costs.log_per_factor),
        metric(
            "kernels.factors_per_var",
            "count",
            costs.factors as f64 / vars as f64,
        ),
        metric("kernels.dynorm_ns_per_row", ns, costs.dynorm_per_row),
        metric("kernels.exp_ns_per_elem", ns, costs.exp_per_elem),
        metric("sampler.sd_ns_per_var", ns, sd),
        metric("sampler.fallback_frac", "frac", c.fallbacks as f64 / cu),
        metric(
            "engine.overhead_ns_per_var",
            ns,
            ref_ns_per_var - replica_ns_per_var,
        ),
        metric("engine.flip_frac", "frac", c.flips as f64 / cu),
        metric("pool.busy_frac", "frac", busy_frac),
        metric("parallel.scaling_eff", "frac", scaling_eff),
        metric("hw.pg_cycles_per_var", "cycles", c.pg_cycles as f64 / cu),
        metric("hw.sd_cycles_per_var", "cycles", c.sd_cycles as f64 / cu),
        metric(
            "hw.pg_cycle_frac",
            "frac",
            c.pg_cycles as f64 / c.modeled_cycles() as f64,
        ),
        metric("host.pg_time_frac", "frac", (gather + pg) / layers),
        metric(
            "obs.profiled_slowdown",
            "ratio",
            mean(&v.profiled) / mean(&v.engine),
        ),
        Metric {
            name: "sweep.ms_p90",
            unit: "ms",
            value: sweep.p90 * 1e3,
            spread: Some(Summary {
                n: sweep.n,
                q1: sweep.q1 * 1e3,
                median: sweep.median * 1e3,
                q3: sweep.q3 * 1e3,
                p90: sweep.p90 * 1e3,
            }),
        },
        metric("sweep.samples", "count", sweep.n as f64),
        metric("sweep.samples_per_s", "1/s", vars as f64 / mean(&v.engine)),
        metric(
            "trace.overhead",
            "ratio",
            traced_ns_per_var / ref_ns_per_var - 1.0,
        ),
        metric("trace.layer_coverage", "ratio", layers / replica_ns_per_var),
    ]
}

/// JSON number, or `null` for a non-finite value.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut checks = Checks::default();
    let w = args.workload;
    println!(
        "workload {} ({} x{}, {:?}, {} thread(s) of {nproc}) seed {} seconds {} trace {}",
        w.name,
        w.spec,
        w.scale,
        w.schedule,
        w.threads(nproc),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics = if args.trace {
        per_layer(&args, nproc, &mut checks)
    } else {
        end_to_end(&args, nproc, &mut checks)
    };

    println!(
        "{:<32} {:>8} {:>14} {:>14} {:>14} {:>7}",
        "metric", "unit", "value", "q1", "q3", "n"
    );
    for m in &metrics {
        let (q1, q3, n) = m
            .spread
            .map_or((m.value, m.value, 1), |s| (s.q1, s.q3, s.n));
        println!(
            "{:<32} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>7}",
            m.name, m.unit, m.value, q1, q3, n
        );
    }
    println!(
        "failed_frac {} ({} of {} checks failed)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }

    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"threads\":{},\"nproc\":{nproc},\
         \"checks\":{{\"attempted\":{},\"failed\":{},\"failures\":[{}]}},\"metrics\":[",
        json_str(w.name),
        args.seed,
        u8::from(args.trace),
        w.threads(nproc),
        checks.attempted,
        checks.failed,
        checks
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (i, m) in metrics.iter().enumerate() {
        let (q1, q3, n) = m
            .spread
            .map_or((m.value, m.value, 1), |s| (s.q1, s.q3, s.n));
        let _ = write!(
            line,
            "{}{{\"name\":{},\"unit\":{},\"value\":{},\"q1\":{},\"q3\":{},\"n\":{n}}}",
            if i > 0 { "," } else { "" },
            json_str(m.name),
            json_str(m.unit),
            num(m.value),
            num(q1),
            num(q3),
        );
    }
    line.push_str("]}");
    println!("{line}");
    if checks.failed > 0 || checks.attempted == 0 {
        std::process::exit(1);
    }
}
