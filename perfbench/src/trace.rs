//! Span recording at the benchmark's own calls into each layer.
//!
//! The benchmark wraps every public call it makes into the library (model
//! gather and update, PG, SD, the `kernels` functions) in a span of the
//! [`Layer`] it enters. A span records its layer, its start and end, the
//! span that caused it and the identifier of its trace (one per sweep or
//! replay pass). Spans live in memory and are written out when the run
//! ends; each layer's self time is derived from them (duration minus the
//! part covered by child spans).
//!
//! Replicas are generic over [`Tracer`]. [`Off`] compiles every hook to
//! nothing, so the same loop serves as the untraced reference and as the
//! traced run.

use std::io::Write;
use std::time::Instant;

/// A layer boundary the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole sweep (root span).
    Sweep,
    /// `GibbsModel::begin_resample` + `scores_into`.
    Gather,
    /// `ProbabilityPipeline::generate_into`.
    Pg,
    /// `ProbabilityPipeline::generate_batch_into`.
    PgBatch,
    /// `Sampler::sample_into`.
    Sd,
    /// `Sampler::sample_rows_into`.
    SdRows,
    /// `GibbsModel::update`.
    Pu,
    /// One replay pass over captured inputs (root span).
    Replay,
    /// `LogKernel::log` of `TableLog`, replayed.
    KernelLog,
    /// `dynorm_apply`, replayed.
    KernelDynorm,
    /// `TableExp::exp_batch_into`, replayed.
    KernelExp,
}

/// Number of [`Layer`]s.
pub const N_LAYERS: usize = 11;

impl Layer {
    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sweep => "sweep",
            Layer::Gather => "models.gather",
            Layer::Pg => "pipeline.generate_into",
            Layer::PgBatch => "pipeline.generate_batch_into",
            Layer::Sd => "sampler.sample_into",
            Layer::SdRows => "sampler.sample_rows_into",
            Layer::Pu => "models.update",
            Layer::Replay => "replay",
            Layer::KernelLog => "kernels.table_log",
            Layer::KernelDynorm => "kernels.dynorm_apply",
            Layer::KernelExp => "kernels.exp_batch_into",
        }
    }
}

/// Hooks a replica calls at each layer boundary.
pub trait Tracer {
    /// Current time in nanoseconds (0 when tracing is off).
    fn now(&self) -> u64;
    /// Open a root span with a fresh trace identifier.
    fn open(&mut self, layer: Layer);
    /// Close the open root span.
    fn close(&mut self);
    /// Record a child span of the open root.
    fn leaf(&mut self, layer: Layer, start_ns: u64, end_ns: u64);
}

/// Tracing off: every hook is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn open(&mut self, _: Layer) {}
    #[inline(always)]
    fn close(&mut self) {}
    #[inline(always)]
    fn leaf(&mut self, _: Layer, _: u64, _: u64) {}
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Trace identifier (one per sweep or replay pass).
    pub trace_id: u32,
    /// Index of the causing span, `u32::MAX` for a root.
    pub parent: u32,
    /// The layer entered.
    pub layer: Layer,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// In-memory span recorder with per-layer self-time aggregates.
///
/// A span's measured duration includes about one clock read. When a trace
/// opens, the median duration of a few empty spans (two back-to-back reads)
/// is measured, and it is taken off every child span of that trace, so the
/// layers are not charged for the tracing even as the host's speed drifts;
/// that share stays in the root's self time.
///
/// The first trace, and the later ones that fit in `keep` spans, stay in
/// memory for [`Spans::write_tsv`]; the rest are folded into the
/// aggregates when they close and then released, so a long traced run has
/// bounded memory.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    keep: usize,
    root: Option<usize>,
    next_trace: u32,
    dropped_traces: u64,
    self_ns: [u64; N_LAYERS],
    calls: [u64; N_LAYERS],
    child_scratch: Vec<u64>,
    /// Empty-span duration measured when the open trace opened.
    floor_ns: u64,
    /// Sum of `floor_ns` over every trace, for the mean.
    floor_total_ns: u64,
}

impl Spans {
    /// A recorder that keeps up to `keep` spans for write-out.
    pub fn new(keep: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(keep.min(1 << 20)),
            keep,
            root: None,
            next_trace: 0,
            dropped_traces: 0,
            self_ns: [0; N_LAYERS],
            calls: [0; N_LAYERS],
            child_scratch: Vec::new(),
            floor_ns: 0,
            floor_total_ns: 0,
        }
    }

    /// Mean empty-span duration taken off each child span, in ns.
    pub fn floor_ns(&self) -> f64 {
        self.floor_total_ns as f64 / f64::from(self.next_trace.max(1))
    }

    /// Median duration of a few empty spans.
    fn empty_span_ns(&self) -> u64 {
        let mut d = [0u64; 15];
        for x in &mut d {
            let a = self.now();
            *x = self.now() - a;
        }
        d.sort_unstable();
        d[d.len() / 2]
    }

    /// Self time of `layer` summed over every closed trace, in ns.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Closed spans of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Fold the spans of the trace rooted at `root` into the aggregates:
    /// self time = duration (less the clock floor for a child span) − time
    /// covered by direct children.
    fn fold(&mut self, root: usize, floor: u64) {
        let n = self.spans.len() - root;
        self.child_scratch.clear();
        self.child_scratch.resize(n, 0);
        let net = |s: &Span| {
            let dur = s.end_ns - s.start_ns;
            if s.parent == u32::MAX {
                dur
            } else {
                dur.saturating_sub(floor)
            }
        };
        for s in &self.spans[root + 1..] {
            self.child_scratch[s.parent as usize - root] += net(s);
        }
        for (k, s) in self.spans[root..].iter().enumerate() {
            self.self_ns[s.layer as usize] += net(s).saturating_sub(self.child_scratch[k]);
            self.calls[s.layer as usize] += 1;
        }
    }

    /// Write every kept span as tab-separated
    /// `trace_id span parent name start_ns end_ns` lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        writeln!(
            w,
            "# dropped_traces={} (folded into aggregates, not kept)",
            self.dropped_traces
        )?;
        writeln!(w, "trace_id\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.trace_id,
                i,
                parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

impl Tracer for Spans {
    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer) {
        assert!(self.root.is_none(), "root span already open");
        self.floor_ns = self.empty_span_ns();
        self.floor_total_ns += self.floor_ns;
        let now = self.now();
        self.root = Some(self.spans.len());
        self.spans.push(Span {
            trace_id: self.next_trace,
            parent: u32::MAX,
            layer,
            start_ns: now,
            end_ns: now,
        });
        self.next_trace += 1;
    }

    fn close(&mut self) {
        let root = self.root.take().expect("no open root span");
        self.spans[root].end_ns = self.now();
        self.fold(root, self.floor_ns);
        // The first trace is always kept whole, however long.
        if root > 0 && self.spans.len() > self.keep {
            self.spans.truncate(root);
            self.dropped_traces += 1;
        }
    }

    #[inline]
    fn leaf(&mut self, layer: Layer, start_ns: u64, end_ns: u64) {
        let root = self.root.expect("leaf span outside a root span");
        self.spans.push(Span {
            trace_id: self.spans[root].trace_id,
            parent: root as u32,
            layer,
            start_ns,
            end_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(100);
        s.root = Some(0);
        s.spans.push(Span {
            trace_id: 0,
            parent: u32::MAX,
            layer: Layer::Sweep,
            start_ns: 0,
            end_ns: 40,
        });
        s.leaf(Layer::Gather, 0, 10);
        s.leaf(Layer::Pg, 10, 30);
        s.fold(0, 2);
        assert_eq!(s.self_ns(Layer::Gather), 8);
        assert_eq!(s.self_ns(Layer::Pg), 18);
        assert_eq!(s.self_ns(Layer::Sweep), 40 - 8 - 18);
        assert_eq!(s.calls(Layer::Sweep), 1);
    }

    #[test]
    fn traces_beyond_keep_are_folded_then_released() {
        let mut s = Spans::new(1);
        for _ in 0..3 {
            s.open(Layer::Sweep);
            let t = s.now();
            s.leaf(Layer::Pu, t, t);
            s.close();
        }
        assert_eq!(s.spans.len(), 2, "the first trace stays whole");
        assert_eq!(s.calls(Layer::Pu), 3);
        assert_eq!(s.dropped_traces, 2);
    }
}
