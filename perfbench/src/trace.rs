//! The traced run's recorders: in-memory spans around each call into the
//! simulator, and per-step counter deltas for stepped Jord servers.
//! Everything stays in memory until [`Tracer::write`] at exit.

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use jord_core::WorkerServer;
use jord_privlib::OpKind;

/// One timed call: name, host start and end (ns since the tracer was
/// created) and the index of its parent span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: Cow<'static, str>,
    /// Start, host ns.
    pub start_ns: u64,
    /// End, host ns.
    pub end_ns: u64,
    /// Parent span index, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span length in host seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans and step records.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span, in the order it was opened.
    pub spans: Vec<Span>,
    /// Every recorded step, with the index of its run span.
    pub steps: Vec<(usize, StepRecord)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            steps: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<Cow<'static, str>>, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` under `parent`, returning its
    /// result and the span's length in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        (out, self.spans[id].secs())
    }

    /// Drives a begun Jord server to quiescence, one span and one
    /// [`StepRecord`] per `step` call, all under the run span `parent`.
    pub fn step_all(&mut self, server: &mut WorkerServer, parent: usize) {
        let mut before = Counters::read(server);
        loop {
            let id = self.open("step", Some(parent));
            let more = server.step();
            self.close(id);
            if !more {
                break;
            }
            let after = Counters::read(server);
            self.steps.push((
                parent,
                StepRecord {
                    ns: self.spans[id].end_ns - self.spans[id].start_ns,
                    delta: after.minus(&before),
                },
            ));
            before = after;
        }
    }

    /// Writes every span and step record as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (run, r) in &self.steps {
            let d = &r.delta;
            writeln!(
                out,
                "{{\"step_of\":{run},\"ns\":{},\"ops\":{:?},\"coh_accesses\":{},\"coh_invalidations\":{},\
                 \"vtd_exact\":{},\"vtd_fallback\":{},\"ivlb\":[{},{}],\"dvlb\":[{},{}],\
                 \"pops\":{},\"rebucketed\":{},\"sorts\":{},\"overflowed\":{},\"trace\":{}}}",
                r.ns,
                d.ops,
                d.coh_accesses,
                d.coh_invalidations,
                d.vtd_exact,
                d.vtd_fallback,
                d.ivlb_hits,
                d.ivlb_misses,
                d.dvlb_hits,
                d.dvlb_misses,
                d.pops,
                d.rebucketed,
                d.sorts,
                d.overflowed,
                d.trace,
            )?;
        }
        out.flush()
    }
}

/// Host time of one `step` call and the counters it advanced.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// Host ns inside `step`.
    pub ns: u64,
    /// Counter deltas across the step.
    pub delta: Counters,
}

/// The simulator's cumulative work counters, read without scanning any
/// table: PrivLib op counts, hardware-model counters, event-queue probe
/// and lifecycle-trace length.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// PrivLib ops by [`OpKind::ALL`] order.
    pub ops: [u64; 9],
    /// Coherence accesses (L1 hits + LLC fills + forwards).
    pub coh_accesses: u64,
    /// Coherence invalidations.
    pub coh_invalidations: u64,
    /// VTD exact shootdowns.
    pub vtd_exact: u64,
    /// VTD fallback (broadcast) shootdowns.
    pub vtd_fallback: u64,
    /// I-VLB hits.
    pub ivlb_hits: u64,
    /// I-VLB misses.
    pub ivlb_misses: u64,
    /// D-VLB hits.
    pub dvlb_hits: u64,
    /// D-VLB misses.
    pub dvlb_misses: u64,
    /// Events popped.
    pub pops: u64,
    /// Keys re-bucketed.
    pub rebucketed: u64,
    /// Bucket sorts.
    pub sorts: u64,
    /// Keys sent to the overflow heap.
    pub overflowed: u64,
    /// Lifecycle events published.
    pub trace: u64,
}

impl Counters {
    /// Reads a Jord server's counters.
    pub fn read(server: &WorkerServer) -> Counters {
        let mut c = Counters::from_machine(&server.machine().stats());
        let stats = server.privlib().stats();
        for (slot, kind) in c.ops.iter_mut().zip(OpKind::ALL) {
            *slot = stats.count(kind);
        }
        let q = server.queue_probe();
        c.pops = q.popped;
        c.rebucketed = q.rebucketed;
        c.sorts = q.sorts;
        c.overflowed = q.overflowed;
        c.trace = server.trace_len();
        c
    }

    /// The hardware-model part of the counters.
    pub fn from_machine(hw: &jord_hw::HwStats) -> Counters {
        let coh = hw.coherence;
        Counters {
            coh_accesses: coh.l1_hits + coh.llc_fills + coh.forwards,
            coh_invalidations: coh.invalidations,
            vtd_exact: hw.vtd.exact_shootdowns,
            vtd_fallback: hw.vtd.fallback_shootdowns,
            ivlb_hits: hw.ivlb.hits,
            ivlb_misses: hw.ivlb.misses,
            dvlb_hits: hw.dvlb.hits,
            dvlb_misses: hw.dvlb.misses,
            ..Counters::default()
        }
    }

    /// `self - earlier`, field by field.
    pub fn minus(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |a, b| a - b)
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }

    fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            ops: std::array::from_fn(|i| f(self.ops[i], o.ops[i])),
            coh_accesses: f(self.coh_accesses, o.coh_accesses),
            coh_invalidations: f(self.coh_invalidations, o.coh_invalidations),
            vtd_exact: f(self.vtd_exact, o.vtd_exact),
            vtd_fallback: f(self.vtd_fallback, o.vtd_fallback),
            ivlb_hits: f(self.ivlb_hits, o.ivlb_hits),
            ivlb_misses: f(self.ivlb_misses, o.ivlb_misses),
            dvlb_hits: f(self.dvlb_hits, o.dvlb_hits),
            dvlb_misses: f(self.dvlb_misses, o.dvlb_misses),
            pops: f(self.pops, o.pops),
            rebucketed: f(self.rebucketed, o.rebucketed),
            sorts: f(self.sorts, o.sorts),
            overflowed: f(self.overflowed, o.overflowed),
            trace: f(self.trace, o.trace),
        }
    }

    /// Whether any PrivLib op advanced.
    pub fn any_op(&self) -> bool {
        self.ops.iter().any(|&n| n > 0)
    }

    /// Ops of `kind`.
    pub fn op(&self, kind: OpKind) -> u64 {
        let i = OpKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("OpKind::ALL lists every kind");
        self.ops[i]
    }
}

/// Where a set-up phase is recorded: the tracer and the run span to nest
/// under, or nowhere (the timed run).
pub type Ctx<'a> = Option<(&'a mut Tracer, usize)>;

/// Runs one phase of a simulated run, as a span when tracing and plainly
/// timed otherwise; returns its result and host seconds.
pub fn phase<T>(ctx: &mut Ctx<'_>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match ctx {
        Some((tracer, parent)) => tracer.span(name, *parent, f),
        None => crate::measure::timed(f),
    }
}
