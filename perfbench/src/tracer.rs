//! In-memory span recorder for the traced run.
//!
//! A span has a layer, an operation, a start, an end, a parent and the
//! slot it ran in (the id every span of one slot shares). Self time is a
//! span's duration minus the durations of its children, and the same
//! split is made for the allocation counter. Totals are folded in as each
//! span closes; the raw spans go to a log whose capacity is fixed up
//! front, so recording never allocates and never perturbs the counts it
//! takes. The log is written out after the run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use fifoms_types::SpanSample;

use crate::alloc::allocations;

/// What a span wraps: an engine phase the benchmark drives, or one
/// switch layer reached through a [`Shim`](crate::shim::Shim).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// One whole slot (the root of every other span).
    Slot,
    /// `TrafficModel::next_slot`.
    Traffic,
    /// `RecoveryRuntime::record_arrivals` (the per-slot WAL append).
    Wal,
    /// `RecoveryRuntime::write_checkpoint` and its event.
    Checkpoint,
    /// The overload-control pass: `OverloadGovernor::observe` and the
    /// deferral/trim walk over the slot's arrivals.
    Overload,
    /// `Telemetry::observe_event` / `record_slot` / `close_window`.
    Telemetry,
    /// Queue sampling and the delay, occupancy and saturation recorders.
    Stats,
    /// `CheckedSwitch` (fifoms-fabric).
    Checked,
    /// `FaultyFabric` (fifoms-fabric).
    Faulty,
    /// `InstrumentedSwitch` (fifoms-fabric).
    Instrumented,
    /// `MulticastVoqSwitch`, the FIFOMS switch (fifoms-core).
    Core,
    /// `IslipSwitch` (fifoms-baselines).
    Islip,
}

impl Layer {
    const COUNT: usize = 12;

    /// Stable name used in the span log.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Slot => "slot",
            Layer::Traffic => "traffic",
            Layer::Wal => "recover.wal",
            Layer::Checkpoint => "recover.checkpoint",
            Layer::Overload => "overload",
            Layer::Telemetry => "obs.telemetry",
            Layer::Stats => "stats",
            Layer::Checked => "fabric.checked",
            Layer::Faulty => "fabric.faulty",
            Layer::Instrumented => "fabric.instrumented",
            Layer::Core => "core",
            Layer::Islip => "islip",
        }
    }
}

/// The operation a span covers: `Phase` for engine phases, otherwise the
/// `Switch` method a shim forwarded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Phase,
    Admit,
    RunSlot,
    QueueSizes,
    Backlog,
    DrainEvents,
    EndOfRun,
    CopyFailed,
    DrainReconciledDrops,
    DrainAdmissionDrops,
    Backpressure,
    Recycle,
    QuarantinedPaths,
    ReserveSteadyState,
    SaveState,
    LoadState,
}

impl Op {
    const COUNT: usize = 16;

    /// Stable name used in the span log.
    pub fn name(self) -> &'static str {
        match self {
            Op::Phase => "phase",
            Op::Admit => "admit",
            Op::RunSlot => "run_slot",
            Op::QueueSizes => "queue_sizes",
            Op::Backlog => "backlog",
            Op::DrainEvents => "drain_events",
            Op::EndOfRun => "end_of_run",
            Op::CopyFailed => "copy_failed",
            Op::DrainReconciledDrops => "drain_reconciled_drops",
            Op::DrainAdmissionDrops => "drain_admission_drops",
            Op::Backpressure => "backpressure",
            Op::Recycle => "recycle",
            Op::QuarantinedPaths => "quarantined_paths",
            Op::ReserveSteadyState => "reserve_steady_state",
            Op::SaveState => "save_state",
            Op::LoadState => "load_state",
        }
    }
}

/// Totals of every closed span with one `(layer, op)` key.
#[derive(Clone, Copy, Default, Debug)]
pub struct Total {
    /// Spans closed.
    pub calls: u64,
    /// Summed durations.
    pub incl_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
    /// Allocation events inside the spans but outside their children.
    pub self_allocs: u64,
}

impl Total {
    fn add(&mut self, other: &Total) {
        self.calls += other.calls;
        self.incl_ns += other.incl_ns;
        self.self_ns += other.self_ns;
        self.self_allocs += other.self_allocs;
    }
}

/// One closed span as it appears in the log.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id within the run, starting at 1.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Slot the span ran in.
    pub slot: u64,
    /// Layer the span belongs to.
    pub layer: Layer,
    /// Operation within the layer.
    pub op: Op,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

struct Open {
    id: u32,
    parent: u32,
    layer: Layer,
    op: Op,
    start_ns: u64,
    allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

/// The recorder. Shared by the traced loop and every shim through a
/// [`TraceHandle`].
pub struct Tracer {
    epoch: Instant,
    slot: u64,
    next_id: u32,
    open: Vec<Open>,
    totals: [[Total; Op::COUNT]; Layer::COUNT],
    log: Vec<Span>,
    slot_ns: Vec<u64>,
    sub_phases: Vec<(&'static str, u64)>,
    busy: Option<(Layer, u64)>,
    child_cost_ns: u64,
    allocs_from_slot: u64,
}

impl Tracer {
    /// A recorder keeping up to `log_capacity` raw spans and the
    /// durations of up to `slots` slots.
    pub fn new(log_capacity: usize, slots: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            slot: 0,
            next_id: 1,
            open: Vec::with_capacity(32),
            totals: [[Total::default(); Op::COUNT]; Layer::COUNT],
            log: Vec::with_capacity(log_capacity),
            slot_ns: Vec::with_capacity(slots),
            sub_phases: Vec::with_capacity(16),
            busy: None,
            child_cost_ns: 0,
            allocs_from_slot: 0,
        }
    }

    /// Forget every span recorded so far (set-up calls, calibration).
    fn reset(&mut self) {
        self.next_id = 1;
        self.open.clear();
        self.totals = [[Total::default(); Op::COUNT]; Layer::COUNT];
        self.log.clear();
        self.slot_ns.clear();
        self.sub_phases.clear();
    }

    /// Measure what recording one child span adds to its parent's self
    /// time (the recorder's own bookkeeping around the child's clock
    /// reads), so that [`Tracer::exit`] can charge it to the child
    /// instead. Takes the fastest of several batches, so it never
    /// removes more than the recorder costs.
    fn calibrate(&mut self) {
        const CHILDREN: u64 = 1_000;
        let mut best = u64::MAX;
        for _ in 0..7 {
            let before = self.totals[Layer::Slot as usize][Op::Phase as usize].self_ns;
            self.enter(Layer::Slot, Op::Phase);
            for _ in 0..CHILDREN {
                self.enter(Layer::Traffic, Op::Phase);
                self.exit();
            }
            self.exit();
            let after = self.totals[Layer::Slot as usize][Op::Phase as usize].self_ns;
            best = best.min((after - before) / CHILDREN);
        }
        self.child_cost_ns = best;
        self.reset();
    }

    /// Recorder cost per child span, excluded from parents' self time.
    pub fn child_cost_ns(&self) -> u64 {
        self.child_cost_ns
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start the run proper: forget the set-up's spans, and count
    /// allocations only in spans of slot `allocs_from` and later, so a
    /// warm-up's one-off growth is left out.
    pub fn begin_run(&mut self, allocs_from: u64) {
        self.reset();
        self.allocs_from_slot = allocs_from;
    }

    /// Tag subsequent spans with `slot`.
    pub fn set_slot(&mut self, slot: u64) {
        self.slot = slot;
    }

    /// Open a span; it closes at the matching [`Tracer::exit`].
    pub fn enter(&mut self, layer: Layer, op: Op) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let parent = self.open.last().map_or(0, |o| o.id);
        let allocs = allocations();
        let start_ns = self.now_ns();
        self.open.push(Open {
            id,
            parent,
            layer,
            op,
            start_ns,
            allocs,
            child_ns: 0,
            child_allocs: 0,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let allocs = allocations();
        let Some(o) = self.open.pop() else {
            debug_assert!(false, "span exit without a matching enter");
            return;
        };
        let dur = end_ns.saturating_sub(o.start_ns);
        let incl_allocs = allocs.saturating_sub(o.allocs);
        let t = &mut self.totals[o.layer as usize][o.op as usize];
        t.calls += 1;
        t.incl_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
        if self.slot >= self.allocs_from_slot {
            t.self_allocs += incl_allocs.saturating_sub(o.child_allocs);
        }
        if let Some(p) = self.open.last_mut() {
            p.child_ns += dur + self.child_cost_ns;
            p.child_allocs += incl_allocs;
        }
        if o.layer == Layer::Slot && self.slot_ns.len() < self.slot_ns.capacity() {
            self.slot_ns.push(dur);
        }
        if self.log.len() < self.log.capacity() {
            self.log.push(Span {
                id: o.id,
                parent: o.parent,
                slot: self.slot,
                layer: o.layer,
                op: o.op,
                start_ns: o.start_ns,
                end_ns,
            });
        }
    }

    /// Fold the sub-phase samples a switch reported through
    /// `Switch::drain_spans` into per-name totals.
    pub fn add_sub_phases(&mut self, samples: &[SpanSample]) {
        for s in samples {
            match self.sub_phases.iter().position(|(name, _)| *name == s.name) {
                Some(i) => self.sub_phases[i].1 += s.ns,
                None if self.sub_phases.len() < self.sub_phases.capacity() => {
                    self.sub_phases.push((s.name, s.ns));
                }
                None => {}
            }
        }
    }

    /// Summed nanoseconds of the sub-phase `name` (0 if never reported).
    pub fn sub_phase_ns(&self, name: &str) -> u64 {
        self.sub_phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, ns)| *ns)
    }

    /// Totals of one `(layer, op)` key.
    pub fn total(&self, layer: Layer, op: Op) -> Total {
        self.totals[layer as usize][op as usize]
    }

    /// Totals of every operation of `layer`.
    pub fn layer_total(&self, layer: Layer) -> Total {
        let mut sum = Total::default();
        for t in &self.totals[layer as usize] {
            sum.add(t);
        }
        sum
    }

    /// Durations of the recorded slots, in slot order.
    pub fn slot_ns(&self) -> &[u64] {
        &self.slot_ns
    }

    /// Render the span log as tab-separated lines with a header.
    pub fn render_log(&self) -> String {
        let mut out = String::from("id\tparent\tslot\tlayer\top\tstart_ns\tend_ns\n");
        for s in &self.log {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.slot,
                s.layer.name(),
                s.op.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }

    /// The busy-wait a shim of `layer` adds to every `run_slot`.
    pub fn busy_wait_ns(&self, layer: Layer) -> u64 {
        match self.busy {
            Some((l, ns)) if l == layer => ns,
            _ => 0,
        }
    }
}

/// Shared handle on a [`Tracer`]. The benchmark is single-threaded, so
/// a `RefCell` is enough; no borrow is held across a call into a layer.
#[derive(Clone)]
pub struct TraceHandle(Rc<RefCell<Tracer>>);

impl TraceHandle {
    /// A fresh recorder (see [`Tracer::new`]).
    pub fn new(log_capacity: usize, slots: usize) -> TraceHandle {
        let mut tracer = Tracer::new(log_capacity, slots);
        tracer.calibrate();
        TraceHandle(Rc::new(RefCell::new(tracer)))
    }

    /// Make every shim of `layer` built afterwards spin for `ns` inside
    /// each `run_slot`. Used to check that the trace attributes time to
    /// the layer that spent it.
    pub fn with_busy_wait(self, layer: Layer, ns: u64) -> TraceHandle {
        self.0.borrow_mut().busy = Some((layer, ns));
        self
    }

    /// See [`Tracer::enter`].
    pub fn enter(&self, layer: Layer, op: Op) {
        self.0.borrow_mut().enter(layer, op);
    }

    /// See [`Tracer::exit`].
    pub fn exit(&self) {
        self.0.borrow_mut().exit();
    }

    /// See [`Tracer::set_slot`].
    pub fn set_slot(&self, slot: u64) {
        self.0.borrow_mut().set_slot(slot);
    }

    /// See [`Tracer::begin_run`].
    pub fn begin_run(&self, allocs_from: u64) {
        self.0.borrow_mut().begin_run(allocs_from);
    }

    /// See [`Tracer::add_sub_phases`].
    pub fn add_sub_phases(&self, samples: &[SpanSample]) {
        self.0.borrow_mut().add_sub_phases(samples);
    }

    /// Run `f` with shared access to the recorder.
    pub fn with<R>(&self, f: impl FnOnce(&Tracer) -> R) -> R {
        f(&self.0.borrow())
    }
}
