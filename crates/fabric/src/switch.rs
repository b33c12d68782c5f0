//! The switch abstraction driven by the simulation engine.

use fifoms_types::{
    frame_state, unframe_state, AdmissionDrop, Checkpoint, Departure, DroppedCopy, ObsEvent,
    Packet, PortId, RetryDisposition, Slot, SlotOutcome, SpanSample, StateError, StateReader,
    StateWriter,
};

/// Cells still queued inside a switch.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct Backlog {
    /// Distinct packets with at least one undelivered copy.
    pub packets: usize,
    /// Undelivered copies (a fanout-`k` packet with `j` copies delivered
    /// contributes `k - j`).
    pub copies: usize,
}

impl Backlog {
    /// Whether the switch is completely drained.
    pub fn is_empty(&self) -> bool {
        self.copies == 0
    }
}

/// A complete queueing-and-scheduling discipline for an `N×N` packet
/// switch, operated in synchronous slots.
///
/// The engine's per-slot protocol is:
///
/// 1. [`Switch::admit`] once for each packet arriving this slot (the
///    paper's *preprocessing* step — building address/data cells, VOQ
///    entries, or whatever the discipline queues);
/// 2. [`Switch::run_slot`] exactly once — the discipline computes its
///    matching, transfers cells across its fabric, performs
///    post-transmission processing, and reports the slot's
///    [`SlotOutcome`];
/// 3. [`Switch::queue_sizes`] / [`Switch::backlog`] for metric sampling.
///
/// Implementations must uphold **conservation**: every admitted packet
/// with fanout `k` eventually produces exactly `k`
/// [`Departure`](fifoms_types::Departure)s under continued `run_slot`
/// calls with no further admissions (no cell is lost or duplicated). The
/// integration suite verifies this for every switch in the workspace.
///
/// The last 13 methods are sideband hooks with default bodies, so a
/// discipline implements only what it supports. A type that wraps
/// another switch does not implement `Switch` by hand: it implements
/// [`Layer`], which forwards every hook to the inner switch unless the
/// layer overrides it, and gets `Switch` from the blanket
/// `impl<L: Layer> Switch for L`. A wrapper therefore cannot swallow an
/// inner switch's events, drops, spans, retries or state by forgetting
/// a forward.
pub trait Switch {
    /// Human-readable scheduler name (e.g. `"FIFOMS"`).
    fn name(&self) -> String;

    /// Switch size `N`.
    fn ports(&self) -> usize;

    /// Admit one arriving packet (called during the packet's arrival slot,
    /// before `run_slot`). The packet is eligible for scheduling in the
    /// same slot it arrives — the paper overlaps preprocessing with
    /// scheduling (§IV-C).
    fn admit(&mut self, packet: Packet);

    /// Execute slot `now`: schedule, transfer, post-process.
    fn run_slot(&mut self, now: Slot) -> SlotOutcome;

    /// Fill `out` with the queue-size metric samples, one per monitored
    /// port. For input-queued disciplines this is the number of *unsent
    /// packets held per input port* (data cells, per §V of the paper); for
    /// the output-queued baseline it is the per-output queue length.
    fn queue_sizes(&self, out: &mut Vec<usize>);

    /// Total queued packets/copies (for conservation checks and
    /// saturation detection).
    fn backlog(&self) -> Backlog;

    /// Move any buffered [`ObsEvent`]s into `out` (oldest first).
    ///
    /// The default is a no-op: plain schedulers buffer nothing and pay
    /// nothing. Observability layers ([`InstrumentedSwitch`],
    /// [`FaultyFabric`] with event recording enabled, [`CheckedSwitch`])
    /// hand over their own events *and* the inner switch's, so the
    /// engine sees one merged stream no matter how deeply a traced cell
    /// is nested.
    ///
    /// [`InstrumentedSwitch`]: crate::InstrumentedSwitch
    /// [`FaultyFabric`]: crate::FaultyFabric
    /// [`CheckedSwitch`]: crate::CheckedSwitch
    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        let _ = out;
    }

    /// Called once by the engine after the final slot of an *observed*
    /// run, immediately before the final [`Switch::drain_events`]. Lets
    /// wrappers that buffer events beyond the per-slot drain (the
    /// ring-buffer flight recorder of
    /// [`InstrumentedSwitch`](crate::InstrumentedSwitch)) move their
    /// retained events into the drain buffer. The default does nothing,
    /// and the engine only invokes it when a sink is attached, so
    /// unobserved runs cannot be perturbed.
    fn end_of_run(&mut self) {}

    /// An egress fault killed the transmission described by `d` (which
    /// this switch reported in the current slot's
    /// [`SlotOutcome`](fifoms_types::SlotOutcome)). With `requeue == true`
    /// the switch should re-queue the copy for retransmission at the head
    /// of its queue *with its original timestamp* and return
    /// [`RetryDisposition::Requeued`]; with `requeue == false` (retry
    /// budget exhausted) it should abandon the copy, reconcile its
    /// `fanoutCounter`, and return [`RetryDisposition::Dropped`].
    ///
    /// The default returns [`RetryDisposition::Unsupported`]: disciplines
    /// without a retransmission path make the fault injector account the
    /// copy as a structured drop instead.
    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        let _ = (d, now, requeue);
        RetryDisposition::Unsupported
    }

    /// Move the [`DroppedCopy`] records of copies abandoned since the
    /// last call into `out` (oldest first). Conservation checkers add
    /// these to the delivered count: under egress faults the law is
    /// `admitted == delivered + backlog + reconciled drops`. The default
    /// is a no-op.
    fn drain_reconciled_drops(&mut self, out: &mut Vec<DroppedCopy>) {
        let _ = out;
    }

    /// Move the [`AdmissionDrop`] records of copies refused or evicted by
    /// finite-buffer admission control since the last call into `out`
    /// (oldest first). With finite buffers the conservation law becomes
    /// `admitted == delivered + backlog + reconciled drops + admission
    /// drops`; checkers drain these records to account for the last term.
    /// The default is a no-op (unbounded switches never drop at
    /// admission).
    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        let _ = out;
    }

    /// Whether the switch asks the traffic source feeding `input` to
    /// pause: a finite-buffer switch raises this when the input's
    /// aggregate buffer is too full to guarantee room for a worst-case
    /// (full-fanout) arrival. Sources that honour the signal hold the
    /// offered cell and retry in a later slot instead of having it
    /// tail-dropped. The default is `false` (unbounded buffers never push
    /// back).
    fn backpressure(&self, input: PortId) -> bool {
        let _ = input;
        false
    }

    /// Ask the switch to time its internal scheduling sub-phases during
    /// subsequent [`Switch::run_slot`] calls (`on == true`) or stop
    /// (`on == false`). The profiling engine enables this only on sampled
    /// slots, so un-profiled runs never pay for a clock read. The default
    /// ignores the request: a switch with no sub-phase instrumentation
    /// simply reports nothing.
    fn set_span_recording(&mut self, on: bool) {
        let _ = on;
    }

    /// Move the [`SpanSample`]s recorded since the last call into `out`
    /// (appended; `out` is not cleared). Each sample names one scheduling
    /// sub-phase (e.g. `voq_scan`, `grant`) timed inside `run_slot` while
    /// span recording was on; the profiler attaches them as children of
    /// its `schedule` span. The default is a no-op. Must not allocate in
    /// steady state — implementations reuse their sample buffer.
    fn drain_spans(&mut self, out: &mut Vec<SpanSample>) {
        let _ = out;
    }

    /// Return a consumed [`SlotOutcome`] to the switch so its heap
    /// buffers (the departures vector) can be reused by the next
    /// `run_slot`, keeping the steady-state slot loop allocation-free.
    /// The engine calls this after it has finished reading the outcome.
    /// The default drops the outcome (correct, just not allocation-free).
    /// Implementations must not interpret the contents — `recycle` is a
    /// memory hand-back, not a signal.
    fn recycle(&mut self, outcome: SlotOutcome) {
        let _ = outcome;
    }

    /// Append the `(input, output)` paths currently quarantined by the
    /// switch's fault scoreboard to `out` (`out` is not cleared), in
    /// ascending `(input, output)` order. Live telemetry polls this at
    /// window close to render a per-input fault scoreboard; the caller
    /// pre-sizes `out`, so steady-state calls do not allocate. The
    /// default is a no-op (no scoreboard — nothing is ever quarantined).
    fn quarantined_paths(&self, now: Slot, out: &mut Vec<(PortId, PortId)>) {
        let _ = (now, out);
    }

    /// Pre-size every internal queue, pool and map for a steady state of
    /// up to `copies_per_voq` queued copies per VOQ, so a subsequent run
    /// performs no heap allocation until that occupancy is exceeded.
    /// An implementation whose storage is shared by all of an input's
    /// VOQs may size it for less than every VOQ full at once; it then
    /// states its own, weaker bound. Growth past the reservation still
    /// works (and still allocates) — this is a capacity hint for the
    /// allocation audit and latency-sensitive deployments, never an
    /// admission limit, so it must not change scheduling behavior. The
    /// default is a no-op.
    fn reserve_steady_state(&mut self, copies_per_voq: usize) {
        let _ = copies_per_voq;
    }

    /// Serialise the switch's complete mutable state into a framed,
    /// CRC-guarded blob (see [`fifoms_types::Checkpoint`]). The default
    /// reports [`StateError::Unsupported`]: a discipline that opted out of
    /// crash recovery fails a checkpointed run *loudly* at the first
    /// checkpoint instead of silently writing an empty snapshot. A layer
    /// with state of its own frames it around the inner switch's blob,
    /// so one blob restores the whole stack.
    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        Err(StateError::Unsupported {
            component: self.name(),
        })
    }

    /// Restore state captured by [`Switch::save_state`] into an
    /// identically configured switch. The default mirrors
    /// [`Switch::save_state`]'s refusal.
    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        let _ = blob;
        Err(StateError::Unsupported {
            component: self.name(),
        })
    }
}

/// A switch that wraps another switch: [`CheckedSwitch`],
/// [`FaultyFabric`], [`InstrumentedSwitch`], `Box<T>` and the like.
///
/// A layer names its inner switch and overrides only the hooks it
/// intercepts; every other method forwards to [`Layer::inner`] by
/// default. `impl<L: Layer> Switch for L` then makes the layer a
/// [`Switch`], so forwarding holds by construction: there is no
/// hand-written forward to forget. An intercepting hook still decides
/// for itself whether and when to call the inner switch's.
///
/// The hooks share [`Switch`]'s names and meanings. A method call on a
/// value that is a layer is ambiguous (E0034) wherever both traits are
/// in scope, so: call layers through `Switch` only, name this trait by
/// path where it is implemented (`impl fifoms_fabric::Layer for ...`),
/// and inside such an impl reach a boxed inner switch through
/// [`Layer::inner`] / [`Layer::inner_mut`] rather than the `Box` itself.
///
/// [`CheckedSwitch`]: crate::CheckedSwitch
/// [`FaultyFabric`]: crate::FaultyFabric
/// [`InstrumentedSwitch`]: crate::InstrumentedSwitch
#[allow(missing_docs)] // each hook is documented on `Switch`
pub trait Layer {
    /// The type of the wrapped switch (`dyn Switch` for a boxed one).
    type Inner: Switch + ?Sized;

    /// The wrapped switch.
    fn inner(&self) -> &Self::Inner;

    /// The wrapped switch, mutably.
    fn inner_mut(&mut self) -> &mut Self::Inner;

    fn name(&self) -> String {
        self.inner().name()
    }
    fn ports(&self) -> usize {
        self.inner().ports()
    }
    fn admit(&mut self, packet: Packet) {
        self.inner_mut().admit(packet)
    }
    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        self.inner_mut().run_slot(now)
    }
    fn queue_sizes(&self, out: &mut Vec<usize>) {
        self.inner().queue_sizes(out)
    }
    fn backlog(&self) -> Backlog {
        self.inner().backlog()
    }
    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        self.inner_mut().drain_events(out)
    }
    fn end_of_run(&mut self) {
        self.inner_mut().end_of_run()
    }
    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        self.inner_mut().copy_failed(d, now, requeue)
    }
    fn drain_reconciled_drops(&mut self, out: &mut Vec<DroppedCopy>) {
        self.inner_mut().drain_reconciled_drops(out)
    }
    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        self.inner_mut().drain_admission_drops(out)
    }
    fn backpressure(&self, input: PortId) -> bool {
        self.inner().backpressure(input)
    }
    fn set_span_recording(&mut self, on: bool) {
        self.inner_mut().set_span_recording(on)
    }
    fn drain_spans(&mut self, out: &mut Vec<SpanSample>) {
        self.inner_mut().drain_spans(out)
    }
    fn recycle(&mut self, outcome: SlotOutcome) {
        self.inner_mut().recycle(outcome)
    }
    fn quarantined_paths(&self, now: Slot, out: &mut Vec<(PortId, PortId)>) {
        self.inner().quarantined_paths(now, out)
    }
    fn reserve_steady_state(&mut self, copies_per_voq: usize) {
        self.inner_mut().reserve_steady_state(copies_per_voq)
    }
    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        self.inner().save_state()
    }
    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        self.inner_mut().load_state(blob)
    }
}

impl<L: Layer> Switch for L {
    fn name(&self) -> String {
        Layer::name(self)
    }
    fn ports(&self) -> usize {
        Layer::ports(self)
    }
    fn admit(&mut self, packet: Packet) {
        Layer::admit(self, packet)
    }
    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        Layer::run_slot(self, now)
    }
    fn queue_sizes(&self, out: &mut Vec<usize>) {
        Layer::queue_sizes(self, out)
    }
    fn backlog(&self) -> Backlog {
        Layer::backlog(self)
    }
    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        Layer::drain_events(self, out)
    }
    fn end_of_run(&mut self) {
        Layer::end_of_run(self)
    }
    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        Layer::copy_failed(self, d, now, requeue)
    }
    fn drain_reconciled_drops(&mut self, out: &mut Vec<DroppedCopy>) {
        Layer::drain_reconciled_drops(self, out)
    }
    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        Layer::drain_admission_drops(self, out)
    }
    fn backpressure(&self, input: PortId) -> bool {
        Layer::backpressure(self, input)
    }
    fn set_span_recording(&mut self, on: bool) {
        Layer::set_span_recording(self, on)
    }
    fn drain_spans(&mut self, out: &mut Vec<SpanSample>) {
        Layer::drain_spans(self, out)
    }
    fn recycle(&mut self, outcome: SlotOutcome) {
        Layer::recycle(self, outcome)
    }
    fn quarantined_paths(&self, now: Slot, out: &mut Vec<(PortId, PortId)>) {
        Layer::quarantined_paths(self, now, out)
    }
    fn reserve_steady_state(&mut self, copies_per_voq: usize) {
        Layer::reserve_steady_state(self, copies_per_voq)
    }
    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        Layer::save_state(self)
    }
    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        Layer::load_state(self, blob)
    }
}

impl<T: Switch + ?Sized> Layer for Box<T> {
    type Inner = T;
    fn inner(&self) -> &T {
        self
    }
    fn inner_mut(&mut self) -> &mut T {
        self
    }
}

/// [`Switch::save_state`] for a layer with state of its own: frames its
/// [`Checkpoint`] snapshot and the inner switch's blob,
/// `[own state][inner switch state]`, into one CRC-guarded blob of
/// `kind`, so every layer of a `Checked(Faulty(MulticastVoq))` stack
/// restores from a single file.
pub(crate) fn save_layer_state<L: Layer + Checkpoint>(
    layer: &L,
    kind: &str,
) -> Result<Vec<u8>, StateError> {
    let inner = layer.inner().save_state()?;
    let mut w = StateWriter::new();
    w.put_bytes(&layer.snapshot_state());
    w.put_bytes(&inner);
    Ok(frame_state(kind, 1, &w.into_bytes()))
}

/// [`Switch::load_state`] for a blob written by [`save_layer_state`]
/// under `kind`: restores the layer's own state, then the inner
/// switch's.
pub(crate) fn load_layer_state<L: Layer + Checkpoint>(
    layer: &mut L,
    kind: &str,
    blob: &[u8],
) -> Result<(), StateError> {
    let (version, payload) = unframe_state(blob, kind)?;
    if version != 1 {
        return Err(StateError::VersionUnsupported {
            kind: kind.to_string(),
            got: version,
        });
    }
    let mut r = StateReader::new(payload);
    let own = r.get_bytes()?;
    let inner = r.get_bytes()?;
    r.expect_exhausted()?;
    layer.restore_state(own)?;
    layer.inner_mut().load_state(inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{PacketId, PortSet};

    /// A minimal discipline used to validate the trait contract shape:
    /// one shared FIFO, serves the head packet to all its destinations at
    /// once (an idealised fanout-no-splitting switch with no contention —
    /// only usable with one input).
    struct ToySwitch {
        queue: std::collections::VecDeque<Packet>,
    }

    impl Switch for ToySwitch {
        fn name(&self) -> String {
            "toy".into()
        }
        fn ports(&self) -> usize {
            1
        }
        fn admit(&mut self, packet: Packet) {
            assert_eq!(packet.input, PortId(0));
            self.queue.push_back(packet);
        }
        fn run_slot(&mut self, now: Slot) -> SlotOutcome {
            match self.queue.pop_front() {
                None => SlotOutcome::idle(),
                Some(p) => {
                    let copies: Vec<_> = p.dests.iter().collect();
                    let departures = copies
                        .iter()
                        .enumerate()
                        .map(|(idx, &o)| Departure {
                            packet: p.id,
                            arrival: p.arrival,
                            input: p.input,
                            output: o,
                            last_copy: idx + 1 == copies.len(),
                        })
                        .collect::<Vec<_>>();
                    let connections = departures.len();
                    let _ = now;
                    SlotOutcome {
                        departures,
                        rounds: 1,
                        connections,
                    }
                }
            }
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            out.clear();
            out.push(self.queue.len());
        }
        fn backlog(&self) -> Backlog {
            Backlog {
                packets: self.queue.len(),
                copies: self.queue.iter().map(|p| p.fanout()).sum(),
            }
        }
    }

    /// Every `Switch` method, in the order [`call_every_hook`] calls
    /// them.
    const HOOKS: [&str; 19] = [
        "name",
        "ports",
        "admit",
        "run_slot",
        "queue_sizes",
        "backlog",
        "drain_events",
        "end_of_run",
        "copy_failed",
        "drain_reconciled_drops",
        "drain_admission_drops",
        "backpressure",
        "set_span_recording",
        "drain_spans",
        "recycle",
        "quarantined_paths",
        "reserve_steady_state",
        "save_state",
        "load_state",
    ];

    /// A leaf switch that logs every hook that reaches it.
    #[derive(Default)]
    struct Recorder {
        calls: std::cell::RefCell<Vec<&'static str>>,
    }

    impl Recorder {
        fn hit(&self, hook: &'static str) {
            self.calls.borrow_mut().push(hook);
        }
    }

    impl Switch for Recorder {
        fn name(&self) -> String {
            self.hit("name");
            "recorder".into()
        }
        fn ports(&self) -> usize {
            self.hit("ports");
            1
        }
        fn admit(&mut self, _: Packet) {
            self.hit("admit");
        }
        fn run_slot(&mut self, _: Slot) -> SlotOutcome {
            self.hit("run_slot");
            SlotOutcome::idle()
        }
        fn queue_sizes(&self, _: &mut Vec<usize>) {
            self.hit("queue_sizes");
        }
        fn backlog(&self) -> Backlog {
            self.hit("backlog");
            Backlog::default()
        }
        fn drain_events(&mut self, _: &mut Vec<ObsEvent>) {
            self.hit("drain_events");
        }
        fn end_of_run(&mut self) {
            self.hit("end_of_run");
        }
        fn copy_failed(&mut self, _: &Departure, _: Slot, _: bool) -> RetryDisposition {
            self.hit("copy_failed");
            RetryDisposition::Requeued
        }
        fn drain_reconciled_drops(&mut self, _: &mut Vec<DroppedCopy>) {
            self.hit("drain_reconciled_drops");
        }
        fn drain_admission_drops(&mut self, _: &mut Vec<AdmissionDrop>) {
            self.hit("drain_admission_drops");
        }
        fn backpressure(&self, _: PortId) -> bool {
            self.hit("backpressure");
            true
        }
        fn set_span_recording(&mut self, _: bool) {
            self.hit("set_span_recording");
        }
        fn drain_spans(&mut self, _: &mut Vec<SpanSample>) {
            self.hit("drain_spans");
        }
        fn recycle(&mut self, _: SlotOutcome) {
            self.hit("recycle");
        }
        fn quarantined_paths(&self, _: Slot, _: &mut Vec<(PortId, PortId)>) {
            self.hit("quarantined_paths");
        }
        fn reserve_steady_state(&mut self, _: usize) {
            self.hit("reserve_steady_state");
        }
        fn save_state(&self) -> Result<Vec<u8>, StateError> {
            self.hit("save_state");
            Ok(vec![7])
        }
        fn load_state(&mut self, _: &[u8]) -> Result<(), StateError> {
            self.hit("load_state");
            Ok(())
        }
    }

    /// A layer that intercepts `run_slot` only.
    struct SlotCounter {
        inner: Recorder,
        slots: u64,
    }

    impl Layer for SlotCounter {
        type Inner = Recorder;
        fn inner(&self) -> &Recorder {
            &self.inner
        }
        fn inner_mut(&mut self) -> &mut Recorder {
            &mut self.inner
        }
        fn run_slot(&mut self, now: Slot) -> SlotOutcome {
            self.slots += 1;
            self.inner.run_slot(now)
        }
    }

    /// Call each of the 19 `Switch` methods once, through `Switch` only,
    /// and check the leaf's answers came back unchanged.
    fn call_every_hook<S: Switch>(sw: &mut S) {
        let d = Departure {
            packet: PacketId(0),
            arrival: Slot(0),
            input: PortId(0),
            output: PortId(0),
            last_copy: true,
        };
        assert_eq!(sw.name(), "recorder");
        sw.ports();
        sw.admit(Packet::new(
            PacketId(0),
            Slot(0),
            PortId(0),
            [0usize].into_iter().collect(),
        ));
        let outcome = sw.run_slot(Slot(0));
        sw.queue_sizes(&mut Vec::new());
        sw.backlog();
        sw.drain_events(&mut Vec::new());
        sw.end_of_run();
        assert_eq!(
            sw.copy_failed(&d, Slot(0), true),
            RetryDisposition::Requeued
        );
        sw.drain_reconciled_drops(&mut Vec::new());
        sw.drain_admission_drops(&mut Vec::new());
        assert!(sw.backpressure(PortId(0)));
        sw.set_span_recording(true);
        sw.drain_spans(&mut Vec::new());
        sw.recycle(outcome);
        sw.quarantined_paths(Slot(0), &mut Vec::new());
        sw.reserve_steady_state(4);
        assert_eq!(sw.save_state(), Ok(vec![7]));
        assert_eq!(sw.load_state(&[7]), Ok(()));
    }

    #[test]
    fn a_layer_forwards_every_hook_it_does_not_intercept() {
        let mut layer = SlotCounter {
            inner: Recorder::default(),
            slots: 0,
        };
        call_every_hook(&mut layer);
        assert_eq!(layer.slots, 1);
        assert_eq!(*layer.inner.calls.borrow(), HOOKS);

        let mut boxed = Box::new(Recorder::default());
        call_every_hook(&mut boxed);
        assert_eq!(*boxed.calls.borrow(), HOOKS);
    }

    #[test]
    fn backlog_empty() {
        assert!(Backlog::default().is_empty());
        assert!(!Backlog {
            packets: 1,
            copies: 2
        }
        .is_empty());
    }

    #[test]
    fn toy_switch_conserves_copies() {
        let mut sw = ToySwitch {
            queue: Default::default(),
        };
        let dests: PortSet = [0usize].into_iter().collect();
        for i in 0..5 {
            sw.admit(Packet::new(PacketId(i), Slot(0), PortId(0), dests.clone()));
        }
        assert_eq!(sw.backlog().copies, 5);
        let mut delivered = 0;
        let mut t = Slot(0);
        while !sw.backlog().is_empty() {
            let out = sw.run_slot(t);
            delivered += out.departures.len();
            t = t.next();
        }
        assert_eq!(delivered, 5);
        let mut q = Vec::new();
        sw.queue_sizes(&mut q);
        assert_eq!(q, vec![0]);
    }
}
