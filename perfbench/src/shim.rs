//! The timing shim: a `Switch` that wraps one layer of a switch stack
//! and records a span around every call into it.
//!
//! Placed between every pair of layers, shims measure each layer from
//! outside: a layer's self time is its shim's spans minus the spans of
//! the shim below it. The shim forwards every trait method, the
//! default-bodied hooks included, so inserting it cannot change what
//! the stack does. `name`, `ports`, `set_span_recording` and
//! `drain_spans` are forwarded without a span: they are the trace's own
//! plumbing and cost next to nothing.

use fifoms_fabric::{Backlog, Switch};
use fifoms_types::{
    AdmissionDrop, Departure, DroppedCopy, ObsEvent, Packet, PortId, RetryDisposition, Slot,
    SlotOutcome, SpanSample, StateError,
};

use crate::tracer::{Layer, Op, TraceHandle};

/// Timing wrapper around one layer.
pub struct Shim<S> {
    layer: Layer,
    trace: TraceHandle,
    busy_ns: u64,
    inner: S,
}

impl<S: Switch> Shim<S> {
    /// Wrap `inner`, recording its calls as spans of `layer`.
    pub fn new(layer: Layer, trace: TraceHandle, inner: S) -> Shim<S> {
        let busy_ns = trace.with(|t| t.busy_wait_ns(layer));
        Shim {
            layer,
            trace,
            busy_ns,
            inner,
        }
    }

    /// The wrapped layer.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

fn timed<R>(trace: &TraceHandle, layer: Layer, op: Op, f: impl FnOnce() -> R) -> R {
    trace.enter(layer, op);
    let r = f();
    trace.exit();
    r
}

fn spin(ns: u64) {
    let start = std::time::Instant::now();
    while start.elapsed().as_nanos() < u128::from(ns) {
        std::hint::spin_loop();
    }
}

impl<S: Switch> Switch for Shim<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn ports(&self) -> usize {
        self.inner.ports()
    }

    fn admit(&mut self, packet: Packet) {
        timed(&self.trace, self.layer, Op::Admit, || {
            self.inner.admit(packet)
        })
    }

    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        let busy_ns = self.busy_ns;
        timed(&self.trace, self.layer, Op::RunSlot, || {
            if busy_ns > 0 {
                spin(busy_ns);
            }
            self.inner.run_slot(now)
        })
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        timed(&self.trace, self.layer, Op::QueueSizes, || {
            self.inner.queue_sizes(out)
        })
    }

    fn backlog(&self) -> Backlog {
        timed(&self.trace, self.layer, Op::Backlog, || {
            self.inner.backlog()
        })
    }

    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        timed(&self.trace, self.layer, Op::DrainEvents, || {
            self.inner.drain_events(out)
        })
    }

    fn end_of_run(&mut self) {
        timed(&self.trace, self.layer, Op::EndOfRun, || {
            self.inner.end_of_run()
        })
    }

    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        timed(&self.trace, self.layer, Op::CopyFailed, || {
            self.inner.copy_failed(d, now, requeue)
        })
    }

    fn drain_reconciled_drops(&mut self, out: &mut Vec<DroppedCopy>) {
        timed(&self.trace, self.layer, Op::DrainReconciledDrops, || {
            self.inner.drain_reconciled_drops(out)
        })
    }

    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        timed(&self.trace, self.layer, Op::DrainAdmissionDrops, || {
            self.inner.drain_admission_drops(out)
        })
    }

    fn backpressure(&self, input: PortId) -> bool {
        timed(&self.trace, self.layer, Op::Backpressure, || {
            self.inner.backpressure(input)
        })
    }

    fn set_span_recording(&mut self, on: bool) {
        self.inner.set_span_recording(on)
    }

    fn drain_spans(&mut self, out: &mut Vec<SpanSample>) {
        self.inner.drain_spans(out)
    }

    fn recycle(&mut self, outcome: SlotOutcome) {
        timed(&self.trace, self.layer, Op::Recycle, || {
            self.inner.recycle(outcome)
        })
    }

    fn quarantined_paths(&self, now: Slot, out: &mut Vec<(PortId, PortId)>) {
        timed(&self.trace, self.layer, Op::QuarantinedPaths, || {
            self.inner.quarantined_paths(now, out)
        })
    }

    fn reserve_steady_state(&mut self, copies_per_voq: usize) {
        timed(&self.trace, self.layer, Op::ReserveSteadyState, || {
            self.inner.reserve_steady_state(copies_per_voq)
        })
    }

    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        timed(&self.trace, self.layer, Op::SaveState, || {
            self.inner.save_state()
        })
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        timed(&self.trace, self.layer, Op::LoadState, || {
            self.inner.load_state(blob)
        })
    }
}
