//! Generic scheduler instrumentation: one wrapper, every scheduler.
//!
//! [`InstrumentedSwitch`] derives the per-slot matching dynamics the paper
//! reasons about — request demand, matched inputs, iterations to
//! convergence (Fig. 5), native-multicast usage, fanout splitting,
//! crossbar utilisation, and starvation age — entirely from the
//! [`Switch`] trait surface ([`SlotOutcome`] + `queue_sizes`/`backlog`).
//! No scheduler carries its own tracing code, so FIFOMS, iSLIP, TATRA and
//! the OQ baselines are all observed identically and a new scheduler gets
//! instrumentation for free.
//!
//! The wrapper is read-only with respect to the schedule: it never
//! touches an RNG, reorders a call, or alters an outcome, so a wrapped
//! run produces bit-identical results to an unwrapped one (asserted by
//! the observability integration suite). Events are buffered internally
//! and handed to the engine via [`Switch::drain_events`]; the wrapper is
//! only constructed on traced paths, so untraced runs never allocate a
//! buffer at all.
//!
//! Beyond the per-slot aggregates, the wrapper doubles as the
//! **packet-level flight recorder** (DESIGN.md §9): with a
//! [`PacketTraceMode`] other than [`PacketTraceMode::Off`] it follows
//! individual packets from [`ObsEvent::PacketArrived`] through each
//! [`ObsEvent::CopySent`] to [`ObsEvent::PacketCompleted`], behind a
//! sampling gate — every packet, one-in-`k`, or a bounded ring buffer
//! that retains only the last `capacity` packet events (flushed at
//! [`Switch::end_of_run`]) so full-length runs stay `O(capacity)` in
//! memory.

use std::collections::{BTreeSet, VecDeque};

use fifoms_types::{
    get_obs_event, put_obs_event, Checkpoint, Departure, ObsEvent, Packet, PacketId,
    RetryDisposition, Slot, SlotOutcome, StateError, StateReader, StateWriter,
};

use crate::switch::Switch;

/// The flight recorder's sampling gate.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub enum PacketTraceMode {
    /// No packet-level events (the default): only `SlotSched` aggregates.
    #[default]
    Off,
    /// Record every packet's full lifecycle. Required for the starvation
    /// audit and the delay decomposition of `fifoms-repro analyze`.
    All,
    /// Record packets whose id is divisible by `k` (deterministic 1-in-k
    /// sampling; `k` is clamped to at least 1).
    OneIn(u64),
    /// Flight-recorder mode: record every packet, but retain only the
    /// last `capacity` packet events in a ring buffer, flushed when the
    /// engine calls [`Switch::end_of_run`]. Memory stays `O(capacity)`
    /// regardless of run length; early lifecycles are evicted.
    Ring(usize),
}

impl PacketTraceMode {
    /// The `(mode, param)` pair advertised in [`ObsEvent::RecorderMeta`].
    fn meta(self) -> Option<(&'static str, u64)> {
        match self {
            PacketTraceMode::Off => None,
            PacketTraceMode::All => Some(("all", 0)),
            PacketTraceMode::OneIn(k) => Some(("sample", k.max(1))),
            PacketTraceMode::Ring(cap) => Some(("ring", cap as u64)),
        }
    }

    /// Whether the packet with `id` passes the sampling gate.
    fn samples(self, id: PacketId) -> bool {
        match self {
            PacketTraceMode::Off => false,
            PacketTraceMode::All | PacketTraceMode::Ring(_) => true,
            PacketTraceMode::OneIn(k) => id.0.is_multiple_of(k.max(1)),
        }
    }
}

/// A [`Switch`] wrapper that emits one [`ObsEvent::SlotSched`] per
/// non-idle slot, derived generically from the inner switch's outcome —
/// and, when a [`PacketTraceMode`] is set, per-packet lifecycle events.
#[derive(Debug)]
pub struct InstrumentedSwitch<S> {
    inner: S,
    events: Vec<ObsEvent>,
    /// In-flight packets ordered by arrival: `first()` is the oldest
    /// queued packet, whose age is the starvation indicator.
    ledger: BTreeSet<(Slot, PacketId)>,
    /// Scratch for `queue_sizes` so the per-slot probe does not allocate.
    scratch: Vec<usize>,
    /// Packet-level sampling gate.
    mode: PacketTraceMode,
    /// Ids currently being followed (admitted through the gate, not yet
    /// completed) — bounded by the in-flight backlog.
    sampled: BTreeSet<PacketId>,
    /// Retained packet events in [`PacketTraceMode::Ring`] mode; other
    /// modes stream packet events through `events` like everything else.
    ring: VecDeque<ObsEvent>,
}

impl<S: Switch> InstrumentedSwitch<S> {
    /// Wrap `inner` with packet-level tracing off.
    pub fn new(inner: S) -> InstrumentedSwitch<S> {
        InstrumentedSwitch::with_packet_trace(inner, PacketTraceMode::Off)
    }

    /// Wrap `inner` with the given packet-level sampling gate. A mode
    /// other than [`PacketTraceMode::Off`] emits one
    /// [`ObsEvent::RecorderMeta`] so trace consumers know which analyses
    /// are sound.
    pub fn with_packet_trace(inner: S, mode: PacketTraceMode) -> InstrumentedSwitch<S> {
        let mut events = Vec::new();
        if let Some((m, param)) = mode.meta() {
            events.push(ObsEvent::RecorderMeta {
                mode: m.to_string(),
                param,
            });
        }
        InstrumentedSwitch {
            inner,
            events,
            ledger: BTreeSet::new(),
            scratch: Vec::new(),
            mode,
            sampled: BTreeSet::new(),
            ring: VecDeque::new(),
        }
    }

    /// Shared access to the wrapped switch.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Route one packet event per the mode: streamed with everything
    /// else, or retained in the bounded ring.
    fn record_packet_event(&mut self, event: ObsEvent) {
        match self.mode {
            PacketTraceMode::Ring(cap) => {
                if cap == 0 {
                    return;
                }
                if self.ring.len() == cap {
                    self.ring.pop_front();
                }
                self.ring.push_back(event);
            }
            _ => self.events.push(event),
        }
    }

    /// Emit the packet-scoped events for this slot's departures.
    fn record_departures(&mut self, now: Slot, outcome: &SlotOutcome) {
        // `split` is a per-packet property of the slot: at least one copy
        // went out but the final copy did not.
        let mut completed_here: Vec<PacketId> = outcome
            .departures
            .iter()
            .filter(|d| d.last_copy)
            .map(|d| d.packet)
            .collect();
        completed_here.sort_unstable();
        for d in &outcome.departures {
            if !self.sampled.contains(&d.packet) {
                continue;
            }
            let split = completed_here.binary_search(&d.packet).is_err();
            self.record_packet_event(ObsEvent::CopySent {
                id: d.packet,
                slot: now,
                output: d.output,
                split,
            });
        }
        for id in completed_here {
            if self.sampled.remove(&id) {
                self.record_packet_event(ObsEvent::PacketCompleted { id, slot: now });
            }
        }
    }

    /// Age in slots of the oldest packet still queued, as of `now`.
    fn oldest_age(&self, now: Slot) -> Option<u64> {
        self.ledger
            .first()
            .map(|(arrival, _)| now.0.saturating_sub(arrival.0))
    }

    fn derive_event(&mut self, now: Slot, active_ports: u32, outcome: &SlotOutcome) {
        // Per-input departure counts, single pass. Inputs are compared by
        // id; a sorted scratch of (input, count) stays tiny (≤ N entries).
        let mut per_input: Vec<(u16, u32)> = Vec::new();
        let mut fanout_split_candidates: Vec<PacketId> = Vec::new();
        let mut completed = 0u32;
        for d in &outcome.departures {
            match per_input.binary_search_by_key(&d.input.0, |&(i, _)| i) {
                Ok(idx) => {
                    debug_assert!(idx < per_input.len(), "binary_search Ok is in bounds");
                    per_input[idx].1 += 1
                }
                Err(idx) => per_input.insert(idx, (d.input.0, 1)),
            }
            if d.last_copy {
                completed += 1;
                self.ledger.remove(&(d.arrival, d.packet));
            } else {
                fanout_split_candidates.push(d.packet);
            }
        }
        // A packet was *split* this slot if it departed at least one copy
        // but its final copy did not go out: some residue stays queued.
        fanout_split_candidates.sort_unstable();
        fanout_split_candidates.dedup();
        let fanout_splits = fanout_split_candidates
            .iter()
            .filter(|p| {
                !outcome
                    .departures
                    .iter()
                    .any(|d| d.packet == **p && d.last_copy)
            })
            .count() as u32;

        let matched_inputs = per_input.len() as u32;
        let multicast_inputs = per_input.iter().filter(|&&(_, c)| c >= 2).count() as u32;
        let backlog = self.inner.backlog();

        self.events.push(ObsEvent::SlotSched {
            slot: now,
            active_ports,
            matched_inputs,
            rounds: outcome.rounds,
            connections: outcome.connections as u32,
            multicast_inputs,
            fanout_splits,
            completed_packets: completed,
            backlog_packets: backlog.packets as u64,
            backlog_copies: backlog.copies as u64,
            oldest_age: self.oldest_age(now),
        });
    }
}

impl<S: Switch> crate::Layer for InstrumentedSwitch<S> {
    type Inner = S;

    fn inner(&self) -> &S {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn admit(&mut self, packet: Packet) {
        self.ledger.insert((packet.arrival, packet.id));
        if self.mode.samples(packet.id) {
            self.sampled.insert(packet.id);
            self.record_packet_event(ObsEvent::PacketArrived {
                id: packet.id,
                slot: packet.arrival,
                input: packet.input,
                fanout: packet.fanout() as u32,
            });
        }
        self.inner.admit(packet);
    }

    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        // Demand side, probed before scheduling: ports holding work.
        self.scratch.clear();
        self.inner.queue_sizes(&mut self.scratch);
        let active_ports = self.scratch.iter().filter(|&&q| q > 0).count() as u32;

        let outcome = self.inner.run_slot(now);

        // Idle slots (no demand, no service) get no record each; the
        // engine's final RunEnd marker makes the gaps decodable as
        // idleness (a slot below slots_run with no record was idle).
        if active_ports > 0 || !outcome.departures.is_empty() {
            self.derive_event(now, active_ports, &outcome);
            if self.mode != PacketTraceMode::Off {
                self.record_departures(now, &outcome);
            }
        }
        outcome
    }

    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        out.append(&mut self.events);
        self.inner.drain_events(out);
    }

    fn end_of_run(&mut self) {
        // Flush the flight recorder: the retained window becomes ordinary
        // drainable events, picked up by the engine's final drain.
        self.events.extend(self.ring.drain(..));
        self.inner.end_of_run();
    }

    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        // The retransmission request must reach the queue structure that
        // owns the cell; this wrapper sits between the fault injector and
        // the scheduler on instrumented runs.
        let disposition = self.inner.copy_failed(d, now, requeue);
        if disposition == RetryDisposition::Requeued {
            // If the killed copy was flagged `last_copy`, `derive_event`
            // already retired the packet from the starvation ledger;
            // restore it so `oldest_age` keeps seeing the requeued copy
            // (insert is idempotent for unflagged kills).
            self.ledger.insert((d.arrival, d.packet));
        }
        disposition
    }

    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        crate::switch::save_layer_state(self, "instrumented-switch-stack")
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        crate::switch::load_layer_state(self, "instrumented-switch-stack", blob)
    }
}

impl<S: Switch> Checkpoint for InstrumentedSwitch<S> {
    fn state_kind(&self) -> &'static str {
        "instrumented-switch"
    }

    // BTreeSet iteration is already ordered, so snapshots of equal states
    // are byte-equal without extra sorting.
    fn write_state(&self, w: &mut StateWriter) {
        let InstrumentedSwitch {
            // Saved alongside by `save_layer_state`.
            inner: _,
            events,
            ledger,
            // Holds nothing between slots.
            scratch: _,
            // Configuration, rebuilt by the caller.
            mode: _,
            sampled,
            ring,
        } = self;
        w.put_usize(events.len());
        for e in events {
            put_obs_event(w, e);
        }
        w.put_usize(ledger.len());
        for (arrival, id) in ledger {
            w.put_slot(*arrival);
            w.put_packet_id(*id);
        }
        w.put_usize(sampled.len());
        for id in sampled {
            w.put_packet_id(*id);
        }
        w.put_usize(ring.len());
        for e in ring {
            put_obs_event(w, e);
        }
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let InstrumentedSwitch {
            inner: _,
            events,
            ledger,
            scratch: _,
            mode: _,
            sampled,
            ring,
        } = self;
        let count = r.get_usize()?;
        events.clear();
        events.reserve(count);
        for _ in 0..count {
            events.push(get_obs_event(r)?);
        }
        let count = r.get_usize()?;
        ledger.clear();
        for _ in 0..count {
            let arrival = r.get_slot()?;
            ledger.insert((arrival, r.get_packet_id()?));
        }
        let count = r.get_usize()?;
        sampled.clear();
        for _ in 0..count {
            sampled.insert(r.get_packet_id()?);
        }
        let count = r.get_usize()?;
        ring.clear();
        ring.reserve(count);
        for _ in 0..count {
            ring.push_back(get_obs_event(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backlog;
    use fifoms_types::{Departure, PortId, PortSet};
    use std::collections::VecDeque;

    /// One-input FIFO that serves up to `per_slot` copies of the head
    /// packet per slot — `per_slot: 1` forces fanout splitting.
    struct SplittingFifo {
        queue: VecDeque<(Packet, PortSet)>,
        per_slot: usize,
        rounds: u32,
    }

    impl SplittingFifo {
        fn new(per_slot: usize, rounds: u32) -> Self {
            Self {
                queue: VecDeque::new(),
                per_slot,
                rounds,
            }
        }
    }

    impl Switch for SplittingFifo {
        fn name(&self) -> String {
            "splitting-fifo".into()
        }
        fn ports(&self) -> usize {
            4
        }
        fn admit(&mut self, packet: Packet) {
            let residual = packet.dests.clone();
            self.queue.push_back((packet, residual));
        }
        fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
            let Some((p, residual)) = self.queue.front_mut() else {
                return SlotOutcome::idle();
            };
            let serve: Vec<PortId> = residual.iter().take(self.per_slot).collect();
            let mut departures = Vec::new();
            for &o in &serve {
                residual.remove(o);
                departures.push(Departure {
                    packet: p.id,
                    arrival: p.arrival,
                    input: p.input,
                    output: o,
                    last_copy: residual.is_empty(),
                });
            }
            if residual.is_empty() {
                self.queue.pop_front();
            }
            let connections = departures.len();
            SlotOutcome {
                departures,
                rounds: self.rounds,
                connections,
            }
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            out.clear();
            out.resize(4, 0);
            out[0] = self.queue.len();
        }
        fn backlog(&self) -> Backlog {
            Backlog {
                packets: self.queue.len(),
                copies: self.queue.iter().map(|(_, r)| r.len()).sum(),
            }
        }
    }

    fn packet(id: u64, arrival: Slot, outputs: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            arrival,
            PortId(0),
            outputs.iter().copied().collect(),
        )
    }

    fn drain(sw: &mut impl Switch) -> Vec<ObsEvent> {
        let mut out = Vec::new();
        sw.drain_events(&mut out);
        out
    }

    #[test]
    fn emits_one_event_per_busy_slot_and_none_when_idle() {
        let mut sw = InstrumentedSwitch::new(SplittingFifo::new(8, 1));
        sw.admit(packet(1, Slot(0), &[0, 1]));
        sw.run_slot(Slot(0)); // serves everything
        sw.run_slot(Slot(1)); // idle
        let events = drain(&mut sw);
        assert_eq!(events.len(), 1);
        let ObsEvent::SlotSched {
            slot,
            active_ports,
            matched_inputs,
            multicast_inputs,
            connections,
            completed_packets,
            oldest_age,
            ..
        } = &events[0]
        else {
            panic!("expected SlotSched, got {:?}", events[0]);
        };
        assert_eq!(*slot, Slot(0));
        assert_eq!(*active_ports, 1);
        assert_eq!(*matched_inputs, 1);
        assert_eq!(*multicast_inputs, 1, "2 copies in one slot = native multicast");
        assert_eq!(*connections, 2);
        assert_eq!(*completed_packets, 1);
        assert_eq!(*oldest_age, None, "switch drained");
        // buffer was moved out
        assert!(drain(&mut sw).is_empty());
    }

    #[test]
    fn fanout_splitting_and_starvation_age_are_tracked() {
        let mut sw = InstrumentedSwitch::new(SplittingFifo::new(1, 2));
        sw.admit(packet(1, Slot(0), &[0, 1, 2]));
        for t in 0..3 {
            sw.run_slot(Slot(t));
        }
        let events = drain(&mut sw);
        assert_eq!(events.len(), 3);
        let split_flags: Vec<u32> = events
            .iter()
            .map(|e| match e {
                ObsEvent::SlotSched { fanout_splits, .. } => *fanout_splits,
                _ => panic!(),
            })
            .collect();
        // slots 0 and 1 leave residue (split); slot 2 completes the packet
        assert_eq!(split_flags, vec![1, 1, 0]);
        let ages: Vec<Option<u64>> = events
            .iter()
            .map(|e| match e {
                ObsEvent::SlotSched { oldest_age, .. } => *oldest_age,
                _ => panic!(),
            })
            .collect();
        // the packet (arrival 0) ages while split; gone after completion
        assert_eq!(ages, vec![Some(0), Some(1), None]);
        let rounds: Vec<u32> = events
            .iter()
            .map(|e| match e {
                ObsEvent::SlotSched { rounds, .. } => *rounds,
                _ => panic!(),
            })
            .collect();
        assert_eq!(rounds, vec![2, 2, 2], "rounds forwarded from SlotOutcome");
    }

    #[test]
    fn wrapper_is_transparent_to_results() {
        let mut plain = SplittingFifo::new(1, 1);
        let mut wrapped = InstrumentedSwitch::new(SplittingFifo::new(1, 1));
        for p in [packet(1, Slot(0), &[0, 2]), packet(2, Slot(0), &[3])] {
            plain.admit(p.clone());
            wrapped.admit(p);
        }
        assert_eq!(plain.name(), wrapped.name());
        assert_eq!(plain.ports(), wrapped.ports());
        for t in 0..4 {
            let a = plain.run_slot(Slot(t));
            let b = wrapped.run_slot(Slot(t));
            assert_eq!(a.departures, b.departures);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.connections, b.connections);
            assert_eq!(plain.backlog(), wrapped.backlog());
        }
    }

    /// Kinds of the packet-scoped events in a drained buffer, in order.
    fn packet_kinds(events: &[ObsEvent]) -> Vec<&'static str> {
        events
            .iter()
            .map(ObsEvent::kind)
            .filter(|k| {
                matches!(
                    *k,
                    "packet_arrived" | "copy_sent" | "packet_completed"
                )
            })
            .collect()
    }

    #[test]
    fn full_sampling_records_complete_lifecycles() {
        let mut sw =
            InstrumentedSwitch::with_packet_trace(SplittingFifo::new(1, 1), PacketTraceMode::All);
        sw.admit(packet(1, Slot(0), &[0, 1]));
        for t in 0..2 {
            sw.run_slot(Slot(t));
        }
        let events = drain(&mut sw);
        assert_eq!(events[0].kind(), "recorder_meta");
        assert_eq!(
            packet_kinds(&events),
            vec!["packet_arrived", "copy_sent", "copy_sent", "packet_completed"]
        );
        let splits: Vec<bool> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::CopySent { split, .. } => Some(*split),
                _ => None,
            })
            .collect();
        assert_eq!(splits, vec![true, false], "residue then final copy");
        let ObsEvent::PacketArrived { fanout, input, .. } = events
            .iter()
            .find(|e| e.kind() == "packet_arrived")
            .unwrap()
        else {
            unreachable!()
        };
        assert_eq!(*fanout, 2);
        assert_eq!(*input, PortId(0));
    }

    #[test]
    fn one_in_k_gate_samples_by_id() {
        let mut sw =
            InstrumentedSwitch::with_packet_trace(SplittingFifo::new(8, 1), PacketTraceMode::OneIn(2));
        for id in 1..=4u64 {
            sw.admit(packet(id, Slot(0), &[0]));
        }
        for t in 0..4 {
            sw.run_slot(Slot(t));
        }
        let events = drain(&mut sw);
        let ids: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::PacketArrived { id, .. } => Some(id.0),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![2, 4], "only ids divisible by k are followed");
        // Unsampled packets leave no copy_sent either.
        let copy_ids: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::CopySent { id, .. } => Some(id.0),
                _ => None,
            })
            .collect();
        assert_eq!(copy_ids, vec![2, 4]);
    }

    #[test]
    fn ring_mode_retains_a_bounded_tail_until_end_of_run() {
        let mut sw =
            InstrumentedSwitch::with_packet_trace(SplittingFifo::new(8, 1), PacketTraceMode::Ring(3));
        for id in 1..=4u64 {
            sw.admit(packet(id, Slot(0), &[0]));
        }
        for t in 0..4 {
            sw.run_slot(Slot(t));
        }
        // Before end_of_run the ring holds its tail privately: the drain
        // sees aggregates (and recorder_meta) but no packet events.
        let mid = drain(&mut sw);
        assert_eq!(mid[0].kind(), "recorder_meta");
        assert!(packet_kinds(&mid).is_empty(), "{mid:?}");
        sw.end_of_run();
        let end = drain(&mut sw);
        let kinds = packet_kinds(&end);
        assert_eq!(kinds.len(), 3, "ring capped at 3 events: {kinds:?}");
        // The retained window is the most recent events, oldest evicted.
        assert_eq!(end.last().unwrap().kind(), "packet_completed");
    }

    #[test]
    fn off_mode_emits_no_packet_events_and_no_meta() {
        let mut sw = InstrumentedSwitch::new(SplittingFifo::new(8, 1));
        sw.admit(packet(1, Slot(0), &[0, 1]));
        sw.run_slot(Slot(0));
        sw.end_of_run();
        let events = drain(&mut sw);
        assert!(events.iter().all(|e| e.kind() == "slot_sched"), "{events:?}");
    }

    #[test]
    fn backlog_in_events_reflects_post_slot_state() {
        let mut sw = InstrumentedSwitch::new(SplittingFifo::new(1, 1));
        sw.admit(packet(1, Slot(0), &[0, 1]));
        sw.run_slot(Slot(0));
        let events = drain(&mut sw);
        let ObsEvent::SlotSched {
            backlog_packets,
            backlog_copies,
            ..
        } = events[0]
        else {
            panic!();
        };
        assert_eq!(backlog_packets, 1);
        assert_eq!(backlog_copies, 1, "one of two copies served");
    }
}
