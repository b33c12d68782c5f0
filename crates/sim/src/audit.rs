//! Steady-state allocation audit: does the slot loop touch the heap?
//!
//! The hot path's performance story (DESIGN.md §13) rests on a claim the
//! span profiler cannot prove: after warmup, a slot of `traffic → admit →
//! run_slot → stats` performs **zero** heap allocations. [`alloc_audit`]
//! proves it by driving the engine's exact per-slot protocol — including
//! the departure scan, the queue-size sample into a reused buffer, and
//! [`Switch::recycle`] — while reading a caller-supplied monotonic
//! allocation counter around each phase.
//!
//! A finite-buffer switch keeps a ledger of admission drops that its
//! owner must drain — a real run's `CheckedSwitch` does so every slot —
//! so the audit drains it every slot too, into a buffer reserved up
//! front. Unbounded switches never drop, so for them the drain is idle.
//!
//! The counter is abstract (`&dyn Fn() -> u64`) so this crate stays free
//! of `unsafe`: the real counting [`GlobalAlloc`](std::alloc::GlobalAlloc)
//! lives in the binaries that opt in (`fifoms-repro` behind the
//! `alloc-audit` feature, and the root `alloc_audit` integration test).
//! Warmup slots are exempt — growing VOQs, scratch vectors and stats
//! buffers to steady-state size is exactly the amortization the audit is
//! meant to separate from per-slot cost.

use fifoms_fabric::Switch;
use fifoms_obs::Json;
use fifoms_traffic::TrafficModel;
use fifoms_types::{AdmissionDrop, Packet, PacketId, PortId, SimError, Slot};

/// Per-phase allocation tallies over the measured window of one audit run.
#[derive(Clone, Debug)]
pub struct AllocAuditReport {
    /// Scheduler name as reported by the switch.
    pub switch_name: String,
    /// Workload name as reported by the traffic model.
    pub traffic_name: String,
    /// Slots excluded from counting at the start.
    pub warmup_slots: u64,
    /// Slots whose allocations were counted.
    pub measured_slots: u64,
    /// Allocations attributed to each engine phase over the measured
    /// window, in engine order: `traffic`, `admit`, `schedule`, `stats`.
    pub phase_allocs: [(&'static str, u64); 4],
    /// Packets admitted over the whole run (keeps the workload honest —
    /// an idle audit proves nothing).
    pub packets_admitted: u64,
    /// Copies delivered over the whole run, same role as
    /// `packets_admitted`.
    pub copies_delivered: u64,
}

impl AllocAuditReport {
    /// Total allocations across all phases in the measured window.
    pub fn total_allocs(&self) -> u64 {
        self.phase_allocs.iter().map(|(_, a)| a).sum()
    }

    /// Whether the steady-state slot loop was allocation-free.
    pub fn is_clean(&self) -> bool {
        self.total_allocs() == 0
    }

    /// Render as a `fifoms-alloc-audit-v1` JSON document.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("schema", "fifoms-alloc-audit-v1");
        obj.set("switch", self.switch_name.as_str());
        obj.set("traffic", self.traffic_name.as_str());
        obj.set("warmup_slots", self.warmup_slots);
        obj.set("measured_slots", self.measured_slots);
        obj.set("packets_admitted", self.packets_admitted);
        obj.set("copies_delivered", self.copies_delivered);
        obj.set("total_allocs", self.total_allocs());
        obj.set("clean", self.is_clean());
        let mut phases = Vec::new();
        for (phase, allocs) in self.phase_allocs {
            let mut row = Json::object();
            row.set("phase", phase);
            row.set("allocs", allocs);
            phases.push(row);
        }
        obj.set("phases", phases);
        obj
    }
}

/// Copies-per-VOQ capacity pre-reserved before an audited run (via
/// [`Switch::reserve_steady_state`]). Unbounded queues keep setting new
/// high-water marks — rarely, but forever — so without a reservation the
/// audit would report a slow trickle of genuine growth allocations. The
/// reservation turns the claim into the one that matters: with buffers
/// sized for the operating point, the slot loop itself never allocates.
/// Depth records past the reservation still show up as failures.
pub const AUDIT_RESERVE_PER_VOQ: usize = 512;

/// Drive `warmup + measure` slots of the engine protocol against
/// `(switch, traffic)`, attributing allocation-counter deltas of the last
/// `measure` slots to the four engine phases. Internal queues are
/// pre-reserved for [`AUDIT_RESERVE_PER_VOQ`] copies per VOQ before
/// slot 0.
///
/// `counter` must be monotonically non-decreasing and count allocation
/// *events* (not bytes); it is read twice per phase per measured slot.
pub fn alloc_audit(
    switch: &mut dyn Switch,
    traffic: &mut dyn TrafficModel,
    warmup: u64,
    measure: u64,
    counter: &dyn Fn() -> u64,
) -> Result<AllocAuditReport, SimError> {
    if switch.ports() != traffic.ports() {
        return Err(SimError::SizeMismatch {
            switch_ports: switch.ports(),
            traffic_ports: traffic.ports(),
        });
    }
    let n = switch.ports();
    switch.reserve_steady_state(AUDIT_RESERVE_PER_VOQ);
    let mut arrivals: Vec<Option<_>> = Vec::with_capacity(n);
    let mut queue_buf: Vec<usize> = Vec::with_capacity(n);
    // Per slot at most every arriving copy is shed or pushes one out.
    let mut drop_buf: Vec<AdmissionDrop> = Vec::with_capacity(2 * n * n);
    let mut next_packet = 0u64;
    let mut copies_delivered = 0u64;
    // Mirrors the engine's post-warmup stats reads so the audited loop has
    // the same allocation profile; folding them into a live sum keeps the
    // reads from being dead code.
    let mut stats_checksum = 0u64;
    let mut phase_allocs = [("traffic", 0u64), ("admit", 0), ("schedule", 0), ("stats", 0)];

    let mut lap = |measured: bool, phase: usize, before: u64, counter: &dyn Fn() -> u64| {
        if measured {
            phase_allocs[phase].1 += counter().saturating_sub(before);
        }
    };

    for t in 0..warmup + measure {
        let now = Slot(t);
        let measured = t >= warmup;

        let before = counter();
        traffic.next_slot(now, &mut arrivals);
        lap(measured, 0, before, counter);

        let before = counter();
        for (input, dests) in arrivals.iter_mut().enumerate() {
            if let Some(dests) = dests.take() {
                next_packet += 1;
                switch.admit(Packet::new(
                    PacketId(next_packet),
                    now,
                    PortId::new(input),
                    dests,
                ));
            }
        }
        lap(measured, 1, before, counter);

        let before = counter();
        let outcome = switch.run_slot(now);
        lap(measured, 2, before, counter);

        let before = counter();
        for d in &outcome.departures {
            stats_checksum = stats_checksum.wrapping_add(d.delay(now) + d.last_copy as u64);
        }
        copies_delivered += outcome.departures.len() as u64;
        switch.queue_sizes(&mut queue_buf);
        for q in &queue_buf {
            stats_checksum = stats_checksum.wrapping_add(*q as u64);
        }
        stats_checksum = stats_checksum.wrapping_add(switch.backlog().copies as u64);
        switch.drain_admission_drops(&mut drop_buf);
        stats_checksum = stats_checksum.wrapping_add(drop_buf.len() as u64);
        drop_buf.clear();
        switch.recycle(outcome);
        lap(measured, 3, before, counter);
    }
    // The checksum's value is irrelevant; consuming it pins the stats
    // reads above into the audited build.
    std::hint::black_box(stats_checksum);

    Ok(AllocAuditReport {
        switch_name: switch.name(),
        traffic_name: traffic.name(),
        warmup_slots: warmup,
        measured_slots: measure,
        phase_allocs,
        packets_admitted: next_packet,
        copies_delivered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SwitchKind, TrafficKind};
    use std::cell::Cell;

    #[test]
    fn constant_counter_reports_clean() {
        let mut sw = SwitchKind::Fifoms.build(8, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.5, 0.25, 8).build(8, 2);
        let report =
            alloc_audit(sw.as_mut(), tr.as_mut(), 500, 500, &|| 0).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.total_allocs(), 0);
        assert!(report.packets_admitted > 0, "audit must exercise real load");
        assert!(report.copies_delivered > 0);
    }

    #[test]
    fn advancing_counter_attributes_to_every_phase() {
        let ticks = Cell::new(0u64);
        let counter = || {
            ticks.set(ticks.get() + 1);
            ticks.get()
        };
        let mut sw = SwitchKind::Fifoms.build(4, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.3, 0.5, 4).build(4, 2);
        let report = alloc_audit(sw.as_mut(), tr.as_mut(), 10, 10, &counter).unwrap();
        assert!(!report.is_clean());
        for (phase, allocs) in report.phase_allocs {
            assert!(allocs > 0, "phase {phase} saw no counter movement");
        }
    }

    #[test]
    fn warmup_slots_are_exempt() {
        // Counter advances only during the first 20 calls (the warmup
        // window uses none), so a warmup-only burst must report clean.
        let ticks = Cell::new(0u64);
        let calls = Cell::new(0u64);
        let counter = || {
            calls.set(calls.get() + 1);
            if calls.get() <= 20 {
                ticks.set(ticks.get() + 1);
            }
            ticks.get()
        };
        let mut sw = SwitchKind::Fifoms.build(4, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.3, 0.5, 4).build(4, 2);
        // 5 warmup slots * 8 counter reads = 40 calls > 20, so all
        // movement lands inside warmup.
        let report = alloc_audit(sw.as_mut(), tr.as_mut(), 5, 50, &counter).unwrap();
        assert!(report.is_clean(), "warmup allocations must not count");
    }

    #[test]
    fn size_mismatch_is_an_error() {
        let mut sw = SwitchKind::Fifoms.build(4, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.3, 0.5, 8).build(8, 2);
        let e = alloc_audit(sw.as_mut(), tr.as_mut(), 10, 10, &|| 0).unwrap_err();
        assert!(matches!(e, SimError::SizeMismatch { .. }));
    }

    #[test]
    fn json_report_shape() {
        let mut sw = SwitchKind::Islip(None).build(4, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.2, 0.5, 4).build(4, 2);
        let report = alloc_audit(sw.as_mut(), tr.as_mut(), 100, 100, &|| 0).unwrap();
        let doc = report.to_json();
        let text = doc.to_string();
        assert!(text.contains("fifoms-alloc-audit-v1"));
        assert!(text.contains("\"clean\": true") || text.contains("\"clean\":true"));
    }
}
