//! The traced run: the engine's slot loop driven from benchmark code.
//!
//! [`simulate`] makes the same public calls as
//! `fifoms_sim::try_simulate_controlled` / `try_simulate_recoverable`
//! (telemetry attached, no event sink) in the same order, and wraps each
//! engine phase in a span. Like the engine on a profiled slot, it also
//! turns the switch's sub-phase spans on around `run_slot` and drains
//! them, on every slot. Switch layers are timed by the shims inside the
//! stack. None of this changes what the switch computes, so the
//! [`RunResult`] is bit-identical to the untraced run's; the benchmark
//! checks that on every traced repetition.

use std::path::Path;

use fifoms_fabric::Switch;
use fifoms_obs::Telemetry;
use fifoms_sim::{OverloadControls, RecoveryRuntime, RunConfig, RunResult, RunSnapshot};
use fifoms_stats::{DelayStats, OccupancyTracker, RunningStat, SaturationDetector};
use fifoms_traffic::TrafficModel;
use fifoms_types::{
    ObsEvent, Packet, PacketId, PortId, PortSet, SimError, Slot, SpanSample, SpanTimer,
};

use crate::tracer::{Layer, Op, TraceHandle};

/// Counts taken at the layer boundaries of a traced run.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    /// Packets offered to the switch stack.
    pub packets: u64,
    /// Copies offered (sum of the offered packets' fanouts).
    pub offered_copies: u64,
    /// Copies departed.
    pub departures: u64,
    /// Scheduling rounds summed over all slots.
    pub rounds: u64,
    /// Events drained from the switch stack.
    pub events: u64,
    /// Backlog (copies) summed over the engine's backlog samples.
    pub backlog_sum: u64,
    /// Number of backlog samples.
    pub backlog_samples: u64,
    /// Bytes appended to the arrival WAL.
    pub wal_bytes: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Bytes of checkpoint files written.
    pub checkpoint_bytes: u64,
}

fn file_len(path: Option<&Path>) -> u64 {
    path.and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len())
}

/// Run one `(switch, traffic)` pair for `cfg.slots` slots, tracing every
/// phase. `wal` names the arrival WAL so its growth can be measured.
#[allow(clippy::too_many_arguments)]
pub fn simulate(
    switch: &mut dyn Switch,
    traffic: &mut dyn TrafficModel,
    cfg: &RunConfig,
    mut controls: Option<&mut OverloadControls>,
    mut recovery: Option<&mut RecoveryRuntime>,
    mut telemetry: Option<&mut Telemetry>,
    wal: Option<&Path>,
    trace: &TraceHandle,
) -> Result<(RunResult, Counts), SimError> {
    if cfg.warmup >= cfg.slots {
        return Err(SimError::WarmupTooLong {
            warmup: cfg.warmup,
            slots: cfg.slots,
        });
    }
    if switch.ports() != traffic.ports() {
        return Err(SimError::SizeMismatch {
            switch_ports: switch.ports(),
            traffic_ports: traffic.ports(),
        });
    }
    let n = switch.ports();
    let mut counts = Counts::default();
    let mut delay = DelayStats::new();
    let mut occupancy = OccupancyTracker::new(n);
    let mut rounds = RunningStat::new();
    let mut detector = SaturationDetector::new(cfg.backlog_cap);
    let mut arrivals: Vec<Option<PortSet>> = Vec::with_capacity(n);
    let mut queue_buf: Vec<usize> = Vec::with_capacity(n);
    let mut next_packet = 0u64;
    let mut copies_delivered = 0u64;
    let mut slots_run = 0u64;
    let mut event_buf: Vec<ObsEvent> = Vec::new();
    let mut span_buf: Vec<SpanSample> = Vec::with_capacity(16);
    let mut quarantine_buf: Vec<(PortId, PortId)> = Vec::new();
    if telemetry.is_some() {
        quarantine_buf.reserve(n * n);
    }
    // Spans recorded while the stack was built belong to set-up. As in
    // `fifoms-repro alloc-audit`, the first half of the run is warm-up
    // for the allocation counts.
    trace.begin_run(cfg.slots / 2);
    if let Some(rec) = recovery.as_deref_mut() {
        let resumed = rec.apply_resume(switch, traffic, telemetry.as_deref_mut())?;
        if resumed.is_some() {
            return Err(SimError::Usage(
                "the traced run starts fresh; its recovery directory held a checkpoint".into(),
            ));
        }
    }

    for t in 0..cfg.slots {
        let now = Slot(t);
        trace.set_slot(t);
        trace.enter(Layer::Slot, Op::Phase);
        if let Some(rec) = recovery.as_deref_mut() {
            if rec.checkpoint_due(t) {
                // The checkpoint truncates the WAL: bank its length first.
                counts.wal_bytes += file_len(wal);
                trace.enter(Layer::Checkpoint, Op::Phase);
                let snap = RunSnapshot {
                    slot: t,
                    next_packet,
                    copies_delivered,
                    slots_run,
                    trace_offset: rec.trace_offset_now(),
                    delay: &delay,
                    occupancy: &occupancy,
                    rounds: &rounds,
                    detector: &detector,
                };
                let (seq, bytes) =
                    rec.write_checkpoint(&snap, switch, traffic, telemetry.as_deref())?;
                let event = ObsEvent::CheckpointWritten {
                    slot: now,
                    seq,
                    bytes,
                };
                if let Some(tm) = telemetry.as_deref_mut() {
                    tm.observe_event(&event);
                }
                trace.exit();
                counts.checkpoints += 1;
                counts.checkpoint_bytes += bytes;
            }
            if rec.kill_due(t) {
                return Err(SimError::Killed { slot: t });
            }
        }
        let tele_timer = telemetry.is_some().then(SpanTimer::start);

        trace.enter(Layer::Traffic, Op::Phase);
        traffic.next_slot(now, &mut arrivals);
        trace.exit();

        if let Some(rec) = recovery.as_deref_mut() {
            trace.enter(Layer::Wal, Op::Phase);
            let logged = rec.record_arrivals(t, &arrivals);
            trace.exit();
            logged?;
        }

        let level = match controls.as_deref_mut() {
            Some(ctl) => {
                trace.enter(Layer::Overload, Op::Phase);
                if let Some(g) = ctl.governor.as_mut() {
                    // With no event sink attached the ladder event is
                    // dropped, as in the engine.
                    let _ = g.observe(now, switch.backlog().copies as u64);
                }
                let level = ctl.level();
                for (input, slot_arrival) in arrivals.iter_mut().enumerate() {
                    let input_id = PortId::new(input);
                    let fresh = slot_arrival.take();
                    if ctl.pause_on_backpressure && switch.backpressure(input_id) {
                        if let Some(dests) = fresh {
                            ctl.deferrals.push(input_id, dests);
                        }
                        continue;
                    }
                    *slot_arrival = match ctl.deferrals.pop_ready(input_id) {
                        Some(held) => {
                            if let Some(dests) = fresh {
                                ctl.deferrals.push(input_id, dests);
                            }
                            Some(held)
                        }
                        None => fresh,
                    };
                    if level >= 3 {
                        if let Some(dests) = slot_arrival.as_mut() {
                            if dests.len() > 1 {
                                if let Some(first) = dests.iter().next() {
                                    ctl.fanout_copies_trimmed += (dests.len() - 1) as u64;
                                    *dests = PortSet::singleton(first);
                                }
                            }
                        }
                    }
                }
                trace.exit();
                level
            }
            None => 0,
        };

        let admitted_before = next_packet;
        for (input, dests) in arrivals.iter_mut().enumerate() {
            if let Some(dests) = dests.take() {
                next_packet += 1;
                counts.packets += 1;
                counts.offered_copies += dests.len() as u64;
                switch.admit(Packet::new(
                    PacketId(next_packet),
                    now,
                    PortId::new(input),
                    dests,
                ));
            }
        }

        switch.set_span_recording(true);
        let sched_timer = telemetry.is_some().then(SpanTimer::start);
        let outcome = switch.run_slot(now);
        let sched_ns = sched_timer.map_or(0, |tm| tm.elapsed_ns());
        switch.set_span_recording(false);
        span_buf.clear();
        switch.drain_spans(&mut span_buf);
        trace.add_sub_phases(&span_buf);
        slots_run = t + 1;
        counts.departures += outcome.departures.len() as u64;
        counts.rounds += outcome.rounds as u64;

        if let Some(tm) = telemetry.as_deref_mut() {
            switch.drain_events(&mut event_buf);
            counts.events += event_buf.len() as u64;
            trace.enter(Layer::Telemetry, Op::Phase);
            for e in event_buf.drain(..) {
                tm.observe_event(&e);
            }
            trace.exit();
        }

        trace.enter(Layer::Stats, Op::Phase);
        if t >= cfg.warmup {
            for d in &outcome.departures {
                delay.record_copy(d.delay(now), d.last_copy);
            }
            copies_delivered += outcome.departures.len() as u64;
            if !outcome.departures.is_empty() {
                rounds.push_u64(outcome.rounds as u64);
            }
            if level < 2 || t % 4 == 0 {
                switch.queue_sizes(&mut queue_buf);
                occupancy.sample(&queue_buf);
            } else if let Some(ctl) = controls.as_deref_mut() {
                ctl.samples_skipped += 1;
            }
        }
        let capped = if t % cfg.sample_every == 0 {
            let backlog = switch.backlog().copies;
            counts.backlog_sum += backlog as u64;
            counts.backlog_samples += 1;
            detector.observe(backlog)
        } else {
            false
        };
        trace.exit();

        if let Some(tm) = telemetry.as_deref_mut() {
            trace.enter(Layer::Telemetry, Op::Phase);
            let delivered_now = outcome.departures.len() as u64;
            let completed_now = outcome.departures.iter().filter(|d| d.last_copy).count() as u64;
            let wall_ns = tele_timer.map_or(0, |tm| tm.elapsed_ns());
            tm.record_slot(
                next_packet - admitted_before,
                delivered_now,
                completed_now,
                sched_ns,
                wall_ns,
            );
            if tm.window_full() {
                quarantine_buf.clear();
                switch.quarantined_paths(now, &mut quarantine_buf);
                tm.set_path_state(&quarantine_buf);
                let _summary = tm.close_window(switch.backlog().copies as u64);
            }
            trace.exit();
        }
        switch.recycle(outcome);
        trace.exit();
        if capped {
            break;
        }
    }
    counts.wal_bytes += file_len(wal);

    if let Some(tm) = telemetry {
        switch.end_of_run();
        switch.drain_events(&mut event_buf);
        counts.events += event_buf.len() as u64;
        for e in event_buf.drain(..) {
            tm.observe_event(&e);
        }
        quarantine_buf.clear();
        switch.quarantined_paths(Slot(slots_run.saturating_sub(1)), &mut quarantine_buf);
        tm.set_path_state(&quarantine_buf);
        let _summary = tm.finish(switch.backlog().copies as u64);
    }

    let measured_slots = slots_run.saturating_sub(cfg.warmup).max(1);
    let result = RunResult {
        switch_name: switch.name(),
        traffic_name: traffic.name(),
        offered_load: traffic.effective_load(),
        workload: traffic
            .params()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        delay: delay.summary(),
        occupancy: occupancy.summary(),
        mean_rounds: rounds.mean(),
        verdict: detector.verdict(),
        slots_run,
        packets_admitted: next_packet,
        copies_delivered,
        throughput: copies_delivered as f64 / (measured_slots * n as u64) as f64,
    };
    Ok((result, counts))
}
