//! Byte layout of every checkpoint codec, pinned by committed blobs.
//!
//! `tests/data/checkpoints/` holds one golden blob per
//! `(state_kind, state_version)` of the workspace's `Checkpoint`
//! implementations, one for the framed
//! `Checked(Faulty(Instrumented(FIFOMS)))` stack save, and one raw payload
//! for `SpeedupFabric`, whose codec has no envelope of its own. Each comes
//! from a small seeded run (N = 4, a few hundred slots) whose pending
//! buffers are left undrained for the last slots, so every ledger, event
//! buffer and free list holds something.
//!
//! The test checks that the current build writes each blob byte for byte,
//! and that it loads each committed blob into a freshly configured
//! component and re-saves it byte-identically. A golden whose file is
//! missing — a new codec, or a bumped `state_version` — fails the test and
//! writes the candidate blob under the test's target temp directory, from
//! where it can be reviewed and committed.

use std::path::{Path, PathBuf};

use fifoms::core::BufferConfig;
use fifoms::fabric::{
    self, CheckedSwitch, CrossbarSchedule, FaultConfig, FaultMode, FaultyFabric,
    InstrumentedSwitch, PacketTraceMode, SpeedupFabric, Switch,
};
use fifoms::obs::Telemetry;
use fifoms::prelude::{BernoulliMulticast, McFifoSwitch, MulticastVoqSwitch, OqFifoSwitch};
use fifoms::traffic::TrafficModel;
use fifoms::types::{
    AdmissionDrop, Checkpoint, DroppedCopy, ObsEvent, Packet, PacketId, PortId, Slot, StateReader,
    StateWriter,
};

const N: usize = 4;
const SLOTS: u64 = 300;
/// Pending buffers are drained every slot before this one and left to
/// accumulate after it.
const DRAIN_UNTIL: u64 = SLOTS - 8;
const TELEMETRY_STRIDE: u64 = 50;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/checkpoints")
}

/// Loads a blob into a freshly configured component and saves it again.
type Resave = Box<dyn Fn(&[u8]) -> Vec<u8>>;

/// One pinned blob: the bytes this build writes, and its [`Resave`].
struct Golden {
    file: String,
    written: Vec<u8>,
    resave: Resave,
}

/// A golden for a [`Checkpoint`] implementation, named after its kind and
/// version. `pick` selects the component inside whatever `build` returns,
/// so a wrapper layer is restored in place inside a fresh stack.
fn checkpoint_golden<T, C>(
    state: &T,
    build: fn() -> T,
    pick: fn(&T) -> &C,
    pick_mut: fn(&mut T) -> &mut C,
) -> Golden
where
    T: 'static,
    C: Checkpoint + ?Sized + 'static,
{
    let component = pick(state);
    Golden {
        file: format!(
            "{}-v{}.bin",
            component.state_kind(),
            component.state_version()
        ),
        written: component.snapshot_state(),
        resave: Box::new(move |blob| {
            let mut fresh = build();
            pick_mut(&mut fresh)
                .restore_state(blob)
                .expect("committed blob restores");
            pick(&fresh).snapshot_state()
        }),
    }
}

/// [`checkpoint_golden`] for a component that is the whole of its state.
fn plain_golden<T: Checkpoint + 'static>(state: &T, build: fn() -> T) -> Golden {
    checkpoint_golden(state, build, |t| t, |t| t)
}

fn traffic() -> BernoulliMulticast {
    let b = 0.5;
    BernoulliMulticast::new(N, BernoulliMulticast::p_for_load(0.95, N, b), b, 11).unwrap()
}

fn fifoms() -> MulticastVoqSwitch {
    MulticastVoqSwitch::new(N, 7)
        .with_buffers(BufferConfig::bounded(3, 6))
        .with_event_recording()
        .with_quarantine_slots(40)
}

fn faults() -> FaultConfig {
    FaultConfig {
        seed: 5,
        flap_period: 60,
        flap_duration: 9,
        crosspoint_faults: 2,
        crosspoint_at: 40,
        crosspoint_duration: 150,
        mode: FaultMode::Egress,
        retry_budget: 2,
    }
}

type Stack = CheckedSwitch<FaultyFabric<InstrumentedSwitch<MulticastVoqSwitch>>>;

fn stack() -> Stack {
    let instrumented = InstrumentedSwitch::with_packet_trace(fifoms(), PacketTraceMode::Ring(24));
    let faulty = FaultyFabric::new(instrumented, faults()).with_event_recording();
    CheckedSwitch::new(faulty).with_capacity((N * 6) as u64)
}

fn faulty_fifoms() -> FaultyFabric<MulticastVoqSwitch> {
    FaultyFabric::new(fifoms(), faults()).with_event_recording()
}

/// Drive `switch` for [`SLOTS`] seeded slots, draining its sideband
/// buffers before [`DRAIN_UNTIL`] only. When `telemetry` is given, it is
/// fed the way the engine feeds it, with stand-in timings derived from
/// the slot so the blob is deterministic.
fn drive(
    switch: &mut dyn Switch,
    traffic: &mut dyn TrafficModel,
    mut telemetry: Option<&mut Telemetry>,
) {
    let mut arrivals = Vec::new();
    let mut events: Vec<ObsEvent> = Vec::new();
    let mut drops: Vec<DroppedCopy> = Vec::new();
    let mut admission_drops: Vec<AdmissionDrop> = Vec::new();
    let mut quarantined = Vec::new();
    let mut next_id = 0u64;
    for t in 0..SLOTS {
        let now = Slot(t);
        traffic.next_slot(now, &mut arrivals);
        let admitted_before = next_id;
        for (input, dests) in arrivals.iter().enumerate() {
            if let Some(dests) = dests {
                switch.admit(Packet::new(
                    PacketId(next_id),
                    now,
                    PortId::new(input),
                    dests.clone(),
                ));
                next_id += 1;
            }
        }
        let outcome = switch.run_slot(now);
        if t < DRAIN_UNTIL {
            switch.drain_events(&mut events);
            switch.drain_reconciled_drops(&mut drops);
            switch.drain_admission_drops(&mut admission_drops);
        }
        if let Some(tele) = telemetry.as_deref_mut() {
            for e in events.drain(..) {
                tele.observe_event(&e);
            }
            tele.record_slot(
                next_id - admitted_before,
                outcome.departures.len() as u64,
                outcome.completed_packets() as u64,
                u64::from(outcome.rounds) * 90 + 40,
                1_000 + (t * 37) % 700,
            );
            if tele.window_full() {
                quarantined.clear();
                switch.quarantined_paths(now, &mut quarantined);
                tele.set_path_state(&quarantined);
                tele.close_window(switch.backlog().copies as u64);
            }
        }
        events.clear();
        switch.recycle(outcome);
    }
}

fn run_stack() -> (Stack, Telemetry) {
    let mut sw = stack();
    let mut telemetry = Telemetry::new(N, TELEMETRY_STRIDE);
    drive(&mut sw, &mut traffic(), Some(&mut telemetry));
    (sw, telemetry)
}

fn speedup_payload(fabric: &SpeedupFabric) -> Vec<u8> {
    let mut w = StateWriter::new();
    fabric.write_state(&mut w);
    w.into_bytes()
}

/// Every golden this build writes.
fn goldens() -> Vec<Golden> {
    let mut out = Vec::new();

    // FIFOMS under egress faults: scoreboard marks, retried copies, an
    // undrained admission-drop ledger and event buffer.
    let mut faulty = faulty_fifoms();
    let mut tr = traffic();
    drive(&mut faulty, &mut tr, None);
    out.push(checkpoint_golden(
        &faulty,
        faulty_fifoms,
        |f| fabric::Layer::inner(f),
        |f| fabric::Layer::inner_mut(f),
    ));
    out.push(plain_golden(&faulty, faulty_fifoms));
    out.push(plain_golden(&tr, traffic));

    // The full wrapper stack, each layer's own state and the framed save.
    let (sw, telemetry) = run_stack();
    out.push(plain_golden(&sw, stack));
    out.push(checkpoint_golden(
        &sw,
        stack,
        |s| fabric::Layer::inner(fabric::Layer::inner(s)),
        |s| fabric::Layer::inner_mut(fabric::Layer::inner_mut(s)),
    ));
    out.push(Golden {
        file: "stack-checked-faulty-instrumented-fifoms.bin".to_string(),
        written: sw.save_state().expect("the stack saves its state"),
        resave: Box::new(|blob| {
            let mut fresh = stack();
            fresh.load_state(blob).expect("committed stack blob loads");
            fresh.save_state().expect("the stack saves its state")
        }),
    });
    out.push(plain_golden(&telemetry, || {
        Telemetry::new(N, TELEMETRY_STRIDE)
    }));

    let mut mc = McFifoSwitch::new(N, 3);
    drive(&mut mc, &mut traffic(), None);
    out.push(plain_golden(&mc, || McFifoSwitch::new(N, 3)));

    let mut oq = OqFifoSwitch::new(N);
    drive(&mut oq, &mut traffic(), None);
    out.push(plain_golden(&oq, || OqFifoSwitch::new(N)));

    // `SpeedupFabric` has a codec but no kind: pin its raw payload.
    let mut fabric = SpeedupFabric::new(N, 2);
    let mut schedule = CrossbarSchedule::builder(N);
    schedule.connect(PortId(0), PortId(1)).unwrap();
    schedule.connect(PortId(2), PortId(3)).unwrap();
    let schedule = schedule.build();
    for _ in 0..5 {
        fabric.apply_phase(&schedule);
        fabric.finish_slot();
    }
    fabric.apply_phase(&schedule);
    out.push(Golden {
        file: "payload-speedup-fabric.bin".to_string(),
        written: speedup_payload(&fabric),
        resave: Box::new(|blob| {
            let mut fresh = SpeedupFabric::new(N, 2);
            let mut r = StateReader::new(blob);
            fresh
                .read_state(&mut r)
                .expect("committed payload restores");
            r.expect_exhausted().expect("payload fully consumed");
            speedup_payload(&fresh)
        }),
    });
    out
}

#[test]
fn every_codec_writes_its_committed_golden_byte_for_byte() {
    let dir = golden_dir();
    let candidates = Path::new(env!("CARGO_TARGET_TMPDIR")).join("checkpoints");
    let mut failures = Vec::new();
    for g in goldens() {
        match std::fs::read(dir.join(&g.file)) {
            Ok(committed) if committed == g.written => {}
            Ok(committed) => failures.push(format!(
                "{}: this build writes {} bytes that differ from the committed {} \
                 (first difference at byte {}); a layout change must bump the \
                 component's state_version",
                g.file,
                g.written.len(),
                committed.len(),
                first_difference(&committed, &g.written),
            )),
            Err(_) => {
                std::fs::create_dir_all(&candidates).unwrap();
                let path = candidates.join(&g.file);
                std::fs::write(&path, &g.written).unwrap();
                failures.push(format!(
                    "{}: no committed golden; candidate written to {}",
                    g.file,
                    path.display()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_committed_golden_reloads_and_resaves_identically() {
    let goldens = goldens();
    let mut committed: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden directory exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    committed.sort();
    let mut known: Vec<String> = goldens.iter().map(|g| g.file.clone()).collect();
    known.sort();
    assert_eq!(
        committed, known,
        "every committed golden belongs to a codec this build writes"
    );
    for g in &goldens {
        let blob = std::fs::read(golden_dir().join(&g.file)).unwrap();
        assert!(
            (g.resave)(&blob) == blob,
            "{}: load then save changed the bytes",
            g.file
        );
    }
}

#[test]
fn seeded_runs_leave_every_buffer_nonempty() {
    // The goldens pin a codec only as far as the state they hold: the
    // seeded runs must leave the buffers every codec writes non-empty.
    let (mut sw, telemetry) = run_stack();
    let faulty = fabric::Layer::inner(&sw);
    assert!(
        faulty.stats().copies_requeued > 0,
        "egress faults requeued copies"
    );
    let core = fabric::Layer::inner(fabric::Layer::inner(faulty));
    assert!(!core.scoreboard().is_empty(), "the scoreboard holds marks");
    assert!(telemetry.windows().count() > 1, "several windows closed");
    let mut drops = Vec::new();
    sw.drain_admission_drops(&mut drops);
    assert!(!drops.is_empty(), "finite buffers dropped copies");
    let mut events = Vec::new();
    sw.drain_events(&mut events);
    assert!(!events.is_empty(), "undrained events are part of the blob");
}

fn first_difference(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}
