//! The benchmark's workloads: how each builds its switch stack and
//! traffic, runs through the engine's public entry points, and which
//! simulated outputs it checks.

use std::path::{Path, PathBuf};

use fifoms_baselines::IslipSwitch;
use fifoms_core::{AdmissionPolicy, BufferConfig, MulticastVoqSwitch};
use fifoms_fabric::{CheckedSwitch, FaultConfig, FaultyFabric, InstrumentedSwitch, Switch};
use fifoms_obs::Telemetry;
use fifoms_sim::{
    try_simulate, try_simulate_controlled, try_simulate_recoverable, CheckpointConfig, Observer,
    OverloadControls, OverloadGovernor, RecoveryRuntime, RunConfig, RunResult, TelemetryChannel,
};
use fifoms_traffic::{BernoulliMulticast, TrafficModel};
use fifoms_types::Slot;

use crate::shim::Shim;
use crate::traced::{self, Counts};
use crate::tracer::{Layer, TraceHandle};

/// The seed whose outputs are recorded in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// `stack-n16`: checkpoint interval and telemetry window, in slots.
const CHECKPOINT_EVERY: u64 = 5_000;
const TELEMETRY_WINDOW: u64 = 1_000;
/// `overload-n32`: per-VOQ and per-input buffer limits, in copies.
const VOQ_CAP: usize = 16;
const INPUT_CAP: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Sched,
    Stack,
    Overload,
    Islip,
}

/// One workload: a switch stack, a Bernoulli multicast traffic model and
/// a run length. Every input to the program is generated from the seed.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    kind: Kind,
    /// Switch size N.
    pub n: usize,
    /// Offered effective load.
    pub load: f64,
    /// Bernoulli fanout probability b.
    pub b: f64,
    /// Slots per repetition.
    pub slots: u64,
    /// Copies per VOQ passed to `Switch::reserve_steady_state` before
    /// slot 0: room for the deepest VOQ the workload builds, so its
    /// steady state allocates as little as the stack allows.
    reserve_per_voq: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sched-n64",
        kind: Kind::Sched,
        n: 64,
        load: 0.9,
        b: 0.2,
        slots: 20_000,
        reserve_per_voq: 64,
    },
    Workload {
        name: "stack-n16",
        kind: Kind::Stack,
        n: 16,
        load: 0.6,
        b: 0.25,
        slots: 60_000,
        reserve_per_voq: 16,
    },
    Workload {
        name: "overload-n32",
        kind: Kind::Overload,
        n: 32,
        load: 1.2,
        b: 0.25,
        slots: 20_000,
        reserve_per_voq: VOQ_CAP,
    },
    Workload {
        name: "islip-n64",
        kind: Kind::Islip,
        n: 64,
        load: 0.9,
        b: 0.2,
        slots: 20_000,
        reserve_per_voq: 64,
    },
];

/// The FIFOMS tie-break seed derived from the benchmark seed.
pub fn switch_seed(seed: u64) -> u64 {
    seed.wrapping_add(0x5eed)
}

/// Digest and totals of the arrival stream a workload's seed generates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArrivalStream {
    /// FNV-1a over every `(slot, input, destination)` triple.
    pub digest: u64,
    /// Packets generated.
    pub packets: u64,
    /// Copies generated (sum of fanouts).
    pub copies: u64,
}

struct Fnv(u64);

impl Fnv {
    fn write(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The top of a switch stack: the switch the engine drives, kept typed
/// where the benchmark must read `CheckedSwitch`'s ledger afterwards.
enum Top {
    Bare(Box<dyn Switch>),
    Checked(CheckedSwitch<Box<dyn Switch>>),
    TracedChecked(Shim<CheckedSwitch<Box<dyn Switch>>>),
}

impl Top {
    fn switch(&mut self) -> &mut dyn Switch {
        match self {
            Top::Bare(s) => s.as_mut(),
            Top::Checked(c) => c,
            Top::TracedChecked(s) => s,
        }
    }

    /// Copies still queued, read past any shim so no span is recorded.
    fn backlog(&self) -> u64 {
        let backlog = match self {
            Top::Bare(s) => s.backlog(),
            Top::Checked(c) => c.backlog(),
            Top::TracedChecked(s) => s.inner().backlog(),
        };
        backlog.copies as u64
    }

    fn checked(&self) -> Option<&CheckedSwitch<Box<dyn Switch>>> {
        match self {
            Top::Bare(_) => None,
            Top::Checked(c) => Some(c),
            Top::TracedChecked(s) => Some(s.inner()),
        }
    }
}

/// Everything one repetition runs on, built before slot 0.
pub struct Setup {
    top: Top,
    traffic: BernoulliMulticast,
    controls: Option<OverloadControls>,
    recovery: Option<RecoveryRuntime>,
    telemetry: Option<Telemetry>,
    wal: Option<PathBuf>,
}

/// Box `s`, behind a timing shim when the run is traced.
fn layer<S: Switch + 'static>(trace: Option<&TraceHandle>, layer: Layer, s: S) -> Box<dyn Switch> {
    match trace {
        Some(t) => Box::new(Shim::new(layer, t.clone(), s)),
        None => Box::new(s),
    }
}

fn checked_top(trace: Option<&TraceHandle>, c: CheckedSwitch<Box<dyn Switch>>) -> Top {
    match trace {
        Some(t) => Top::TracedChecked(Shim::new(Layer::Checked, t.clone(), c)),
        None => Top::Checked(c),
    }
}

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload with a different run length (for tests).
    pub fn with_slots(mut self, slots: u64) -> Workload {
        self.slots = slots;
        self
    }

    /// The same workload on an `n`-port switch (for tests).
    pub fn with_ports(mut self, n: usize) -> Workload {
        self.n = n;
        self
    }

    /// The same workload at a different offered load (for tests).
    pub fn with_load(mut self, load: f64) -> Workload {
        self.load = load;
        self
    }

    /// One line stating the input size, printed with every result.
    pub fn describe(&self) -> String {
        let stack = match self.kind {
            Kind::Sched => "FIFOMS, unbounded buffers".to_string(),
            Kind::Stack => format!(
                "Checked(Faulty(Instrumented(FIFOMS))), no faults, telemetry window \
                 {TELEMETRY_WINDOW}, WAL, checkpoint every {CHECKPOINT_EVERY}"
            ),
            Kind::Overload => format!(
                "Checked(FIFOMS) with capacity, VOQ {VOQ_CAP} / input {INPUT_CAP} pushout, \
                 overload governor, no backpressure"
            ),
            Kind::Islip => "iSLIP, unbounded buffers".to_string(),
        };
        format!(
            "N={} load={} b={} slots/rep={} stack: {stack}",
            self.n, self.load, self.b, self.slots
        )
    }

    /// The traffic model `seed` generates.
    pub fn traffic(&self, seed: u64) -> Result<BernoulliMulticast, String> {
        let p = BernoulliMulticast::p_for_load(self.load, self.n, self.b);
        BernoulliMulticast::new(self.n, p, self.b, seed).map_err(|e| e.to_string())
    }

    fn run_config(&self) -> RunConfig {
        // Statistics cover the whole run (no warm-up), so the run's own
        // totals close the copy-conservation balance.
        RunConfig {
            slots: self.slots,
            warmup: 0,
            backlog_cap: 10_000_000,
            sample_every: 100,
        }
    }

    /// Generate the arrival stream of `seed` on its own, outside any run.
    pub fn arrivals(&self, seed: u64) -> Result<ArrivalStream, String> {
        let mut traffic = self.traffic(seed)?;
        let mut buf = Vec::with_capacity(self.n);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let (mut packets, mut copies) = (0u64, 0u64);
        for t in 0..self.slots {
            traffic.next_slot(Slot(t), &mut buf);
            for (input, dests) in buf.iter().enumerate() {
                let Some(dests) = dests else { continue };
                packets += 1;
                copies += dests.len() as u64;
                h.write(t);
                h.write(input as u64);
                for d in dests.iter() {
                    h.write(d.index() as u64);
                }
            }
        }
        Ok(ArrivalStream {
            digest: h.0,
            packets,
            copies,
        })
    }

    /// Build the switch stack, traffic model, overload controls,
    /// telemetry and recovery directory of one repetition, and reserve
    /// the switch's steady-state memory: everything up to slot 0. With
    /// `trace`, a shim sits above every switch layer.
    pub fn setup(
        &self,
        seed: u64,
        work_dir: &Path,
        trace: Option<&TraceHandle>,
    ) -> Result<Setup, String> {
        let n = self.n;
        let switch_seed = switch_seed(seed);
        let fifoms = || layer(trace, Layer::Core, MulticastVoqSwitch::new(n, switch_seed));
        let traffic = self.traffic(seed)?;
        let (mut controls, mut recovery, mut telemetry, mut wal) = (None, None, None, None);
        let mut top = match self.kind {
            Kind::Sched => Top::Bare(fifoms()),
            Kind::Islip => Top::Bare(layer(trace, Layer::Islip, IslipSwitch::new(n))),
            Kind::Stack => {
                let instrumented = layer(
                    trace,
                    Layer::Instrumented,
                    InstrumentedSwitch::new(fifoms()),
                );
                let faulty = layer(
                    trace,
                    Layer::Faulty,
                    FaultyFabric::new(instrumented, FaultConfig::none()),
                );
                telemetry = Some(Telemetry::new(n, TELEMETRY_WINDOW));
                let dir = work_dir.join(self.name);
                let cfg = CheckpointConfig {
                    dir: dir.clone(),
                    every: CHECKPOINT_EVERY,
                };
                recovery = Some(RecoveryRuntime::fresh(&cfg).map_err(|e| e.to_string())?);
                wal = Some(dir.join("arrivals.wal"));
                checked_top(trace, CheckedSwitch::new(faulty))
            }
            Kind::Overload => {
                let buffers =
                    BufferConfig::bounded(VOQ_CAP, INPUT_CAP).with_policy(AdmissionPolicy::Pushout);
                let capacity = buffers
                    .max_copies(n)
                    .ok_or("bounded buffers have a capacity")?;
                let core = MulticastVoqSwitch::new(n, switch_seed).with_buffers(buffers);
                controls =
                    Some(OverloadControls::new(n).with_governor(OverloadGovernor::new(capacity)));
                checked_top(
                    trace,
                    CheckedSwitch::new(layer(trace, Layer::Core, core)).with_capacity(capacity),
                )
            }
        };
        top.switch().reserve_steady_state(self.reserve_per_voq);
        Ok(Setup {
            top,
            traffic,
            controls,
            recovery,
            telemetry,
            wal,
        })
    }

    /// Run through the engine's public entry point, tracing off.
    pub fn run(&self, s: &mut Setup) -> Result<RunResult, String> {
        let cfg = self.run_config();
        let sw = s.top.switch();
        let traffic = &mut s.traffic;
        let result = match (s.controls.as_mut(), s.recovery.as_mut()) {
            (Some(ctl), _) => {
                try_simulate_controlled(sw, traffic, &cfg, &mut Observer::none(), ctl)
            }
            (None, Some(rec)) => {
                let mut obs = Observer {
                    sink: None,
                    profiler: None,
                    telemetry: s.telemetry.as_mut().map(|telemetry| TelemetryChannel {
                        telemetry,
                        series: None,
                        bus: None,
                    }),
                };
                try_simulate_recoverable(sw, traffic, &cfg, &mut obs, rec)
            }
            (None, None) => try_simulate(sw, traffic, &cfg),
        };
        result.map_err(|e| e.to_string())
    }

    /// Run the benchmark's copy of the engine loop with every phase
    /// traced. `s` must have been set up with the same `trace`.
    pub fn run_traced(
        &self,
        s: &mut Setup,
        trace: &TraceHandle,
    ) -> Result<(RunResult, Counts), String> {
        traced::simulate(
            s.top.switch(),
            &mut s.traffic,
            &self.run_config(),
            s.controls.as_mut(),
            s.recovery.as_mut(),
            s.telemetry.as_mut(),
            s.wal.as_deref(),
            trace,
        )
        .map_err(|e| e.to_string())
    }

    /// Check one run's outputs against the invariants every run must
    /// hold, and render them as the line compared across repetitions,
    /// between timed and traced runs, and with `reference.txt`.
    pub fn check(
        &self,
        r: &RunResult,
        s: &Setup,
        arrivals: &ArrivalStream,
    ) -> Result<Outputs, String> {
        if r.slots_run != self.slots {
            return Err(format!("ran {} of {} slots", r.slots_run, self.slots));
        }
        if r.packets_admitted != arrivals.packets {
            return Err(format!(
                "admitted {} packets, the traffic generated {}",
                r.packets_admitted, arrivals.packets
            ));
        }
        let trimmed = s.controls.as_ref().map_or(0, |c| c.fanout_copies_trimmed);
        let backlog = s.top.backlog();
        let (admitted, dropped, reconciled) = match s.top.checked() {
            Some(c) => {
                if let Some(v) = c.violation() {
                    return Err(format!("CheckedSwitch violation: {v}"));
                }
                if c.delivered_copies() != r.copies_delivered {
                    return Err(format!(
                        "CheckedSwitch counted {} delivered copies, the engine {}",
                        c.delivered_copies(),
                        r.copies_delivered
                    ));
                }
                (
                    c.admitted_copies(),
                    c.admission_dropped_copies(),
                    c.reconciled_copies(),
                )
            }
            None => (arrivals.copies, 0, 0),
        };
        if admitted + trimmed != arrivals.copies {
            return Err(format!(
                "{admitted} copies admitted + {trimmed} trimmed, the traffic generated {}",
                arrivals.copies
            ));
        }
        if admitted != r.copies_delivered + backlog + dropped + reconciled {
            return Err(format!(
                "conservation: admitted {admitted} != delivered {} + backlog {backlog} + \
                 dropped {dropped} + reconciled {reconciled}",
                r.copies_delivered
            ));
        }
        Ok(Outputs {
            line: format!(
                "arrivals={:016x} packets={} slots_run={} packets_admitted={} \
                 copies_delivered={} admission_dropped={dropped} trimmed={trimmed} \
                 backlog={backlog} mean_rounds={:?} throughput={:?} delay_in={:?} \
                 delay_out={:?} verdict={:?}",
                arrivals.digest,
                arrivals.packets,
                r.slots_run,
                r.packets_admitted,
                r.copies_delivered,
                r.mean_rounds,
                r.throughput,
                r.delay.mean_input_oriented,
                r.delay.mean_output_oriented,
                r.verdict,
            ),
            dropped,
        })
    }
}

/// A checked run's simulated outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outputs {
    /// Every checked output on one line; `f64`s print exactly.
    pub line: String,
    /// Copies dropped by admission control.
    pub dropped: u64,
}

/// The recorded output line of `workload` at [`DEFAULT_SEED`], if any.
pub fn reference(workload: &str) -> Option<&'static str> {
    include_str!("../reference.txt")
        .lines()
        .find_map(|l| l.strip_prefix(workload)?.strip_prefix(' '))
}
