//! Lockstep oracle for FIFOMS: a deliberately literal transcription of the
//! paper's Table 2 over explicit address-cell VOQs, run slot by slot next
//! to `MulticastVoqSwitch` on the same arrivals.
//!
//! The oracle keeps one `VecDeque` of address cells per (input, output),
//! data cells with fanout counters, and the per-round request/grant loop
//! exactly as the paper states it: every free input scans all of its HOL
//! cells for the smallest stamp among free outputs and requests every
//! free output whose HOL cell carries that stamp; every free output
//! collects its tied oldest requesters and picks one. Nothing in it shares
//! code with the production scheduler, which works on each input's
//! packets in age order instead. After every slot the two must agree on
//! the matching (every departure, in order), the round count, the RNG
//! state and the admission drops; the queue contents are compared too.

use std::collections::{BTreeMap, VecDeque};

use fifoms_core::{AdmissionPolicy, BufferConfig, FifomsConfig, MulticastVoqSwitch, TieBreak};
use fifoms_fabric::{FaultScoreboard, Switch};
use fifoms_types::{AdmissionDrop, Departure, Packet, PacketId, PortId, PortSet, Slot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const QUARANTINE: u64 = 25;

/// An address cell: the packet's stamp and (standing in for the data-cell
/// pointer) its id.
#[derive(Clone, Copy)]
struct Cell {
    stamp: Slot,
    packet: PacketId,
}

struct Oracle {
    n: usize,
    cfg: FifomsConfig,
    buffers: BufferConfig,
    voqs: Vec<Vec<VecDeque<Cell>>>,
    /// Per input: packet id -> fanout counter of its live data cell.
    data: Vec<BTreeMap<u64, u32>>,
    rng: SmallRng,
    rotate: usize,
    scoreboard: FaultScoreboard,
    /// Test hook: a tie-break bug that picks the tied requester after the
    /// drawn one.
    perturb: bool,
}

impl Oracle {
    fn new(n: usize, seed: u64, cfg: FifomsConfig, buffers: BufferConfig) -> Oracle {
        Oracle {
            n,
            cfg,
            buffers,
            voqs: vec![vec![VecDeque::new(); n]; n],
            data: vec![BTreeMap::new(); n],
            rng: SmallRng::seed_from_u64(seed),
            rotate: 0,
            scoreboard: FaultScoreboard::new(n, QUARANTINE),
            perturb: false,
        }
    }

    /// Table 1 preprocessing, with the finite-buffer policies applied to
    /// the explicit queues. Returns the dropped copies as (packet, output).
    fn admit(&mut self, p: &Packet) -> Vec<(PacketId, PortId)> {
        let (i, b) = (p.input.index(), self.buffers);
        let mut order: Vec<PortId> = p.dests.iter().collect();
        if b.policy == AdmissionPolicy::FairShed {
            order.sort_by_key(|d| self.voqs[i][d.index()].len());
        }
        let (mut admitted, mut shed, mut evicted) = (Vec::new(), Vec::new(), Vec::new());
        let mut occupancy: usize = self.voqs[i].iter().map(VecDeque::len).sum();
        for d in order {
            let own = self.voqs[i][d.index()].len();
            if b.voq_cap.is_some_and(|cap| own >= cap) {
                shed.push((p.id, d));
                continue;
            }
            if b.input_cap.is_some_and(|cap| occupancy >= cap) {
                let mut victim: Option<usize> = None;
                for (o, q) in self.voqs[i].iter().enumerate() {
                    if !q.is_empty() && victim.is_none_or(|v| q.len() > self.voqs[i][v].len()) {
                        victim = Some(o);
                    }
                }
                match victim.filter(|&v| {
                    b.policy == AdmissionPolicy::Pushout && self.voqs[i][v].len() > own
                }) {
                    Some(v) => {
                        let cell = self.voqs[i][v].pop_back().unwrap();
                        self.serve_data(i, cell.packet);
                        evicted.push((cell.packet, PortId::new(v)));
                        occupancy -= 1;
                    }
                    None => {
                        shed.push((p.id, d));
                        continue;
                    }
                }
            }
            admitted.push(d);
            occupancy += 1;
        }
        if !admitted.is_empty() {
            self.data[i].insert(p.id.raw(), admitted.len() as u32);
            for d in admitted {
                self.voqs[i][d.index()].push_back(Cell {
                    stamp: p.arrival,
                    packet: p.id,
                });
            }
        }
        shed.extend(evicted);
        shed
    }

    /// Decrement a fanout counter; true when the data cell is destroyed.
    fn serve_data(&mut self, i: usize, packet: PacketId) -> bool {
        let counter = self.data[i].get_mut(&packet.raw()).expect("live data cell");
        *counter -= 1;
        let done = *counter == 0;
        if done {
            self.data[i].remove(&packet.raw());
        }
        done
    }

    /// One slot of Table 2: request/grant rounds, then transmission.
    fn run_slot(&mut self, now: Slot) -> (Vec<Departure>, u32) {
        let n = self.n;
        let mut input_free = vec![true; n];
        let mut output_free = vec![true; n];
        let mut grants: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut rounds = 0;
        let live = |sb: &FaultScoreboard, i: usize, o: usize| {
            !sb.is_quarantined(PortId::new(i), PortId::new(o), now)
        };
        loop {
            if self.cfg.max_rounds.is_some_and(|cap| rounds >= cap) {
                break;
            }
            // Request step: each free input finds the smallest stamp among
            // its HOL cells toward free outputs, and requests them all.
            let mut requests: Vec<Vec<(Slot, usize)>> = vec![Vec::new(); n];
            for i in (0..n).filter(|&i| input_free[i]) {
                let eligible = |o: usize| output_free[o] && live(&self.scoreboard, i, o);
                let hol = |o: usize| self.voqs[i][o].front().map(|c| c.stamp);
                let Some(min) = (0..n).filter(|&o| eligible(o)).filter_map(hol).min() else {
                    continue;
                };
                for (o, req) in requests.iter_mut().enumerate() {
                    if eligible(o) && hol(o) == Some(min) {
                        req.push((min, i));
                        if self.cfg.single_request {
                            break;
                        }
                    }
                }
            }
            if requests.iter().all(Vec::is_empty) {
                break;
            }
            // Grant step: each free output grants its oldest eligible
            // requester, breaking ties per the configured rule.
            let mut matched = false;
            for o in 0..n {
                let cap = self.cfg.max_grant_fanout;
                let ok = |i: usize| cap.is_none_or(|c| grants[i].len() < c);
                let Some(min) = requests[o].iter().filter(|r| ok(r.1)).map(|r| r.0).min() else {
                    continue;
                };
                let tied: Vec<usize> = requests[o]
                    .iter()
                    .filter(|r| r.0 == min && ok(r.1))
                    .map(|r| r.1)
                    .collect();
                let lowest = *tied.iter().min().unwrap();
                let winner = match self.cfg.tie_break {
                    TieBreak::Random => {
                        let k = self.rng.gen_range(0..tied.len());
                        tied[if self.perturb {
                            (k + 1) % tied.len()
                        } else {
                            k
                        }]
                    }
                    TieBreak::LowestInput => lowest,
                    TieBreak::Rotating => {
                        *tied.iter().find(|&&i| i >= self.rotate).unwrap_or(&lowest)
                    }
                };
                output_free[o] = false;
                input_free[winner] = false;
                grants[winner].push(o);
                matched = true;
            }
            if !matched {
                break;
            }
            rounds += 1;
        }
        self.rotate = (self.rotate + 1) % n;
        // Transmission: pop each granted HOL cell, serve its data cell.
        let mut departures = Vec::new();
        for (i, outs) in grants.iter().enumerate() {
            for &o in outs {
                let cell = self.voqs[i][o]
                    .pop_front()
                    .expect("granted VOQ has a HOL cell");
                let last_copy = self.serve_data(i, cell.packet);
                departures.push(Departure {
                    packet: cell.packet,
                    arrival: cell.stamp,
                    input: PortId::new(i),
                    output: PortId::new(o),
                    last_copy,
                });
            }
        }
        (departures, rounds)
    }

    /// Egress-fault retry: mark the path, and re-queue the copy at the
    /// head of its VOQ with its original stamp.
    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) {
        self.scoreboard.record_failure(d.input, d.output, now);
        if requeue {
            let i = d.input.index();
            *self.data[i].entry(d.packet.raw()).or_insert(0) += 1;
            self.voqs[i][d.output.index()].push_front(Cell {
                stamp: d.arrival,
                packet: d.packet,
            });
        }
    }
}

/// One lockstep scenario.
#[derive(Clone, Copy)]
struct Scenario {
    n: usize,
    cfg: FifomsConfig,
    buffers: BufferConfig,
    /// Packet arrival probability per input per slot.
    load: f64,
    /// Probability that each output is a destination of a packet.
    spread: f64,
    /// Probability that a departing copy fails at the crosspoint.
    faults: f64,
    slots: u64,
    seed: u64,
}

impl Scenario {
    fn new(n: usize, slots: u64, seed: u64) -> Scenario {
        Scenario {
            n,
            cfg: FifomsConfig::default(),
            buffers: BufferConfig::unbounded(),
            load: 0.8,
            spread: 3.0 / n as f64,
            faults: 0.0,
            slots,
            seed,
        }
    }
}

/// What a lockstep run exercised.
#[derive(Debug, Default)]
struct Tally {
    delivered: u64,
    dropped: u64,
    failed: u64,
}

/// Run the switch and the oracle side by side; `Err` names the first slot
/// where they disagree.
fn lockstep(sc: Scenario, perturb: bool) -> Result<Tally, String> {
    let n = sc.n;
    let mut sw = MulticastVoqSwitch::with_config(n, sc.seed, sc.cfg)
        .with_buffers(sc.buffers)
        .with_quarantine_slots(QUARANTINE);
    let mut oracle = Oracle::new(n, sc.seed, sc.cfg, sc.buffers);
    oracle.perturb = perturb;
    let mut traffic = SmallRng::seed_from_u64(sc.seed ^ 0x7ab1e2);
    let (mut id, mut tally, mut drops) = (0u64, Tally::default(), Vec::<AdmissionDrop>::new());
    for t in 0..sc.slots {
        let now = Slot(t);
        for input in 0..n {
            if !traffic.gen_bool(sc.load) {
                continue;
            }
            let mut dests: PortSet = (0..n).filter(|_| traffic.gen_bool(sc.spread)).collect();
            if dests.is_empty() {
                dests.insert(PortId::new(traffic.gen_range(0..n)));
            }
            id += 1;
            let p = Packet::new(PacketId(id), now, PortId::new(input), dests);
            let want = oracle.admit(&p);
            sw.admit(p);
            drops.clear();
            sw.drain_admission_drops(&mut drops);
            let got: Vec<_> = drops.iter().map(|d| (d.packet, d.output)).collect();
            if got != want {
                return Err(format!(
                    "slot {t}: admission drops {got:?}, oracle {want:?}"
                ));
            }
            tally.dropped += got.len() as u64;
        }
        let out = sw.run_slot(now);
        let (want, rounds) = oracle.run_slot(now);
        if out.departures != want {
            return Err(format!(
                "slot {t}: departures {:?}, oracle {want:?}",
                out.departures
            ));
        }
        if out.rounds != rounds {
            return Err(format!("slot {t}: {} rounds, oracle {rounds}", out.rounds));
        }
        if sw.rng_state() != oracle.rng.state() {
            return Err(format!("slot {t}: RNG state diverged"));
        }
        tally.delivered += want.len() as u64;
        for d in &out.departures {
            if sc.faults > 0.0 && traffic.gen_bool(sc.faults) {
                tally.failed += 1;
                let requeue = traffic.gen_bool(0.8);
                sw.copy_failed(d, now, requeue);
                oracle.copy_failed(d, now, requeue);
            }
        }
        sw.recycle(out);
        if t % 25 == 24 {
            sw.check_invariants();
            for i in 0..n {
                for o in 0..n {
                    let got: Vec<Slot> = sw
                        .port(i)
                        .voqs()
                        .cells(PortId::new(o))
                        .map(|c| c.time_stamp)
                        .collect();
                    let want: Vec<Slot> = oracle.voqs[i][o].iter().map(|c| c.stamp).collect();
                    if got != want {
                        return Err(format!(
                            "slot {t}: VOQ ({i},{o}) holds {got:?}, oracle {want:?}"
                        ));
                    }
                }
            }
        }
    }
    Ok(tally)
}

fn check(sc: Scenario) -> Tally {
    let tally = lockstep(sc, false).unwrap_or_else(|e| panic!("{e}"));
    assert!(tally.delivered > 0, "scenario must carry traffic");
    tally
}

#[test]
fn agrees_with_table2_at_every_size() {
    // N = 200 runs the heap-spill PortSet path.
    for (n, slots) in [(4, 600), (16, 400), (64, 150), (200, 40)] {
        check(Scenario::new(n, slots, n as u64));
    }
}

#[test]
fn agrees_with_table2_on_every_config_axis() {
    let tie_breaks = [TieBreak::Random, TieBreak::LowestInput, TieBreak::Rotating];
    let axes = [
        (None, false, None),
        (Some(1), false, None),
        (Some(2), false, None),
        (None, true, None),
        (None, false, Some(1)),
        (None, false, Some(3)),
        (Some(2), true, Some(2)),
    ];
    for (k, &tie_break) in tie_breaks.iter().enumerate() {
        for (j, &(max_rounds, single_request, max_grant_fanout)) in axes.iter().enumerate() {
            let mut sc = Scenario::new(12, 300, (k * 10 + j) as u64);
            sc.cfg = FifomsConfig {
                tie_break,
                max_rounds,
                single_request,
                max_grant_fanout,
            };
            check(sc);
        }
    }
}

#[test]
fn agrees_with_table2_under_finite_buffers() {
    for (k, policy) in [
        AdmissionPolicy::Pushout,
        AdmissionPolicy::DropTail,
        AdmissionPolicy::FairShed,
    ]
    .into_iter()
    .enumerate()
    {
        let mut sc = Scenario::new(16, 300, 40 + k as u64);
        sc.buffers = BufferConfig::bounded(6, 20).with_policy(policy);
        sc.load = 1.0;
        sc.spread = 0.3;
        assert!(check(sc).dropped > 0, "{policy:?}: buffers never filled");
    }
}

#[test]
fn agrees_with_table2_under_quarantine_and_requeue() {
    // Egress faults fill the scoreboard, so the scheduler avoids
    // quarantined paths; failed copies go back to their VOQ heads.
    for (n, seed) in [(8, 50), (16, 51), (64, 52)] {
        let mut sc = Scenario::new(n, 300, seed);
        sc.faults = 0.1;
        assert!(check(sc).failed > 0, "no copy failed");
        sc.cfg.tie_break = TieBreak::Rotating;
        sc.buffers = BufferConfig::bounded(0, 24).with_policy(AdmissionPolicy::Pushout);
        sc.load = 1.0;
        let tally = check(sc);
        assert!(
            tally.failed > 0 && tally.dropped > 0,
            "faults or pushout never fired"
        );
    }
}

#[test]
fn agrees_with_table2_while_quarantine_holds_old_packets() {
    // Light load with frequent faults: a quarantined path keeps an old
    // packet queued while younger ones are served around it, so served
    // packets pile up mid-list and are swept, and failed last copies
    // are re-inserted ahead of younger packets.
    for (n, seed) in [(8, 60), (16, 61)] {
        let mut sc = Scenario::new(n, 600, seed);
        sc.load = 0.5;
        sc.spread = 1.5 / n as f64;
        sc.faults = 0.3;
        assert!(check(sc).failed > 0, "no copy failed");
    }
}

#[test]
fn oracle_catches_an_off_by_one_tie_break() {
    // Same scenario, but the oracle's random tie-break picks the tied
    // requester after the drawn one: the lockstep run must notice.
    let sc = Scenario::new(16, 200, 7);
    assert!(lockstep(sc, false).is_ok());
    let err = lockstep(sc, true).expect_err("perturbed tie-break went unnoticed");
    assert!(
        err.contains("departures"),
        "unexpected first mismatch: {err}"
    );
}
