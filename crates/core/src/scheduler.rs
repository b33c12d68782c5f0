//! The iterative FIFOMS matching algorithm (paper §III, Table 2).

use fifoms_fabric::{CrossbarSchedule, FaultScoreboard};
use fifoms_types::{PortId, PortSet, Slot, SpanSample, SpanTimer};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::port::InputPort;

/// How an output breaks ties between requests with equal (smallest) time
/// stamps.
///
/// The paper specifies *random* selection; the alternatives exist as
/// ablation targets for the tie-break design decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TieBreak {
    /// Uniformly random among tied requests (the paper's rule).
    #[default]
    Random,
    /// Deterministically the lowest input index.
    LowestInput,
    /// Round-robin: the first tied input at or after a rotating pointer
    /// that advances each slot.
    Rotating,
}

/// Scheduler options.
#[derive(Clone, Copy, Debug)]
pub struct FifomsConfig {
    /// Output tie-break rule.
    pub tie_break: TieBreak,
    /// Cap on iterative rounds per slot; `None` iterates to convergence
    /// (at most `N` rounds — each productive round reserves at least one
    /// output).
    pub max_rounds: Option<u32>,
    /// Ablation: when `true`, a free input requests only *one* output (the
    /// lowest-indexed free destination of its oldest HOL cell) instead of
    /// all destinations sharing the smallest stamp. This disables the
    /// one-shot multicast delivery that FIFOMS gets from the crossbar and
    /// degenerates the algorithm to unicast-style matching.
    pub single_request: bool,
    /// Ablation modelling the restricted-fanout multicast scheduler of the
    /// paper's reference \[15\] (Smiljanic, HPSR '02): cap the number of
    /// outputs one input may be granted per slot. `None` (the paper's
    /// FIFOMS) uses the crossbar's full multicast capability; small caps
    /// force extra fanout splitting and show why the restriction "is not
    /// able to fully utilize the multicast capability" (§I).
    pub max_grant_fanout: Option<usize>,
}

impl Default for FifomsConfig {
    fn default() -> FifomsConfig {
        FifomsConfig {
            tie_break: TieBreak::Random,
            max_rounds: None,
            single_request: false,
            max_grant_fanout: None,
        }
    }
}

/// Result of scheduling one slot.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// The legal crossbar setting to apply.
    pub schedule: CrossbarSchedule,
    /// Rounds in which at least one new pair matched (Fig. 5 metric).
    pub rounds: u32,
    /// `grants[i]` = outputs granted to input `i` this slot. All granted
    /// address cells of an input share one time stamp and hence one data
    /// cell (§III-B: no accept step needed).
    pub grants: Vec<PortSet>,
    /// `heads[i]` = position, in input `i`'s age-ordered packet list (see
    /// [`VoqSet`](crate::VoqSet)), of the packet its grants belong to.
    /// Meaningful only where `grants[i]` is non-empty.
    pub heads: Vec<usize>,
}

impl ScheduleOutcome {
    /// An idle outcome for an `n×n` switch, suitable as the reusable
    /// target of [`FifomsScheduler::schedule_into`].
    pub fn empty(n: usize) -> ScheduleOutcome {
        ScheduleOutcome {
            schedule: CrossbarSchedule::empty(n),
            rounds: 0,
            grants: vec![PortSet::new(); n],
            heads: vec![0; n],
        }
    }
}

/// The FIFOMS matching engine.
///
/// Stateless between slots except for the rotating tie-break pointer; the
/// queue state lives in [`InputPort`]s and randomness is supplied by the
/// caller, which keeps the scheduler deterministic under a seeded RNG.
///
/// # Examples
///
/// ```
/// use fifoms_core::{FifomsScheduler, InputPort};
/// use fifoms_types::{Packet, PacketId, PortId, Slot};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// // a 4x4 switch: four input ports, each with four VOQs
/// let mut ports: Vec<InputPort> = (0..4).map(|_| InputPort::new(4)).collect();
/// // input 0: a fanout-3 multicast arrived at slot 1
/// ports[0].admit(&Packet::new(
///     PacketId(1), Slot(1), PortId(0),
///     [0usize, 1, 3].into_iter().collect(),
/// ));
/// let out = FifomsScheduler::paper().schedule(&ports, &mut SmallRng::seed_from_u64(7));
/// // all three destinations granted in a single round
/// assert_eq!(out.rounds, 1);
/// assert_eq!(out.grants[0].len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct FifomsScheduler {
    config: FifomsConfig,
    rotate: usize,
    // Scratch buffers reused across slots so the steady-state matching
    // loop performs no heap allocation (verified by the alloc-audit
    // harness). They hold no state between calls — every `schedule_into`
    // resets them first — and each is sized by `N` alone, so none grows
    // after the first slot. (An input is free exactly while its grant set
    // is empty, so no separate free-input list is kept.)
    /// All `N` outputs, the value `free` starts each slot with.
    all: PortSet,
    /// Outputs not yet granted this slot.
    free: PortSet,
    /// Per input, the outputs it may still request: its non-empty VOQs on
    /// non-quarantined paths, narrowed to `free` each round.
    eligible: Vec<PortSet>,
    /// The request being fanned out: `remaining ∩ eligible` of one input.
    request: PortSet,
    /// Inputs that may still request this round — free, with a packet at
    /// their cursor — in ascending order.
    active: Vec<usize>,
    /// Per output, the requesting `(stamp, input)`s of the current round,
    /// in ascending input order (at most `N` each).
    requests: Vec<Vec<(Slot, usize)>>,
}

impl FifomsScheduler {
    /// Scheduler with the given options.
    pub fn new(config: FifomsConfig) -> FifomsScheduler {
        FifomsScheduler {
            config,
            rotate: 0,
            all: PortSet::new(),
            free: PortSet::new(),
            eligible: Vec::new(),
            request: PortSet::new(),
            active: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Scheduler with the paper's defaults.
    pub fn paper() -> FifomsScheduler {
        FifomsScheduler::new(FifomsConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> FifomsConfig {
        self.config
    }

    /// The round-robin rotation cursor — the scheduler's only cross-slot
    /// mutable state (the scratch buffers are cleared every call).
    pub fn rotate(&self) -> usize {
        self.rotate
    }

    /// Restore the rotation cursor from a checkpoint.
    pub fn restore_rotate(&mut self, rotate: usize) {
        self.rotate = rotate;
    }

    /// Compute the matching for one slot over the current queue state.
    ///
    /// Implements Table 2's do-while loop: request step (each free input
    /// requests with its smallest-stamp HOL address cells whose outputs
    /// are free), grant step (each free output grants the smallest stamp,
    /// ties broken per [`TieBreak`]), iterating until no new pair matches.
    pub fn schedule(&mut self, ports: &[InputPort], rng: &mut SmallRng) -> ScheduleOutcome {
        self.schedule_avoiding(ports, None, rng)
    }

    /// [`FifomsScheduler::schedule`], additionally skipping quarantined
    /// egress paths: with `avoid = Some((scoreboard, now))` a HOL cell
    /// whose `(input, output)` path is quarantined neither participates
    /// in the smallest-stamp selection nor requests its output, so known
    /// dead paths stop wasting request/grant iterations. With `None`
    /// this is exactly `schedule` — the unfaulted path is bit-identical.
    ///
    /// Skipped cells stay queued; once the scoreboard's timed forgetting
    /// expires a mark, the path's HOL cell requests again (the re-probe).
    pub fn schedule_avoiding(
        &mut self,
        ports: &[InputPort],
        avoid: Option<(&FaultScoreboard, Slot)>,
        rng: &mut SmallRng,
    ) -> ScheduleOutcome {
        let mut out = ScheduleOutcome::empty(ports.len());
        self.schedule_into(ports, avoid, rng, &mut out, None);
        out
    }

    /// [`FifomsScheduler::schedule_avoiding`] writing the matching into a
    /// caller-owned outcome instead of allocating a fresh one, so a switch
    /// can reuse one `ScheduleOutcome` (and this scheduler its scratch
    /// buffers) for an allocation-free steady-state slot loop.
    ///
    /// The request step runs over each input's packets in age order (see
    /// [`VoqSet`](crate::VoqSet)): the head of VOQ `o` is the oldest
    /// packet still destined to `o`, so the smallest-stamp HOL cells among
    /// the eligible outputs `E` are exactly the cells of the oldest packet
    /// `p` with `remaining(p) ∩ E ≠ ∅`, and the request is that
    /// intersection. `E` starts as the input's non-empty VOQs and only
    /// shrinks within a slot, so each input's search resumes where the
    /// previous round stopped (`heads[i]`); past a few packets it jumps to
    /// the first VOQ head in `E` instead of walking a deep backlog.
    ///
    /// With `spans = Some(buf)`, appends one [`SpanSample`] per scheduling
    /// sub-phase (`voq_scan`: the search for each input's oldest
    /// requesting packet; `request`: fanning the requests out to the outputs;
    /// `grant`) covering this call; with `None` no clock is read. The RNG
    /// consumption is identical either way, so instrumented and plain runs
    /// stay bit-identical.
    pub fn schedule_into(
        &mut self,
        ports: &[InputPort],
        avoid: Option<(&FaultScoreboard, Slot)>,
        rng: &mut SmallRng,
        out: &mut ScheduleOutcome,
        spans: Option<&mut Vec<SpanSample>>,
    ) {
        let n = ports.len();
        debug_assert!(
            ports.iter().all(|p| p.voqs().outputs() == n),
            "square switch required: every input port must have N = {n} VOQs"
        );
        let timing = spans.is_some();
        let (mut voq_scan_ns, mut request_ns, mut grant_ns) = (0u64, 0u64, 0u64);

        out.schedule.reset(n);
        out.rounds = 0;
        for g in &mut out.grants {
            g.clear();
        }
        out.grants.resize_with(n, PortSet::new);
        out.heads.clear();
        out.heads.resize(n, 0);
        let grants = &mut out.grants;
        let heads = &mut out.heads;

        let Self {
            config,
            rotate,
            all,
            free,
            eligible,
            request,
            active,
            requests,
        } = self;
        if requests.len() != n {
            *all = PortSet::all(n);
            *active = Vec::with_capacity(n);
            requests.clear();
            requests.resize_with(n, || Vec::with_capacity(n));
        }
        free.clear();
        free.union_with(all);
        active.clear();
        eligible.resize_with(n, PortSet::new);
        for (i, (set, port)) in eligible.iter_mut().zip(ports).enumerate() {
            set.clear();
            if port.voqs().is_empty() {
                continue;
            }
            set.union_with(port.voqs().occupied());
            if let Some((sb, now)) = avoid {
                for o in 0..n {
                    let o = PortId::new(o);
                    if sb.is_quarantined(PortId::new(i), o, now) {
                        set.remove(o);
                    }
                }
            }
            active.push(i);
        }

        loop {
            if let Some(cap) = config.max_rounds {
                if out.rounds >= cap {
                    break;
                }
            }
            // ---- request step, first pass: VOQ scan ----
            // Each free input advances to its oldest packet with a
            // destination among its eligible outputs. Inputs that already
            // hold grants drop out: their other same-stamp HOL cells lost
            // their outputs' arbitration in earlier rounds and may not
            // request again (§III-B.1 case 2). So do inputs with nothing
            // left to request this slot. The packet list is fixed within a
            // slot and the cursor passed only packets with no eligible
            // destination, so the search may resume from it.
            let lap = timing.then(SpanTimer::start);
            active.retain(|&i| {
                if !grants.get(i).is_some_and(PortSet::is_empty) {
                    return false;
                }
                let (Some(port), Some(head), Some(targets)) =
                    (ports.get(i), heads.get_mut(i), eligible.get_mut(i))
                else {
                    return false;
                };
                targets.intersect_with(free);
                match port.voqs().seek(*head, targets) {
                    Some(at) => {
                        *head = at;
                        true
                    }
                    None => false,
                }
            });
            if let Some(t) = lap {
                voq_scan_ns += t.elapsed_ns();
            }
            if active.is_empty() {
                break;
            }

            // ---- request step, second pass: send requests ----
            // Every active input's request `remaining ∩ eligible` is
            // non-empty (the walk just narrowed `eligible` to `free`); fan
            // each out to its outputs.
            let lap = timing.then(SpanTimer::start);
            for req in requests.iter_mut() {
                req.clear();
            }
            for &i in active.iter() {
                let packet = ports
                    .get(i)
                    .zip(heads.get(i))
                    .and_then(|(port, &head)| port.voqs().packets().get(head));
                let (Some(packet), Some(targets)) = (packet, eligible.get(i)) else {
                    continue;
                };
                request.clear();
                request.union_with(&packet.remaining);
                request.intersect_with(targets);
                for o in &*request {
                    // `o < n` (square-switch invariant), so the lookup
                    // always hits.
                    if let Some(req) = requests.get_mut(o.index()) {
                        req.push((packet.stamp, i));
                    }
                    if config.single_request {
                        break; // ablation: one request per input
                    }
                }
            }
            if let Some(t) = lap {
                request_ns += t.elapsed_ns();
            }

            // ---- grant step ----
            let lap = timing.then(SpanTimer::start);
            let mut matched = false;
            for (o, req) in requests.iter().enumerate() {
                let output = PortId::new(o);
                if req.is_empty() {
                    continue;
                }
                // Requests only target free outputs, and each output is
                // arbitrated once per round.
                debug_assert!(free.contains(output), "request to a granted output");
                let Some(winner) = Self::arbitrate(config, *rotate, req, grants, rng) else {
                    continue;
                };
                debug_assert!(
                    winner < grants.len(),
                    "arbitrate returns a requester input, and requesters are < n"
                );
                free.remove(output);
                grants[winner].insert(output);
                out.schedule
                    .try_connect(PortId::new(winner), output)
                    // fifoms-lint: allow(R3) the free-output set grants each output at most once; an Err is a scheduler bug that must not be masked into a wrong schedule
                    .expect("grant bookkeeping produced an illegal schedule");
                matched = true;
            }
            if let Some(t) = lap {
                grant_ns += t.elapsed_ns();
            }
            if !matched {
                break;
            }
            out.rounds += 1;
        }
        *rotate = (*rotate + 1) % n.max(1);
        if let Some(spans) = spans {
            spans.push(SpanSample {
                name: "voq_scan",
                ns: voq_scan_ns,
            });
            spans.push(SpanSample {
                name: "request",
                ns: request_ns,
            });
            spans.push(SpanSample {
                name: "grant",
                ns: grant_ns,
            });
        }
    }

    /// Arbitration among the requests of one output: of the oldest
    /// requesters still under the fanout cap (inputs that hit the
    /// restricted-fanout cap are ineligible, so the output falls back to
    /// the next-oldest eligible requester), pick one per the configured
    /// tie-break; `None` when every requester is capped. Streams over the
    /// request list instead of collecting the tied set, but consumes the
    /// RNG identically to the collecting formulation: one
    /// `gen_range(0..tied_count)` call per granted output.
    fn arbitrate(
        config: &FifomsConfig,
        rotate: usize,
        req: &[(Slot, usize)],
        grants: &[PortSet],
        rng: &mut SmallRng,
    ) -> Option<usize> {
        debug_assert!(
            req.windows(2).all(|w| w[0].1 < w[1].1),
            "requests arrive in ascending input order"
        );
        let eligible = |i: usize| under_cap(grants, i, config.max_grant_fanout);
        // (oldest stamp, requesters sharing it, the first — and, by the
        // request order, lowest — of them)
        let mut best: Option<(Slot, usize, usize)> = None;
        for &(ts, i) in req {
            if !eligible(i) {
                continue;
            }
            match &mut best {
                Some((min, count, _)) if ts == *min => *count += 1,
                Some((min, _, _)) if ts > *min => {}
                _ => best = Some((ts, 1, i)),
            }
        }
        let (min_ts, count, lowest) = best?;
        let mut tied = req
            .iter()
            .filter(move |&&(ts, i)| ts == min_ts && eligible(i))
            .map(|&(_, i)| i);
        Some(match config.tie_break {
            TieBreak::Random => match rng.gen_range(0..count) {
                0 => lowest,
                k => tied.nth(k).unwrap_or(lowest),
            },
            TieBreak::LowestInput => lowest,
            TieBreak::Rotating => tied.find(|&i| i >= rotate).unwrap_or(lowest),
        })
    }
}

/// Whether input `i` may take another grant under the restricted-fanout
/// cap (always, for the paper's uncapped FIFOMS).
fn under_cap(grants: &[PortSet], i: usize, cap: Option<usize>) -> bool {
    cap.is_none_or(|cap| grants.get(i).is_some_and(|g| g.len() < cap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{Packet, PacketId};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn ports_with(n: usize, packets: &[(usize, u64, &[usize])]) -> Vec<InputPort> {
        // (input, arrival_slot, dests)
        let mut ports: Vec<InputPort> = (0..n).map(|_| InputPort::new(n)).collect();
        for (idx, &(input, arrival, dests)) in packets.iter().enumerate() {
            ports[input].admit(&Packet::new(
                PacketId(idx as u64),
                Slot(arrival),
                PortId::new(input),
                dests.iter().copied().collect(),
            ));
        }
        ports
    }

    #[test]
    fn idle_switch_schedules_nothing() {
        let ports = ports_with(4, &[]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert!(out.schedule.is_idle());
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn multicast_served_in_one_round_when_outputs_free() {
        let ports = ports_with(4, &[(0, 1, &[0, 1, 3])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.rounds, 1);
        assert_eq!(out.grants[0], [0usize, 1, 3].into_iter().collect());
        assert_eq!(out.schedule.connections(), 3);
        assert_eq!(out.schedule.multicast_inputs(), 1);
    }

    #[test]
    fn older_packet_wins_contention() {
        // Inputs 0 and 1 both want output 2; input 1's packet is older.
        let ports = ports_with(4, &[(0, 5, &[2]), (1, 3, &[2])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.schedule.driver_of(PortId(2)), Some(PortId(1)));
        // loser stays unmatched (no other destinations)
        assert!(out.grants[0].is_empty());
    }

    #[test]
    fn loser_matches_elsewhere_in_later_round() {
        // Output 0 contested: input 1 older. Input 0 also queues a younger
        // packet for output 1, which it wins in round 2.
        let ports = ports_with(4, &[(0, 5, &[0]), (0, 6, &[1]), (1, 3, &[0])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.schedule.driver_of(PortId(0)), Some(PortId(1)));
        assert_eq!(out.schedule.driver_of(PortId(1)), Some(PortId(0)));
        assert_eq!(out.rounds, 2);
    }

    #[test]
    fn fanout_splitting_grants_partial_set() {
        // Input 0's multicast wants {0,1}; output 1 is won by input 1's
        // older unicast. FIFOMS still sends input 0's copy to output 0 —
        // fanout splitting.
        let ports = ports_with(4, &[(0, 5, &[0, 1]), (1, 2, &[1])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.schedule.driver_of(PortId(1)), Some(PortId(1)));
        assert_eq!(out.schedule.driver_of(PortId(0)), Some(PortId(0)));
        assert_eq!(out.grants[0], PortSet::singleton(PortId(0)));
    }

    #[test]
    fn matched_input_stops_requesting() {
        // Input 0 has an old unicast to output 0 and a younger one to
        // output 1. Once the old one is granted, the younger must NOT be
        // scheduled this slot (one data cell per input per slot).
        let ports = ports_with(4, &[(0, 1, &[0]), (0, 2, &[1])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.grants[0], PortSet::singleton(PortId(0)));
        assert!(out.schedule.driver_of(PortId(1)).is_none());
    }

    #[test]
    fn equal_stamp_cells_at_one_input_are_one_packet() {
        // Two inputs, both arrive at slot 3. Input 0: multicast {0,1};
        // input 1: multicast {1,2}. Output 1 is contested with equal
        // stamps; whoever loses keeps its copy for later.
        let ports = ports_with(4, &[(0, 3, &[0, 1]), (1, 3, &[1, 2])]);
        let out = FifomsScheduler::new(FifomsConfig {
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        // LowestInput: output 1 grants input 0
        assert_eq!(out.grants[0], [0usize, 1].into_iter().collect());
        assert_eq!(out.grants[1], PortSet::singleton(PortId(2)));
    }

    #[test]
    fn random_tie_break_hits_both_inputs() {
        let mut seen0 = false;
        let mut seen1 = false;
        for seed in 0..64 {
            let ports = ports_with(4, &[(0, 3, &[1]), (1, 3, &[1])]);
            let mut r = SmallRng::seed_from_u64(seed);
            let out = FifomsScheduler::paper().schedule(&ports, &mut r);
            match out.schedule.driver_of(PortId(1)) {
                Some(PortId(0)) => seen0 = true,
                Some(PortId(1)) => seen1 = true,
                other => panic!("unexpected driver {other:?}"),
            }
        }
        assert!(seen0 && seen1, "random tie-break never alternated");
    }

    #[test]
    fn rotating_tie_break_prefers_pointer() {
        let mut sched = FifomsScheduler::new(FifomsConfig {
            tie_break: TieBreak::Rotating,
            ..FifomsConfig::default()
        });
        // First slot: pointer at 0 → input 0 wins the tie.
        let ports = ports_with(4, &[(0, 3, &[1]), (1, 3, &[1])]);
        let out = sched.schedule(&ports, &mut rng());
        assert_eq!(out.schedule.driver_of(PortId(1)), Some(PortId(0)));
        // Second slot: pointer advanced to 1 → input 1 wins.
        let ports = ports_with(4, &[(0, 3, &[1]), (1, 3, &[1])]);
        let out = sched.schedule(&ports, &mut rng());
        assert_eq!(out.schedule.driver_of(PortId(1)), Some(PortId(1)));
    }

    #[test]
    fn max_rounds_caps_iteration() {
        // A contention cascade that needs 3 rounds to fully match: all
        // three inputs first chase output 0 (their oldest cells), the two
        // losers chase output 1 next, and the final loser settles for
        // output 2 in round 3.
        let ports = ports_with(
            4,
            &[
                (0, 1, &[0]),
                (1, 2, &[0]),
                (1, 5, &[1]),
                (2, 3, &[0]),
                (2, 6, &[1]),
                (2, 7, &[2]),
            ],
        );
        let capped = FifomsScheduler::new(FifomsConfig {
            max_rounds: Some(1),
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        assert_eq!(capped.rounds, 1);
        assert_eq!(capped.schedule.connections(), 1);
        let full = FifomsScheduler::new(FifomsConfig {
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        assert_eq!(full.rounds, 3);
        assert_eq!(full.schedule.connections(), 3);
        assert_eq!(full.schedule.driver_of(PortId(0)), Some(PortId(0)));
        assert_eq!(full.schedule.driver_of(PortId(1)), Some(PortId(1)));
        assert_eq!(full.schedule.driver_of(PortId(2)), Some(PortId(2)));
    }

    #[test]
    fn single_request_ablation_serialises_multicast() {
        let ports = ports_with(4, &[(0, 1, &[0, 1, 3])]);
        let out = FifomsScheduler::new(FifomsConfig {
            single_request: true,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        // only the lowest destination is requested and granted
        assert_eq!(out.grants[0], PortSet::singleton(PortId(0)));
    }

    #[test]
    fn restricted_fanout_caps_grants_per_slot() {
        // Fanout-3 multicast with a grant cap of 2: only two copies go out
        // this slot; the third address cell stays queued (extra splitting,
        // modelling reference [15]'s restriction).
        let ports = ports_with(4, &[(0, 1, &[0, 1, 3])]);
        let out = FifomsScheduler::new(FifomsConfig {
            max_grant_fanout: Some(2),
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        assert_eq!(out.grants[0].len(), 2);
        assert_eq!(out.schedule.connections(), 2);
    }

    #[test]
    fn restricted_fanout_frees_output_for_other_inputs() {
        // Input 0 (older) wants {0,1}, capped at 1; input 1 wants {1}.
        // Output 1 must fall back to input 1 rather than idle.
        let ports = ports_with(4, &[(0, 1, &[0, 1]), (1, 5, &[1])]);
        let out = FifomsScheduler::new(FifomsConfig {
            max_grant_fanout: Some(1),
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        assert_eq!(out.grants[0].len(), 1);
        assert_eq!(out.schedule.driver_of(PortId(1)), Some(PortId(1)));
    }

    #[test]
    fn unrestricted_equals_none_cap() {
        let mk = |cap| {
            let ports = ports_with(4, &[(0, 1, &[0, 1, 2, 3])]);
            FifomsScheduler::new(FifomsConfig {
                max_grant_fanout: cap,
                ..FifomsConfig::default()
            })
            .schedule(&ports, &mut rng())
            .schedule
            .connections()
        };
        assert_eq!(mk(None), 4);
        assert_eq!(mk(Some(4)), 4);
        assert_eq!(mk(Some(64)), 4);
    }

    #[test]
    fn convergence_bounded_by_n() {
        // Worst case: every input wants every output, staggered stamps.
        let packets: Vec<(usize, u64, &[usize])> = (0..8)
            .map(|i| (i, (i + 1) as u64, &[0usize, 1, 2, 3, 4, 5, 6, 7][..]))
            .collect();
        let ports = ports_with(8, &packets);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert!(out.rounds <= 8, "rounds {} > N", out.rounds);
        // oldest packet (input 0) must receive the full grant
        assert_eq!(out.grants[0].len(), 8 - out.grants.iter().skip(1).map(PortSet::len).sum::<usize>());
    }

    #[test]
    fn unmatched_deep_backlog_is_not_walked() {
        // Input 0's oldest packet takes every output in round 1. Input 1
        // has a deep backlog; once no output is free, nothing it queues
        // can request, so its cursor stays on the packet it requested with.
        let mut packets: Vec<(usize, u64, &[usize])> = vec![(0, 0, &[0, 1, 2, 3])];
        packets.extend((1..=1000).map(|t| (1, t, &[0usize, 1, 2, 3][..])));
        let ports = ports_with(4, &packets);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.grants[0].len(), 4);
        assert!(out.grants[1].is_empty());
        assert_eq!(out.heads[1], 0);

        // Free outputs remain, but input 1's whole backlog is for the one
        // output input 2 won: again no walk.
        let mut packets: Vec<(usize, u64, &[usize])> = vec![(2, 0, &[0])];
        packets.extend((1..=1000).map(|t| (1, t, &[0usize][..])));
        let ports = ports_with(4, &packets);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.schedule.driver_of(PortId(0)), Some(PortId(2)));
        assert!(out.grants[1].is_empty());
        assert_eq!(out.heads[1], 0);

        // The same backlog with one young packet for a free output: the
        // loser finds it through the head stamps and wins output 1.
        packets.push((1, 1001, &[1]));
        let ports = ports_with(4, &packets);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.grants[1], PortSet::singleton(PortId(1)));
        assert_eq!(out.heads[1], 1000);
        assert_eq!(out.rounds, 2);
    }

    /// `(output, HOL cell)` over the non-empty VOQs of `port`.
    fn hol_cells(port: &InputPort) -> impl Iterator<Item = (PortId, crate::AddressCell)> + '_ {
        (0..port.voqs().outputs())
            .filter_map(|o| port.voqs().hol(PortId::new(o)).map(|c| (PortId::new(o), c)))
    }

    /// Random queue states for the property tests.
    fn arb_state() -> impl Strategy<Value = Vec<InputPort>> {
        proptest::collection::vec(
            proptest::collection::vec(
                (0u64..16, proptest::collection::btree_set(0usize..6, 1..6)),
                0..6,
            ),
            6,
        )
        .prop_map(|per_input| {
            let mut id = 0u64;
            per_input
                .into_iter()
                .enumerate()
                .map(|(i, mut pkts)| {
                    let mut port = InputPort::new(6);
                    // packets must be admitted in nondecreasing stamp order
                    pkts.sort_by_key(|&(ts, _)| ts);
                    let mut last = None;
                    for (ts, dests) in pkts {
                        // dedupe stamps within an input (one arrival per slot)
                        let ts = match last {
                            Some(prev) if ts <= prev => prev + 1,
                            _ => ts,
                        };
                        last = Some(ts);
                        id += 1;
                        port.admit(&Packet::new(
                            PacketId(id),
                            Slot(ts),
                            PortId::new(i),
                            dests.iter().copied().collect(),
                        ));
                    }
                    port
                })
                .collect()
        })
    }

    proptest! {
        /// The matching is legal, grants agree with the schedule, every
        /// input's grant set shares one time stamp (single data cell), and
        /// the matching is maximal: no free input still has a HOL cell
        /// toward a free output.
        #[test]
        fn prop_schedule_sound_and_maximal(ports in arb_state(), seed in 0u64..64) {
            let mut r = SmallRng::seed_from_u64(seed);
            let out = FifomsScheduler::paper().schedule(&ports, &mut r);
            // grants match schedule
            for (i, g) in out.grants.iter().enumerate() {
                prop_assert_eq!(&out.schedule.outputs_of(PortId::new(i)), g);
                // all granted cells share the same stamp = one packet
                let stamps: Vec<Slot> = g
                    .iter()
                    .map(|o| ports[i].voqs().hol(o).unwrap().time_stamp)
                    .collect();
                prop_assert!(stamps.windows(2).all(|w| w[0] == w[1]));
            }
            // maximality
            let matched_inputs: Vec<bool> =
                (0..6).map(|i| !out.grants[i].is_empty()).collect();
            for (i, port) in ports.iter().enumerate() {
                if matched_inputs[i] {
                    continue;
                }
                for (o, _) in hol_cells(port) {
                    prop_assert!(
                        out.schedule.output_busy(o),
                        "free input {i} had HOL cell to free output {o}"
                    );
                }
            }
            // rounds bounded by N
            prop_assert!(out.rounds <= 6);
        }

        /// The oldest HOL stamp present in the system always gets matched
        /// (the FIFO principle that makes FIFOMS starvation-free).
        #[test]
        fn prop_globally_oldest_cell_is_served(ports in arb_state(), seed in 0u64..32) {
            let mut r = SmallRng::seed_from_u64(seed);
            let out = FifomsScheduler::paper().schedule(&ports, &mut r);
            let oldest = ports
                .iter()
                .flat_map(|p| hol_cells(p).map(|(_, c)| c.time_stamp))
                .min();
            if let Some(oldest) = oldest {
                // some input whose HOL stamp equals the global minimum must
                // have been granted at least one output
                let served = ports.iter().enumerate().any(|(i, p)| {
                    !out.grants[i].is_empty()
                        && hol_cells(p).any(|(_, c)| c.time_stamp == oldest)
                });
                prop_assert!(served, "globally oldest stamp {oldest} unserved");
            }
        }
    }
}
