//! One input port: data-cell buffer plus `N` virtual output queues, with
//! the packet preprocessing of the paper's Table 1.

use fifoms_types::{Departure, Packet, PacketId, PortId, PortSet, Slot};

use crate::buffer::{AdmissionPolicy, BufferConfig};
use crate::cell::DataCellKey;
use crate::slab::DataCellSlab;
use crate::voq::{QueuedPacket, VoqSet};

/// A queued copy evicted by pushout admission to make room for an arrival.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvictedCopy {
    /// The packet the evicted address cell belonged to.
    pub packet: PacketId,
    /// The evicted packet's original arrival slot (its FIFOMS stamp).
    pub arrival: Slot,
    /// The VOQ (destination output) the cell was evicted from.
    pub output: PortId,
}

/// What finite-buffer admission did with one arriving packet.
///
/// Each [`InputPort`] keeps one of these and refills it on every
/// [`InputPort::admit_bounded`] call, so bounded admission reuses the
/// same buffers packet after packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BoundedAdmission {
    /// The data cell allocated for the admitted copies (`None` when every
    /// copy was shed, in which case no buffer state was consumed at all).
    pub key: Option<DataCellKey>,
    /// Arriving copies refused (their destination outputs).
    pub shed: Vec<PortId>,
    /// Already-queued copies pushed out to make room (pushout policy).
    pub evicted: Vec<EvictedCopy>,
}

impl BoundedAdmission {
    /// Room for a full-fanout arrival at an `n`-output port without
    /// growing any buffer.
    fn with_capacity(n: usize) -> BoundedAdmission {
        BoundedAdmission {
            key: None,
            shed: Vec::with_capacity(n),
            evicted: Vec::with_capacity(n),
        }
    }
}

/// The buffering state of one input port of the multicast VOQ switch.
///
/// Combines the [`DataCellSlab`] (payloads, stored once) with the
/// [`VoqSet`] (address cells, one queue per output, held as the port's
/// live packets in age order). [`InputPort::admit`] is the preprocessing
/// algorithm of Table 1:
///
/// ```text
/// Input: a new packet.
/// Output: data cell and address cells of the packet.
/// create a new data cell;
/// dataCell.fanoutCounter = fanout of the packet;
/// for each destination output port of the packet {
///     create a new address cell;
///     addressCell.timeStamp = current time slot;
///     addressCell.pDataCell = pointer to the data cell;
///     put the address cell at the end of the virtual output queue
///         corresponding to the output port;
/// }
/// ```
#[derive(Clone, Debug)]
pub struct InputPort {
    slab: DataCellSlab,
    voqs: VoqSet,
    // The report of the latest bounded admission (reused scratch).
    admission: BoundedAdmission,
    // Scratch: destinations in the order bounded admission considers them.
    admit_order: Vec<PortId>,
}

impl InputPort {
    /// An empty input port of an `n×n` switch.
    pub fn new(n: usize) -> InputPort {
        InputPort {
            slab: DataCellSlab::new(),
            voqs: VoqSet::new(n),
            admission: BoundedAdmission::with_capacity(n),
            admit_order: Vec::with_capacity(n),
        }
    }

    /// Preprocess an arriving packet (Table 1): allocate its data cell and
    /// append one address cell per destination. Returns the data cell key.
    pub fn admit(&mut self, packet: &Packet) -> DataCellKey {
        let key = self
            .slab
            .alloc(packet.id, packet.arrival, packet.fanout() as u32);
        self.voqs.append(packet.arrival, key, &packet.dests);
        key
    }

    /// Preprocess an arriving packet against finite buffer limits: admit
    /// the copies the [`BufferConfig`] allows, shed or push out the rest,
    /// and report what happened. The report lives in the port and is
    /// overwritten by the next call.
    ///
    /// Policy semantics (all deterministic, all stamp-preserving):
    ///
    /// * every policy drop-tails at the per-VOQ limit — an arriving copy
    ///   whose own queue is full is refused (pushing out that queue's tail
    ///   for an even younger arrival would gain nothing);
    /// * when only the per-input aggregate binds, [`AdmissionPolicy::Pushout`]
    ///   evicts the tail of the *longest* VOQ (strictly longer than the
    ///   arriving copy's queue) instead of refusing the arrival, and
    ///   [`AdmissionPolicy::FairShed`] considers destinations shortest
    ///   queue first so the longest flows shed first;
    /// * [`AdmissionPolicy::DropTail`] refuses arriving copies in
    ///   destination order once the aggregate is full.
    pub fn admit_bounded(&mut self, packet: &Packet, cfg: &BufferConfig) -> &BoundedAdmission {
        let out = &mut self.admission;
        out.key = None;
        out.shed.clear();
        out.evicted.clear();
        let order = &mut self.admit_order;
        order.clear();
        order.extend(packet.dests.iter());
        if cfg.policy == AdmissionPolicy::FairShed {
            // Stable sort by queue length: ties keep ascending port order.
            let voqs = &self.voqs;
            order.sort_by_key(|d| voqs.queue(*d).len());
        }
        let mut admitted = PortSet::new();
        let mut occupancy = self.voqs.total_cells();
        for &dest in order.iter() {
            let own_len = self.voqs.queue(dest).len();
            if cfg.voq_cap.is_some_and(|cap| own_len >= cap) {
                out.shed.push(dest);
                continue;
            }
            if cfg.input_cap.is_some_and(|cap| occupancy >= cap) {
                let victim = if cfg.policy == AdmissionPolicy::Pushout {
                    // Evict only from a strictly longer queue: equal-length
                    // eviction would just thrash copies between flows.
                    self.voqs.longest_queue().filter(|&(_, len)| len > own_len)
                } else {
                    None
                };
                // `longest_queue` reported the victim nonempty; if the
                // eviction still finds no cell, shed instead of panicking.
                let popped = victim.and_then(|(victim_q, _)| {
                    self.voqs.evict_tail(victim_q).map(|key| (victim_q, key))
                });
                match popped {
                    Some((victim_q, key)) => {
                        let data = *self.slab.get(key);
                        self.slab.serve_destination(key);
                        out.evicted.push(EvictedCopy {
                            packet: data.packet,
                            arrival: data.arrival,
                            output: victim_q,
                        });
                        occupancy -= 1;
                    }
                    None => {
                        out.shed.push(dest);
                        continue;
                    }
                }
            }
            admitted.insert(dest);
            occupancy += 1;
        }

        if !admitted.is_empty() {
            let key = self
                .slab
                .alloc(packet.id, packet.arrival, admitted.len() as u32);
            self.voqs.append(packet.arrival, key, &admitted);
            out.key = Some(key);
        }
        out
    }

    /// Post-transmission processing (paper §III-B.4) for the packet at
    /// `head` in the age order, which sent copies to `outputs` this slot:
    /// its address cells leave the queues, its fanout counter drops by
    /// `|outputs|` (destroying the data cell at zero), and one departure
    /// per output is appended in ascending output order. Only the last of
    /// them can complete the packet.
    pub(crate) fn serve(
        &mut self,
        head: usize,
        outputs: &PortSet,
        input: PortId,
        departures: &mut Vec<Departure>,
    ) {
        let key = self
            .voqs
            .serve(head, outputs)
            // fifoms-lint: allow(R3) INVARIANT: the scheduler grants only outputs of the packet at the input's cursor, so the granted packet is queued
            .expect("granted packet is not queued");
        let data = *self.slab.get(key);
        let done = self.slab.serve_destinations(key, outputs.len() as u32);
        let last = outputs.len();
        for (j, output) in outputs.iter().enumerate() {
            departures.push(Departure {
                packet: data.packet,
                arrival: data.arrival,
                input,
                output,
                last_copy: done && j + 1 == last,
            });
        }
    }

    /// Put a copy whose transmission failed back in its queue with its
    /// original arrival stamp. If sibling copies are still queued the
    /// packet's data cell is live and its counter goes back up; if this
    /// was the last copy the cell was destroyed, so a fanout-1 cell with
    /// the ORIGINAL arrival is allocated and the FIFO weight survives.
    pub(crate) fn requeue(&mut self, packet: PacketId, arrival: Slot, output: PortId) {
        let slab = &self.slab;
        let live = self
            .voqs
            .packets()
            .iter()
            .filter(|p| !p.remaining.is_empty())
            .map(|p| p.key)
            .find(|&key| slab.get(key).packet == packet);
        let key = match live {
            Some(key) => {
                self.slab.restore_destination(key);
                key
            }
            None => self.slab.alloc(packet, arrival, 1),
        };
        self.voqs.requeue(arrival, key, output);
    }

    /// Pre-size the data-cell buffer and the age-ordered packet list for
    /// `packets` live packets.
    pub(crate) fn reserve(&mut self, packets: usize) {
        self.slab.reserve(packets);
        self.voqs.reserve(packets);
    }

    /// The data-cell buffer.
    pub fn slab(&self) -> &DataCellSlab {
        &self.slab
    }

    /// The virtual output queues.
    pub fn voqs(&self) -> &VoqSet {
        &self.voqs
    }

    /// Mutable virtual output queues (high-water collection and checkpoint
    /// restore).
    pub(crate) fn voqs_mut(&mut self) -> &mut VoqSet {
        &mut self.voqs
    }

    /// Mutable data-cell buffer (checkpoint restore).
    pub(crate) fn slab_mut(&mut self) -> &mut DataCellSlab {
        &mut self.slab
    }

    /// Unsent packets held (the paper's queue-size metric for this port).
    pub fn held_packets(&self) -> usize {
        self.slab.live()
    }

    /// Undelivered copies queued at this port.
    pub fn queued_copies(&self) -> usize {
        self.voqs.total_cells()
    }

    /// Whether this port holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty() && self.voqs.is_empty()
    }

    /// Structural invariant: every queued packet points at a live data
    /// cell with the same arrival whose fanout counter equals the packet's
    /// queued destinations, every live data cell is queued, stamps are in
    /// age order, served packets left in the list are neither at its ends
    /// nor more than half of it, and the per-VOQ counters and head
    /// positions match the packet list. Used by tests and debug builds.
    pub fn check_invariants(&self) {
        let packets = self.voqs.packets();
        let served = |p: &&QueuedPacket| p.remaining.is_empty();
        let tombstones = packets.iter().filter(served).count();
        assert_eq!(
            packets.len() - tombstones,
            self.slab.live(),
            "live data cells disagree with queued packets"
        );
        assert!(
            tombstones * 2 <= packets.len()
                && !packets.front().is_some_and(|p| served(&p))
                && !packets.back().is_some_and(|p| served(&p)),
            "served packets linger in the packet list"
        );
        let mut last = None;
        for p in packets {
            assert!(
                last.is_none_or(|s| s <= p.stamp),
                "packets out of age order"
            );
            last = Some(p.stamp);
            if served(&p) {
                continue;
            }
            // get() panics on stale keys
            let data = self.slab.get(p.key);
            assert_eq!(
                data.fanout_counter as usize,
                p.remaining.len(),
                "fanout counter disagrees with queued address cells"
            );
            assert_eq!(
                data.arrival, p.stamp,
                "address cell stamp disagrees with data cell arrival"
            );
        }
        let mut total = 0;
        for o in 0..self.voqs.outputs() {
            let o = PortId::new(o);
            let len = self.voqs.queue(o).len();
            assert_eq!(
                len,
                self.voqs.cells(o).count(),
                "VOQ {o} length counter drifted"
            );
            assert_eq!(
                len > 0,
                self.voqs.occupied().contains(o),
                "occupied-output set drifted at VOQ {o}"
            );
            assert_eq!(
                self.voqs.head_index(o),
                packets.iter().position(|p| p.remaining.contains(o)),
                "head position of VOQ {o} drifted"
            );
            total += len;
        }
        assert_eq!(total, self.voqs.total_cells(), "queued-copy total drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{PacketId, PortSet, Slot};

    fn packet(id: u64, arrival: u64, dests: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            Slot(arrival),
            PortId(0),
            dests.iter().copied().collect::<PortSet>(),
        )
    }

    fn stamps(port: &InputPort, o: u16) -> Vec<u64> {
        port.voqs()
            .cells(PortId(o))
            .map(|c| c.time_stamp.index())
            .collect()
    }

    fn admit_bounded(port: &mut InputPort, p: &Packet, cfg: &BufferConfig) -> BoundedAdmission {
        port.admit_bounded(p, cfg).clone()
    }

    #[test]
    fn admit_creates_one_data_cell_and_fanout_address_cells() {
        let mut port = InputPort::new(4);
        let key = port.admit(&packet(1, 5, &[0, 2, 3]));
        assert_eq!(port.held_packets(), 1);
        assert_eq!(port.queued_copies(), 3);
        let data = port.slab().get(key);
        assert_eq!(data.fanout_counter, 3);
        // each destination queue got exactly one cell pointing at the key
        for o in [0usize, 2, 3] {
            let hol = port.voqs().hol(PortId::new(o)).unwrap();
            assert_eq!(hol.data, key);
            assert_eq!(hol.time_stamp, Slot(5));
        }
        assert!(port.voqs().queue(PortId(1)).is_empty());
        port.check_invariants();
    }

    #[test]
    fn multiple_packets_queue_in_arrival_order() {
        let mut port = InputPort::new(4);
        port.admit(&packet(1, 1, &[0, 1]));
        port.admit(&packet(2, 3, &[1]));
        port.admit(&packet(3, 4, &[1, 2]));
        assert_eq!(port.held_packets(), 3);
        assert_eq!(port.queued_copies(), 5);
        assert_eq!(stamps(&port, 1), vec![1, 3, 4]);
        port.check_invariants();
    }

    #[test]
    fn paper_figure_2_example() {
        // Fig. 2: input port 0 holds packets arrived at slots 1, 3, 4, 7:
        //   slot 1: fanout 3 → outputs {0,1,2}
        //   slot 3: outputs {2,3}
        //   slot 4: outputs {0,3}   (from the figure's queues)
        //   slot 7: unicast → output 1
        let mut port = InputPort::new(4);
        port.admit(&packet(1, 1, &[0, 1, 2]));
        port.admit(&packet(2, 3, &[2, 3]));
        port.admit(&packet(3, 4, &[0, 3]));
        port.admit(&packet(4, 7, &[1]));
        assert_eq!(port.held_packets(), 4);
        assert_eq!(stamps(&port, 0), vec![1, 4]);
        assert_eq!(stamps(&port, 1), vec![1, 7]);
        assert_eq!(stamps(&port, 2), vec![1, 3]);
        assert_eq!(stamps(&port, 3), vec![3, 4]);
        port.check_invariants();
    }

    #[test]
    fn serve_emits_departures_and_completes_on_the_last_copy() {
        let mut port = InputPort::new(4);
        port.admit(&packet(1, 1, &[0, 1, 2]));
        let mut departures = Vec::new();
        port.serve(
            0,
            &[2usize, 0].into_iter().collect(),
            PortId(0),
            &mut departures,
        );
        let got: Vec<_> = departures
            .iter()
            .map(|d| (d.output.index(), d.last_copy))
            .collect();
        assert_eq!(got, vec![(0, false), (2, false)]);
        port.check_invariants();
        departures.clear();
        port.serve(
            0,
            &PortSet::singleton(PortId(1)),
            PortId(0),
            &mut departures,
        );
        assert!(departures[0].last_copy);
        assert!(port.is_empty());
        port.check_invariants();
    }

    #[test]
    fn requeue_rebuilds_a_destroyed_cell_at_its_stamp() {
        let mut port = InputPort::new(4);
        port.admit(&packet(1, 1, &[0]));
        port.admit(&packet(2, 3, &[0, 1]));
        let mut departures = Vec::new();
        port.serve(
            0,
            &PortSet::singleton(PortId(0)),
            PortId(0),
            &mut departures,
        );
        assert!(departures[0].last_copy);
        port.requeue(PacketId(1), Slot(1), PortId(0));
        assert_eq!(stamps(&port, 0), vec![1, 3]);
        // A live sibling gets its counter back instead.
        port.serve(
            1,
            &PortSet::singleton(PortId(1)),
            PortId(0),
            &mut departures,
        );
        port.requeue(PacketId(2), Slot(3), PortId(1));
        assert_eq!(stamps(&port, 1), vec![3]);
        assert_eq!(port.held_packets(), 2);
        port.check_invariants();
    }

    #[test]
    fn empty_port_invariants() {
        let port = InputPort::new(8);
        assert!(port.is_empty());
        assert_eq!(port.held_packets(), 0);
        assert_eq!(port.queued_copies(), 0);
        port.check_invariants();
    }

    #[test]
    fn bounded_admit_with_room_matches_unbounded() {
        let cfg = BufferConfig::bounded(4, 16);
        let mut port = InputPort::new(4);
        let out = admit_bounded(&mut port, &packet(1, 5, &[0, 2, 3]), &cfg);
        assert!(out.shed.is_empty());
        assert!(out.evicted.is_empty());
        let data = port.slab().get(out.key.unwrap());
        assert_eq!(data.fanout_counter, 3);
        assert_eq!(port.queued_copies(), 3);
        port.check_invariants();
    }

    #[test]
    fn drop_tail_refuses_copies_at_the_voq_cap() {
        let cfg = BufferConfig::bounded(2, 0);
        let mut port = InputPort::new(4);
        admit_bounded(&mut port, &packet(1, 0, &[1]), &cfg);
        admit_bounded(&mut port, &packet(2, 1, &[1]), &cfg);
        // VOQ 1 is full: the copy to 1 sheds, the copy to 2 still admits.
        let out = admit_bounded(&mut port, &packet(3, 2, &[1, 2]), &cfg);
        assert_eq!(out.shed, vec![PortId(1)]);
        assert!(out.evicted.is_empty());
        assert_eq!(port.slab().get(out.key.unwrap()).fanout_counter, 1);
        assert_eq!(port.queued_copies(), 3);
        port.check_invariants();
    }

    #[test]
    fn drop_tail_refuses_everything_at_the_aggregate_cap() {
        let cfg = BufferConfig::bounded(0, 2);
        let mut port = InputPort::new(4);
        admit_bounded(&mut port, &packet(1, 0, &[0, 1]), &cfg);
        let out = admit_bounded(&mut port, &packet(2, 1, &[2, 3]), &cfg);
        assert_eq!(out.key, None, "fully shed packet must consume no buffer");
        assert_eq!(out.shed, vec![PortId(2), PortId(3)]);
        assert_eq!(port.held_packets(), 1);
        assert_eq!(port.queued_copies(), 2);
        port.check_invariants();
    }

    #[test]
    fn pushout_evicts_the_tail_of_the_longest_queue() {
        let cfg = BufferConfig {
            voq_cap: None,
            input_cap: Some(3),
            policy: AdmissionPolicy::Pushout,
        };
        let mut port = InputPort::new(4);
        admit_bounded(&mut port, &packet(1, 0, &[1]), &cfg);
        admit_bounded(&mut port, &packet(2, 1, &[1]), &cfg);
        admit_bounded(&mut port, &packet(3, 2, &[1]), &cfg);
        // Aggregate full; queue 1 holds 3 cells. An arrival for the empty
        // queue 2 pushes out queue 1's tail (packet 3, the youngest stamp).
        let out = admit_bounded(&mut port, &packet(4, 3, &[2]), &cfg);
        assert!(out.shed.is_empty());
        assert_eq!(
            out.evicted,
            vec![EvictedCopy {
                packet: PacketId(3),
                arrival: Slot(2),
                output: PortId(1),
            }]
        );
        assert_eq!(port.queued_copies(), 3);
        // Queue 1's FIFO head is untouched: stamps still nondecreasing.
        assert_eq!(stamps(&port, 1), vec![0, 1]);
        port.check_invariants();
    }

    #[test]
    fn pushout_falls_back_to_drop_tail_against_its_own_queue() {
        let cfg = BufferConfig {
            voq_cap: None,
            input_cap: Some(2),
            policy: AdmissionPolicy::Pushout,
        };
        let mut port = InputPort::new(4);
        admit_bounded(&mut port, &packet(1, 0, &[1]), &cfg);
        admit_bounded(&mut port, &packet(2, 1, &[1]), &cfg);
        // The arriving copy's own queue IS the longest: no strictly longer
        // victim exists, so the arrival is refused instead of thrashing.
        let out = admit_bounded(&mut port, &packet(3, 2, &[1]), &cfg);
        assert_eq!(out.shed, vec![PortId(1)]);
        assert!(out.evicted.is_empty());
        assert_eq!(port.queued_copies(), 2);
        port.check_invariants();
    }

    #[test]
    fn fair_shed_drops_copies_for_the_longest_queues_first() {
        let cfg = BufferConfig {
            voq_cap: None,
            input_cap: Some(4),
            policy: AdmissionPolicy::FairShed,
        };
        let mut port = InputPort::new(4);
        admit_bounded(&mut port, &packet(1, 0, &[0]), &cfg);
        admit_bounded(&mut port, &packet(2, 1, &[0]), &cfg);
        admit_bounded(&mut port, &packet(3, 2, &[1]), &cfg);
        // One free slot, fanout-2 arrival {0, 3}: queue 3 (empty, shortest)
        // wins it; the copy for queue 0 (longest) is shed.
        let out = admit_bounded(&mut port, &packet(4, 3, &[0, 3]), &cfg);
        assert_eq!(out.shed, vec![PortId(0)]);
        assert_eq!(port.voqs().queue(PortId(3)).len(), 1);
        assert_eq!(port.slab().get(out.key.unwrap()).fanout_counter, 1);
        port.check_invariants();
    }

    #[test]
    fn admission_scratch_is_reused_without_growth() {
        let cfg = BufferConfig::bounded(1, 0);
        let mut port = InputPort::new(4);
        let caps = |p: &InputPort| {
            (
                p.admission.shed.capacity(),
                p.admission.evicted.capacity(),
                p.admit_order.capacity(),
            )
        };
        let before = caps(&port);
        for t in 0..20 {
            port.admit_bounded(&packet(t, t, &[0, 1, 2, 3]), &cfg);
        }
        assert_eq!(
            port.admission.shed.len(),
            4,
            "later arrivals find every VOQ full"
        );
        assert_eq!(caps(&port), before);
    }
}
