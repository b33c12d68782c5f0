//! FIFO output queueing — the paper's "ultimate performance benchmark".

use std::collections::VecDeque;

use fifoms_fabric::{Backlog, Switch};
use fifoms_types::{
    Checkpoint, Departure, Packet, PacketId, PortId, Slot, SlotOutcome, StateError, StateReader,
    StateWriter,
};

use crate::common::PacketLedger;

#[derive(Clone, Copy, Debug)]
struct QueuedCopy {
    packet: PacketId,
    arrival: Slot,
    input: PortId,
}

/// An output-queued switch with a FIFO at each output (paper Fig. 1(a)).
///
/// Arrivals are placed *directly* into the destination output queues in
/// their arrival slot — the idealisation of an internal speedup of `N`
/// (§I: the fabric and output memory run `N`× the line rate, which is
/// exactly why OQ switches don't scale, §I/\[12\]). Each output then drains
/// one cell per slot in FIFO order.
///
/// OQ-FIFO delay is the queueing-theoretic floor for any crossbar switch
/// without speedup; the integration suite checks every input-queued
/// scheduler against it.
#[derive(Clone, Debug)]
pub struct OqFifoSwitch {
    queues: Vec<VecDeque<QueuedCopy>>,
    ledger: PacketLedger,
}

impl OqFifoSwitch {
    /// An `n×n` output-queued switch.
    pub fn new(n: usize) -> OqFifoSwitch {
        assert!(n > 0, "switch needs at least one port");
        OqFifoSwitch {
            queues: vec![VecDeque::new(); n],
            ledger: PacketLedger::new(n),
        }
    }
}

impl Switch for OqFifoSwitch {
    fn name(&self) -> String {
        "OQFIFO".to_string()
    }

    fn ports(&self) -> usize {
        self.queues.len()
    }

    fn admit(&mut self, packet: Packet) {
        assert!(
            packet.dests.iter().all(|d| d.index() < self.queues.len()),
            "destination out of range"
        );
        self.ledger
            .admit(packet.id, packet.input.index(), packet.fanout() as u32);
        for dest in &packet.dests {
            self.queues[dest.index()].push_back(QueuedCopy {
                packet: packet.id,
                arrival: packet.arrival,
                input: packet.input,
            });
        }
    }

    fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
        let mut departures = Vec::new();
        for (o, queue) in self.queues.iter_mut().enumerate() {
            if let Some(copy) = queue.pop_front() {
                let last_copy = self.ledger.deliver(copy.packet);
                departures.push(Departure {
                    packet: copy.packet,
                    arrival: copy.arrival,
                    input: copy.input,
                    output: PortId::new(o),
                    last_copy,
                });
            }
        }
        SlotOutcome {
            connections: departures.len(),
            rounds: 0, // not an iterative matcher
            departures,
        }
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        // For the OQ baseline the buffer requirement lives at the outputs.
        out.clear();
        out.extend(self.queues.iter().map(VecDeque::len));
    }

    fn backlog(&self) -> Backlog {
        Backlog {
            packets: self.ledger.packets(),
            copies: self.queues.iter().map(VecDeque::len).sum(),
        }
    }

    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        Ok(Checkpoint::snapshot_state(self))
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        Checkpoint::restore_state(self, blob)
    }
}

impl Checkpoint for OqFifoSwitch {
    fn state_kind(&self) -> &'static str {
        "oq-fifo"
    }

    fn write_state(&self, w: &mut StateWriter) {
        let OqFifoSwitch { queues, ledger } = self;
        w.put_usize(queues.len());
        for queue in queues {
            w.put_usize(queue.len());
            for QueuedCopy {
                packet,
                arrival,
                input,
            } in queue
            {
                w.put_packet_id(*packet);
                w.put_slot(*arrival);
                w.put_port(*input);
            }
        }
        ledger.write_state(w);
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let OqFifoSwitch { queues, ledger } = self;
        let outputs = r.get_usize()?;
        if outputs != queues.len() {
            return Err(StateError::Malformed {
                what: format!(
                    "switch has {} outputs, snapshot has {outputs}",
                    queues.len()
                ),
            });
        }
        for queue in queues.iter_mut() {
            let len = r.get_usize()?;
            queue.clear();
            queue.reserve(len);
            for _ in 0..len {
                queue.push_back(QueuedCopy {
                    packet: r.get_packet_id()?,
                    arrival: r.get_slot()?,
                    input: r.get_port()?,
                });
            }
        }
        ledger.read_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::PortSet;

    fn pkt(id: u64, arrival: u64, input: u16, dests: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            Slot(arrival),
            PortId(input),
            dests.iter().copied().collect::<PortSet>(),
        )
    }

    #[test]
    fn zero_delay_when_uncontended() {
        let mut sw = OqFifoSwitch::new(4);
        sw.admit(pkt(1, 0, 0, &[0, 2]));
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 2);
        assert!(out.departures.iter().all(|d| d.delay(Slot(0)) == 0));
        assert_eq!(out.completed_packets(), 1);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn output_contention_serialises_fifo() {
        let mut sw = OqFifoSwitch::new(4);
        // three packets to output 1 in one slot — possible only with the
        // OQ speedup idealisation
        sw.admit(pkt(1, 0, 0, &[1]));
        sw.admit(pkt(2, 0, 2, &[1]));
        sw.admit(pkt(3, 0, 3, &[1]));
        let ids = |out: &SlotOutcome| -> Vec<u64> {
            out.departures.iter().map(|d| d.packet.raw()).collect()
        };
        assert_eq!(ids(&sw.run_slot(Slot(0))), vec![1]);
        assert_eq!(ids(&sw.run_slot(Slot(1))), vec![2]);
        assert_eq!(ids(&sw.run_slot(Slot(2))), vec![3]);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn queue_sizes_are_output_lengths() {
        let mut sw = OqFifoSwitch::new(4);
        sw.admit(pkt(1, 0, 0, &[1]));
        sw.admit(pkt(2, 0, 2, &[1]));
        sw.admit(pkt(3, 0, 3, &[3]));
        let mut q = Vec::new();
        sw.queue_sizes(&mut q);
        assert_eq!(q, vec![0, 2, 0, 1]);
    }

    #[test]
    fn multicast_copies_complete_independently() {
        let mut sw = OqFifoSwitch::new(4);
        sw.admit(pkt(1, 0, 0, &[0, 1]));
        sw.admit(pkt(2, 0, 1, &[1]));
        // slot 0: output 0 serves pkt1 copy; output 1 serves pkt1 copy
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 2);
        assert_eq!(out.completed_packets(), 1);
        // slot 1: pkt2's copy
        let out = sw.run_slot(Slot(1));
        assert_eq!(out.departures.len(), 1);
        assert!(out.departures[0].last_copy);
        assert_eq!(out.departures[0].delay(Slot(1)), 1);
    }

    #[test]
    fn checkpoint_round_trip_is_bit_identical() {
        let mut original = OqFifoSwitch::new(4);
        let mut id = 0u64;
        let mut admit_wave = |sw: &mut OqFifoSwitch, t: u64| {
            for i in 0..4u16 {
                if !(t + i as u64).is_multiple_of(3) {
                    id += 1;
                    sw.admit(pkt(id, t, i, &[(i as usize + 1) % 4, (i as usize + 2) % 4]));
                }
            }
        };
        for t in 0..30u64 {
            admit_wave(&mut original, t);
            original.run_slot(Slot(t));
        }
        let blob = Checkpoint::snapshot_state(&original);
        let mut twin = OqFifoSwitch::new(4);
        twin.load_state(&blob).expect("restore");
        assert_eq!(Checkpoint::snapshot_state(&twin), blob);
        for t in 30..60u64 {
            let a = original.run_slot(Slot(t));
            let b = twin.run_slot(Slot(t));
            assert_eq!(a.departures, b.departures, "diverged at slot {t}");
        }
        assert_eq!(
            Checkpoint::snapshot_state(&original),
            Checkpoint::snapshot_state(&twin)
        );
    }

    #[test]
    fn checkpoint_restore_rejects_port_mismatch() {
        let small = OqFifoSwitch::new(2);
        let blob = Checkpoint::snapshot_state(&small);
        let mut big = OqFifoSwitch::new(4);
        assert!(matches!(
            big.load_state(&blob),
            Err(fifoms_types::StateError::Malformed { .. })
        ));
    }

    #[test]
    fn conservation() {
        let mut sw = OqFifoSwitch::new(4);
        let mut admitted = 0;
        for t in 0..50u64 {
            for i in 0..4u16 {
                let id = t * 4 + i as u64 + 1;
                sw.admit(pkt(id, t, i, &[(i as usize + 1) % 4, i as usize]));
                admitted += 2;
            }
            sw.run_slot(Slot(t));
        }
        let mut delivered = 0;
        let mut t = 0u64;
        // count deliveries from a fresh pass: drain
        while !sw.backlog().is_empty() {
            delivered += sw.run_slot(Slot(50 + t)).departures.len();
            t += 1;
            assert!(t < 10_000);
        }
        // during the loaded phase 2 copies/slot arrive per port pair and
        // up to 4 depart; exact conservation checked by ledger emptiness
        assert!(sw.backlog().is_empty());
        assert!(delivered > 0);
        let _ = admitted;
    }
}
