//! Shared bookkeeping for schedulers that lose packet structure.

use std::collections::HashMap;

use fifoms_types::{PacketId, StateError, StateReader, StateWriter};

/// Tracks, per admitted packet, how many copies remain undelivered.
///
/// Schedulers like iSLIP, PIM and OQ-FIFO scatter a multicast packet's
/// copies into independent queues; the ledger reconstructs packet-level
/// facts the metric layer needs:
///
/// * `last_copy` detection for input-oriented delay;
/// * the "distinct packets held per input" queue-size metric (the paper
///   counts *data cells*, i.e. unsent packets, for FIFOMS and iSLIP
///   alike, so the comparison is apples-to-apples).
#[derive(Clone, Debug, Default)]
pub struct PacketLedger {
    remaining: HashMap<PacketId, u32>,
    held_per_input: Vec<usize>,
    input_of: HashMap<PacketId, usize>,
}

impl PacketLedger {
    /// Ledger for an `n`-input switch.
    pub fn new(n: usize) -> PacketLedger {
        PacketLedger {
            remaining: HashMap::new(),
            held_per_input: vec![0; n],
            input_of: HashMap::new(),
        }
    }

    /// Pre-size the maps for `packets` simultaneously live packets, so
    /// admissions up to that count never touch the heap. A capacity
    /// hint only — the ledger still grows past it.
    pub fn reserve(&mut self, packets: usize) {
        self.remaining.reserve(packets.saturating_sub(self.remaining.len()));
        self.input_of.reserve(packets.saturating_sub(self.input_of.len()));
    }

    /// Record an admitted packet with `fanout` copies at `input`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate packet ids or zero fanout.
    pub fn admit(&mut self, packet: PacketId, input: usize, fanout: u32) {
        assert!(fanout > 0, "zero fanout");
        let prev = self.remaining.insert(packet, fanout);
        assert!(prev.is_none(), "duplicate packet {packet}");
        self.input_of.insert(packet, input);
        self.held_per_input[input] += 1;
    }

    /// Record one delivered copy; returns `true` if this was the packet's
    /// last copy (the packet is then forgotten).
    ///
    /// # Panics
    ///
    /// Panics if the packet is unknown (already completed or never
    /// admitted).
    pub fn deliver(&mut self, packet: PacketId) -> bool {
        let rem = self
            .remaining
            .get_mut(&packet)
            .unwrap_or_else(|| panic!("delivery for unknown packet {packet}"));
        *rem -= 1;
        if *rem == 0 {
            self.remaining.remove(&packet);
            let input = self.input_of.remove(&packet).expect("ledger input");
            self.held_per_input[input] -= 1;
            true
        } else {
            false
        }
    }

    /// Distinct packets with undelivered copies at `input`.
    pub fn held_at(&self, input: usize) -> usize {
        self.held_per_input[input]
    }

    /// Distinct packets with undelivered copies anywhere.
    pub fn packets(&self) -> usize {
        self.remaining.len()
    }

    /// Total undelivered copies.
    pub fn copies(&self) -> usize {
        self.remaining.values().map(|&r| r as usize).sum()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Serialise the ledger (checkpointing). HashMap iteration order is
    /// nondeterministic, so entries are written sorted by packet id —
    /// snapshots of equal states must be byte-equal.
    pub fn write_state(&self, w: &mut StateWriter) {
        let PacketLedger {
            remaining,
            held_per_input,
            input_of,
        } = self;
        let mut entries: Vec<(&PacketId, &u32)> = remaining.iter().collect();
        entries.sort_unstable_by_key(|(id, _)| **id);
        w.put_usize(entries.len());
        for (id, rem) in entries {
            w.put_packet_id(*id);
            w.put_u32(*rem);
        }
        w.put_usize(held_per_input.len());
        for held in held_per_input {
            w.put_usize(*held);
        }
        let mut inputs: Vec<(&PacketId, &usize)> = input_of.iter().collect();
        inputs.sort_unstable_by_key(|(id, _)| **id);
        w.put_usize(inputs.len());
        for (id, input) in inputs {
            w.put_packet_id(*id);
            w.put_usize(*input);
        }
    }

    /// Restore state captured by [`PacketLedger::write_state`] into a
    /// ledger configured for the same number of inputs.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let PacketLedger {
            remaining,
            held_per_input,
            input_of,
        } = self;
        let count = r.get_usize()?;
        remaining.clear();
        remaining.reserve(count);
        for _ in 0..count {
            let id = r.get_packet_id()?;
            remaining.insert(id, r.get_u32()?);
        }
        let inputs_len = r.get_usize()?;
        if inputs_len != held_per_input.len() {
            return Err(StateError::Malformed {
                what: format!(
                    "ledger has {} inputs, snapshot has {inputs_len}",
                    held_per_input.len()
                ),
            });
        }
        for held in held_per_input.iter_mut() {
            *held = r.get_usize()?;
        }
        let count = r.get_usize()?;
        input_of.clear();
        input_of.reserve(count);
        for _ in 0..count {
            let id = r.get_packet_id()?;
            input_of.insert(id, r.get_usize()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_deliver_cycle() {
        let mut l = PacketLedger::new(4);
        l.admit(PacketId(1), 2, 3);
        l.admit(PacketId(2), 2, 1);
        assert_eq!(l.held_at(2), 2);
        assert_eq!(l.packets(), 2);
        assert_eq!(l.copies(), 4);
        assert!(!l.deliver(PacketId(1)));
        assert!(!l.deliver(PacketId(1)));
        assert!(l.deliver(PacketId(1)));
        assert_eq!(l.held_at(2), 1);
        assert!(l.deliver(PacketId(2)));
        assert!(l.is_empty());
        assert_eq!(l.held_at(2), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate packet")]
    fn duplicate_admit_rejected() {
        let mut l = PacketLedger::new(2);
        l.admit(PacketId(1), 0, 1);
        l.admit(PacketId(1), 1, 1);
    }

    #[test]
    #[should_panic(expected = "unknown packet")]
    fn over_delivery_rejected() {
        let mut l = PacketLedger::new(2);
        l.admit(PacketId(1), 0, 1);
        l.deliver(PacketId(1));
        l.deliver(PacketId(1));
    }

    #[test]
    #[should_panic(expected = "zero fanout")]
    fn zero_fanout_rejected() {
        let mut l = PacketLedger::new(2);
        l.admit(PacketId(1), 0, 0);
    }
}
