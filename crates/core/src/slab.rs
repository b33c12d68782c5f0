//! Per-input-port buffer of data cells with free-list reuse.

use fifoms_types::{PacketId, Slot, StateError, StateReader, StateWriter};

use crate::cell::{DataCell, DataCellKey};

#[derive(Clone, Debug)]
enum SlabEntry {
    Live(DataCell),
    /// Free entry, holding the next free index (free-list).
    Free(Option<u32>),
}

/// The data-cell buffer of one input port.
///
/// The paper's queue-size metric is exactly this buffer's live count: "the
/// number of data cells in the buffer of an input port, in the sense that
/// how many unsent packets an input port needs to hold" (§V).
///
/// Allocation reuses freed entries via an intrusive free list, so a
/// steady-state simulation performs no allocation after ramp-up. Keys are
/// generational: using a key after its cell was destroyed panics.
#[derive(Clone, Debug, Default)]
pub struct DataCellSlab {
    // INVARIANT: entries and generations stay the same length; free_head
    // chains only Free entries; generations[i] bumps exactly when entry i
    // is destroyed, so a stale DataCellKey can never alias a recycled cell.
    entries: Vec<SlabEntry>,
    generations: Vec<u32>,
    free_head: Option<u32>,
    // INVARIANT: live equals the number of Live entries — it is the paper's
    // §V queue-size metric, so drift here corrupts Fig. 6/7 directly.
    live: usize,
}

impl DataCellSlab {
    /// An empty buffer.
    pub fn new() -> DataCellSlab {
        DataCellSlab::default()
    }

    /// Number of live data cells (unsent packets held) — the paper's
    /// queue-size metric for this port.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether no data cell is held.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Capacity currently reserved (live + free entries).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Grow the buffer to at least `total` entries up front, chaining the
    /// new cells into the free list, so subsequent [`alloc`](Self::alloc)
    /// calls reuse them without touching the heap. A no-op when capacity
    /// already suffices; never affects live cells or key validity.
    pub fn reserve(&mut self, total: usize) {
        self.entries.reserve(total.saturating_sub(self.entries.len()));
        self.generations.reserve(total.saturating_sub(self.generations.len()));
        while self.entries.len() < total {
            let idx = self.entries.len() as u32;
            self.entries.push(SlabEntry::Free(self.free_head));
            self.generations.push(0);
            self.free_head = Some(idx);
        }
    }

    /// Create a data cell for a packet with the given fanout.
    ///
    /// # Panics
    ///
    /// Panics if `fanout == 0`.
    pub fn alloc(&mut self, packet: PacketId, arrival: Slot, fanout: u32) -> DataCellKey {
        assert!(fanout > 0, "data cell needs at least one destination");
        let cell = DataCell {
            packet,
            arrival,
            fanout_counter: fanout,
        };
        self.live += 1;
        match self.free_head {
            Some(idx) => {
                let i = idx as usize;
                debug_assert!(
                    i < self.entries.len() && i < self.generations.len(),
                    "free head always points inside the slab"
                );
                let next = match self.entries[i] {
                    SlabEntry::Free(next) => next,
                    // fifoms-lint: allow(R3) INVARIANT: the free list links only Free entries; a Live hit is slab corruption the run must not survive
                    SlabEntry::Live(_) => unreachable!("free list points at live cell"),
                };
                self.free_head = next;
                self.entries[i] = SlabEntry::Live(cell);
                DataCellKey {
                    index: idx,
                    generation: self.generations[i],
                }
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(SlabEntry::Live(cell));
                self.generations.push(0);
                DataCellKey {
                    index: idx,
                    generation: 0,
                }
            }
        }
    }

    fn check_key(&self, key: DataCellKey) -> usize {
        let idx = key.index as usize;
        assert!(
            idx < self.entries.len() && self.generations.get(idx) == Some(&key.generation),
            "stale data cell key {key:?}"
        );
        idx
    }

    /// Read a live data cell.
    ///
    /// # Panics
    ///
    /// Panics on a stale or freed key.
    pub fn get(&self, key: DataCellKey) -> &DataCell {
        let idx = self.check_key(key);
        match &self.entries[idx] {
            SlabEntry::Live(cell) => cell,
            // fifoms-lint: allow(R3) INVARIANT: documented # Panics contract — a freed key is caller corruption, not a recoverable error
            SlabEntry::Free(_) => panic!("data cell {key:?} already destroyed"),
        }
    }

    /// Serve one destination of the cell: decrement its fanout counter;
    /// when the counter reaches zero the cell is destroyed (paper §III-B.4)
    /// and `true` is returned (the departure that triggered this is the
    /// packet's `last_copy`).
    ///
    /// # Panics
    ///
    /// Panics on a stale key or a cell whose counter is already zero.
    pub fn serve_destination(&mut self, key: DataCellKey) -> bool {
        self.serve_destinations(key, 1)
    }

    /// Serve `copies` destinations of the cell at once (one multicast
    /// transmission): the fanout counter drops by `copies`, and the cell
    /// is destroyed and `true` returned when it reaches zero.
    ///
    /// # Panics
    ///
    /// Panics on a stale key or when `copies` exceeds the counter.
    pub fn serve_destinations(&mut self, key: DataCellKey, copies: u32) -> bool {
        let idx = self.check_key(key);
        let done = match &mut self.entries[idx] {
            SlabEntry::Live(cell) => {
                assert!(cell.fanout_counter >= copies, "fanout counter underflow");
                cell.fanout_counter -= copies;
                cell.fanout_counter == 0
            }
            // fifoms-lint: allow(R3) INVARIANT: documented # Panics contract — serving a freed cell would corrupt fanout accounting
            SlabEntry::Free(_) => panic!("data cell {key:?} already destroyed"),
        };
        if done {
            self.entries[idx] = SlabEntry::Free(self.free_head);
            self.generations[idx] = self.generations[idx].wrapping_add(1);
            self.free_head = Some(key.index);
            self.live -= 1;
        }
        done
    }

    /// Undo one `serve_destination` on a still-live cell: increment its
    /// fanout counter. Used by the retransmission path when an egress
    /// fault killed a copy whose departure had already decremented the
    /// counter — the copy goes back to its VOQ, so the counter must count
    /// it again to keep `fanoutCounter == queued address cells`.
    ///
    /// Only valid while the cell is live (the kill was *not* the last
    /// copy). If the serve destroyed the cell, the caller must allocate a
    /// fresh cell instead — the key here would be stale and panic.
    ///
    /// # Panics
    ///
    /// Panics on a stale or freed key.
    pub fn restore_destination(&mut self, key: DataCellKey) {
        let idx = self.check_key(key);
        match &mut self.entries[idx] {
            SlabEntry::Live(cell) => cell.fanout_counter += 1,
            // fifoms-lint: allow(R3) INVARIANT: restore is only valid on a live cell; the caller re-allocates when the serve destroyed it
            SlabEntry::Free(_) => panic!("data cell {key:?} already destroyed"),
        }
    }

    /// Serialise the slab exactly: every entry (live cell or free-list
    /// link), the generation array, the free head and the live count.
    ///
    /// The free-list *chain order* determines which entry the next
    /// `alloc` reuses, so it is state, not an implementation detail — a
    /// restore that rebuilt the chain differently would hand out keys in
    /// a different order and diverge from the uninterrupted run.
    pub fn write_state(&self, w: &mut StateWriter) {
        let DataCellSlab {
            entries,
            generations,
            free_head,
            live,
        } = self;
        w.put_usize(entries.len());
        for entry in entries {
            match entry {
                SlabEntry::Free(next) => {
                    w.put_u8(0);
                    put_link(w, *next);
                }
                SlabEntry::Live(DataCell {
                    packet,
                    arrival,
                    fanout_counter,
                }) => {
                    w.put_u8(1);
                    w.put_packet_id(*packet);
                    w.put_slot(*arrival);
                    w.put_u32(*fanout_counter);
                }
            }
        }
        for generation in generations {
            w.put_u32(*generation);
        }
        put_link(w, *free_head);
        w.put_usize(*live);
    }

    /// Restore state captured by [`DataCellSlab::write_state`].
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let DataCellSlab {
            entries,
            generations,
            free_head,
            live,
        } = self;
        let count = r.get_usize()?;
        entries.clear();
        let mut live_entries = 0usize;
        for _ in 0..count {
            match r.get_u8()? {
                0 => entries.push(SlabEntry::Free(get_link(r, "free-link")?)),
                1 => {
                    entries.push(SlabEntry::Live(DataCell {
                        packet: r.get_packet_id()?,
                        arrival: r.get_slot()?,
                        fanout_counter: r.get_u32()?,
                    }));
                    live_entries += 1;
                }
                b => {
                    return Err(StateError::Malformed {
                        what: format!("slab entry tag {b}"),
                    })
                }
            }
        }
        generations.clear();
        for _ in 0..count {
            generations.push(r.get_u32()?);
        }
        *free_head = get_link(r, "free-head")?;
        let stored_live = r.get_usize()?;
        if stored_live != live_entries {
            return Err(StateError::Malformed {
                what: format!("slab live count {stored_live} != {live_entries} live entries"),
            });
        }
        *live = live_entries;
        Ok(())
    }
}

/// Write a free-list link as a presence byte plus the entry index.
fn put_link(w: &mut StateWriter, link: Option<u32>) {
    match link {
        Some(n) => {
            w.put_u8(1);
            w.put_u32(n);
        }
        None => w.put_u8(0),
    }
}

/// Read a link written by [`put_link`]; `what` names it in errors.
fn get_link(r: &mut StateReader<'_>, what: &str) -> Result<Option<u32>, StateError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_u32()?)),
        b => Err(StateError::Malformed {
            what: format!("{what} tag {b}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_get_round_trip() {
        let mut slab = DataCellSlab::new();
        let k = slab.alloc(PacketId(7), Slot(3), 2);
        assert_eq!(slab.live(), 1);
        let cell = slab.get(k);
        assert_eq!(cell.packet, PacketId(7));
        assert_eq!(cell.arrival, Slot(3));
        assert_eq!(cell.fanout_counter, 2);
    }

    #[test]
    #[should_panic(expected = "at least one destination")]
    fn zero_fanout_rejected() {
        let mut slab = DataCellSlab::new();
        slab.alloc(PacketId(0), Slot(0), 0);
    }

    #[test]
    fn serve_destination_counts_down_and_frees() {
        let mut slab = DataCellSlab::new();
        let k = slab.alloc(PacketId(1), Slot(0), 3);
        assert!(!slab.serve_destination(k));
        assert!(!slab.serve_destination(k));
        assert_eq!(slab.get(k).fanout_counter, 1);
        assert!(slab.serve_destination(k)); // last copy
        assert_eq!(slab.live(), 0);
        assert!(slab.is_empty());
    }

    #[test]
    fn serve_destinations_counts_a_multicast_once() {
        let mut slab = DataCellSlab::new();
        let k = slab.alloc(PacketId(1), Slot(0), 5);
        assert!(!slab.serve_destinations(k, 3));
        assert_eq!(slab.get(k).fanout_counter, 2);
        assert!(slab.serve_destinations(k, 2));
        assert!(slab.is_empty());
    }

    #[test]
    fn restore_destination_undoes_a_serve() {
        let mut slab = DataCellSlab::new();
        let k = slab.alloc(PacketId(1), Slot(0), 2);
        assert!(!slab.serve_destination(k));
        assert_eq!(slab.get(k).fanout_counter, 1);
        slab.restore_destination(k);
        assert_eq!(slab.get(k).fanout_counter, 2);
        assert_eq!(slab.live(), 1);
        assert!(!slab.serve_destination(k));
        assert!(slab.serve_destination(k));
        assert!(slab.is_empty());
    }

    #[test]
    #[should_panic(expected = "stale data cell key")]
    fn restore_on_destroyed_cell_detected() {
        let mut slab = DataCellSlab::new();
        let k = slab.alloc(PacketId(1), Slot(0), 1);
        assert!(slab.serve_destination(k)); // cell destroyed
        slab.restore_destination(k); // stale generation
    }

    #[test]
    #[should_panic(expected = "stale data cell key")]
    fn stale_key_detected_after_reuse() {
        let mut slab = DataCellSlab::new();
        let k1 = slab.alloc(PacketId(1), Slot(0), 1);
        slab.serve_destination(k1); // freed
        let _k2 = slab.alloc(PacketId(2), Slot(1), 1); // reuses slot 0
        let _ = slab.get(k1); // generation mismatch
    }

    #[test]
    #[should_panic(expected = "already destroyed")]
    fn freed_key_without_reuse_detected() {
        // After free without reallocation the generation already advanced,
        // so get() panics on the stale generation; construct a key with the
        // *new* generation to exercise the free-entry branch.
        let mut slab = DataCellSlab::new();
        let k = slab.alloc(PacketId(1), Slot(0), 1);
        slab.serve_destination(k);
        let forged = DataCellKey {
            index: k.index,
            generation: k.generation + 1,
        };
        let _ = slab.get(forged);
    }

    #[test]
    fn free_list_reuses_entries() {
        let mut slab = DataCellSlab::new();
        let k1 = slab.alloc(PacketId(1), Slot(0), 1);
        let k2 = slab.alloc(PacketId(2), Slot(0), 1);
        slab.serve_destination(k1);
        slab.serve_destination(k2);
        assert_eq!(slab.capacity(), 2);
        let k3 = slab.alloc(PacketId(3), Slot(1), 1);
        let k4 = slab.alloc(PacketId(4), Slot(1), 1);
        // LIFO free list: most recently freed slot reused first
        assert_eq!(k3.index, k2.index);
        assert_eq!(k4.index, k1.index);
        assert_eq!(slab.capacity(), 2, "no growth when reusing");
        assert_eq!(slab.live(), 2);
    }

    proptest! {
        /// Live count always equals allocations minus completions, and
        /// every key remains valid exactly until its last destination is
        /// served.
        #[test]
        fn prop_live_count_invariant(fanouts in proptest::collection::vec(1u32..8, 1..60)) {
            let mut slab = DataCellSlab::new();
            let mut keys = Vec::new();
            for (i, &f) in fanouts.iter().enumerate() {
                keys.push((slab.alloc(PacketId(i as u64), Slot(0), f), f));
            }
            prop_assert_eq!(slab.live(), fanouts.len());
            let mut completed = 0;
            for &(k, f) in &keys {
                for served in 1..=f {
                    let done = slab.serve_destination(k);
                    prop_assert_eq!(done, served == f);
                }
                completed += 1;
                prop_assert_eq!(slab.live(), fanouts.len() - completed);
            }
            prop_assert!(slab.is_empty());
        }
    }
}
