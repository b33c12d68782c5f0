//! The virtual output queues of one input port, kept as the input's live
//! packets in age order.
//!
//! The paper's §II structure appends one address cell per destination to
//! that destination's FIFO. Every address cell of a packet carries the
//! packet's arrival stamp, and an input admits at most one packet per
//! slot, so each VOQ is ordered by stamp and the head of VOQ `o` is always
//! the *oldest live packet that still has `o` among its destinations*.
//! [`VoqSet`] stores exactly that: the live packets in stamp order, each
//! with the set of destinations not yet served. A VOQ's address cells are
//! implicit — the packets, oldest first, whose `remaining` set contains
//! the VOQ's output — and [`VoqSet::cells`] derives them on demand. Per
//! output only the queue length, the head cell's position in the list and
//! the soft high-water latch are kept: the length and latch are all buffer
//! caps, pushout victims and `VoqHighWater` events need, and the head
//! positions let [`VoqSet::seek`] jump to the oldest packet for a set of
//! outputs without walking past a deep backlog for other outputs.

use std::collections::VecDeque;

use fifoms_types::{PortId, PortSet, Slot, StateError, StateReader, StateWriter};

use crate::buffer::SOFT_HIGH_WATER;
use crate::cell::{AddressCell, DataCellKey};

/// Packets [`VoqSet::seek`] checks one by one before it looks up the
/// queues' heads. Most requests come from the packet at the cursor or
/// just after it; a deep backlog makes the lookup pay off quickly.
const SEEK_WALK: usize = 4;

/// One live packet of an input port: its arrival stamp, its data cell,
/// and the destinations whose address cells are still queued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct QueuedPacket {
    pub(crate) stamp: Slot,
    pub(crate) key: DataCellKey,
    // INVARIANT: its size equals the data cell's fanout counter; empty
    // only for a served packet left in the list as a tombstone, whose
    // data cell is gone.
    pub(crate) remaining: PortSet,
}

/// The bookkeeping of one virtual output queue: its length in address
/// cells, its head cell's position and the one-shot soft high-water latch.
/// The cells themselves are implicit in the owning [`VoqSet`]'s packet
/// list.
#[derive(Clone, Debug, Default)]
pub struct Voq {
    len: usize,
    // INVARIANT: while len > 0, head is the position, counted from the
    // owning set's `base`, of the oldest packet whose `remaining` holds
    // this queue's output.
    head: usize,
    // INVARIANT: high_water_latched is set iff the queue has ever reached
    // SOFT_HIGH_WATER cells; pending_high_water holds the crossing depth
    // until an observer collects it.
    high_water_latched: bool,
    pending_high_water: Option<usize>,
}

impl Voq {
    /// Queue length in address cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Count one address cell of the packet at position `at`, latching a
    /// high-water crossing. An appended cell is the youngest in the queue;
    /// only a re-queued one can be older than the head, and then it is the
    /// head.
    fn push(&mut self, at: usize) {
        if self.len == 0 || at < self.head {
            self.head = at;
        }
        self.len += 1;
        if !self.high_water_latched && self.len >= SOFT_HIGH_WATER {
            debug_assert!(
                self.pending_high_water.is_none(),
                "high-water crossing recorded twice"
            );
            self.high_water_latched = true;
            self.pending_high_water = Some(self.len);
        }
    }

    fn pop(&mut self) {
        debug_assert!(self.len > 0, "VOQ length underflow");
        self.len -= 1;
    }
}

/// The `N` virtual output queues of one input port (paper §II: "there are
/// N virtual output queues to store the address cells for the N output
/// ports"), held as the port's live packets in stamp order.
#[derive(Clone, Debug)]
pub struct VoqSet {
    queues: Vec<Voq>,
    // INVARIANT: packets are in nondecreasing stamp order from front to
    // back, so the first packet whose `remaining` holds `o` is the head of
    // VOQ `o` (Theorem 1's premise); queues[o].len counts the packets
    // whose `remaining` holds `o`, total is the sum of those lengths, and
    // occupied holds exactly the outputs whose length is non-zero. An
    // entry with an empty `remaining` is a served packet left in place (a
    // tombstone): never at either end of the list, and `dead` of them,
    // at most half the list.
    packets: VecDeque<QueuedPacket>,
    // The position of packets[0]. It grows as packets leave the front, so
    // the head positions stay valid; only compaction and a mid-list
    // re-insertion move packets and must fix them.
    base: usize,
    total: usize,
    dead: usize,
    occupied: PortSet,
    // Scratch for `serve`: the served queues still looking for a head.
    rehead: PortSet,
}

impl VoqSet {
    /// `n` empty queues.
    pub fn new(n: usize) -> VoqSet {
        VoqSet {
            queues: vec![Voq::default(); n],
            packets: VecDeque::new(),
            base: 0,
            total: 0,
            dead: 0,
            occupied: PortSet::new(),
            rehead: PortSet::new(),
        }
    }

    /// Number of queues (`N`).
    pub fn outputs(&self) -> usize {
        self.queues.len()
    }

    /// The queue toward `output`.
    pub fn queue(&self, output: PortId) -> &Voq {
        // fifoms-lint: allow(R10) PortId indices are produced by enumerate over the same fixed N this set was built with
        &self.queues[output.index()]
    }

    /// The one-shot soft high-water crossing depth of the queue toward
    /// `output`, if it crossed [`SOFT_HIGH_WATER`] since the last call.
    /// Latched: at most one crossing is ever reported per queue per run.
    pub(crate) fn take_high_water(&mut self, output: PortId) -> Option<usize> {
        self.queues
            .get_mut(output.index())
            .and_then(|q| q.pending_high_water.take())
    }

    /// Total address cells across all queues (undelivered copies at this
    /// input).
    pub fn total_cells(&self) -> usize {
        self.total
    }

    /// Whether every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The outputs whose queue is non-empty: the union of every live
    /// packet's `remaining` set.
    pub(crate) fn occupied(&self) -> &PortSet {
        &self.occupied
    }

    /// The list index of the head packet of the queue toward `output`.
    pub(crate) fn head_index(&self, output: PortId) -> Option<usize> {
        let q = self.queues.get(output.index()).filter(|q| q.len > 0)?;
        q.head.checked_sub(self.base)
    }

    /// The queued packets, oldest first. An entry with no destination
    /// left is a served packet not yet removed; it requests nothing.
    pub(crate) fn packets(&self) -> &VecDeque<QueuedPacket> {
        &self.packets
    }

    /// Pre-size the packet list for `packets` live packets, so admissions
    /// up to that backlog never touch the heap.
    pub fn reserve(&mut self, packets: usize) {
        self.packets
            .reserve(packets.saturating_sub(self.packets.len()));
    }

    /// The head-of-line address cell of the queue toward `output`: the
    /// oldest live packet still destined there.
    pub fn hol(&self, output: PortId) -> Option<AddressCell> {
        self.cells(output).next()
    }

    /// The address cells of the queue toward `output`, head to tail.
    pub fn cells(&self, output: PortId) -> impl Iterator<Item = AddressCell> + '_ {
        self.packets
            .iter()
            .filter(move |p| p.remaining.contains(output))
            .map(|p| AddressCell {
                time_stamp: p.stamp,
                data: p.key,
            })
    }

    /// Append a packet's address cells to the queues of `dests` (Table 1).
    pub(crate) fn append(&mut self, stamp: Slot, key: DataCellKey, dests: &PortSet) {
        debug_assert!(!dests.is_empty(), "a queued packet needs a destination");
        debug_assert!(
            self.packets.back().is_none_or(|last| last.stamp <= stamp),
            "VOQ FIFO order violated: appending older cell"
        );
        let at = self.base + self.packets.len();
        for o in dests {
            self.count_in(o, at);
        }
        self.packets.push_back(QueuedPacket {
            stamp,
            key,
            remaining: dests.clone(),
        });
    }

    /// Remove the tail address cell of the queue toward `output`
    /// (admission-control pushout), returning its data cell.
    ///
    /// The tail is the youngest packet still destined to `output`, so
    /// removing it cannot disturb head-to-tail stamp order — pushout
    /// eviction is stamp-preserving by construction.
    pub(crate) fn evict_tail(&mut self, output: PortId) -> Option<DataCellKey> {
        let idx = self
            .packets
            .iter()
            .rposition(|p| p.remaining.contains(output))?;
        let packet = self.packets.get_mut(idx)?;
        packet.remaining.remove(output);
        let key = packet.key;
        self.count_out(output);
        self.drop_if_served(idx);
        Some(key)
    }

    /// Post-transmission processing for one input: the packet at `idx`
    /// sent copies to `outputs`, so their address cells leave the queues.
    /// Returns the packet's data cell.
    ///
    /// The packet must head every queue in `outputs`, as every packet the
    /// scheduler grants does. Each such queue that still holds cells gets
    /// the first later packet destined to it as its new head; over a
    /// queue's lifetime these searches never pass the same packet twice.
    pub(crate) fn serve(&mut self, idx: usize, outputs: &PortSet) -> Option<DataCellKey> {
        let packet = self.packets.get_mut(idx)?;
        debug_assert!(
            outputs.is_subset_of(&packet.remaining),
            "served outputs must be queued destinations of one packet"
        );
        packet.remaining.difference_with(outputs);
        let key = packet.key;
        for o in outputs {
            debug_assert!(
                self.queues.get(o.index()).is_some_and(|q| q.head == self.base + idx),
                "served a cell behind the head of VOQ {o}"
            );
            self.count_out(o);
        }
        if outputs.intersects(&self.occupied) {
            self.rehead.clear();
            self.rehead.union_with(outputs);
            self.locate_heads(idx + 1);
        }
        self.drop_if_served(idx);
        Some(key)
    }

    /// Point each non-empty queue in `rehead` at its first packet from
    /// list index `from` on, in one pass for all of them.
    fn locate_heads(&mut self, from: usize) {
        let pending = &mut self.rehead;
        pending.intersect_with(&self.occupied);
        for (k, p) in self.packets.range(from..).enumerate() {
            if pending.is_empty() {
                break;
            }
            if !p.remaining.intersects(pending) {
                continue;
            }
            for o in &p.remaining {
                if pending.remove(o) {
                    if let Some(q) = self.queues.get_mut(o.index()) {
                        q.head = self.base + from + k;
                    }
                }
            }
        }
    }

    /// The position of the oldest packet at or after `from` with a
    /// destination in `targets`, given that no packet before `from` has
    /// one. `None` when no queued packet has one.
    ///
    /// The head of VOQ `o` is the oldest packet destined to `o`, so the
    /// answer is the first of the heads of `targets`. A short walk from
    /// `from` usually reaches it first; past [`SEEK_WALK`] packets the
    /// heads are looked up instead, so the cost does not grow with the
    /// number of older packets bound only for other outputs.
    pub(crate) fn seek(&self, from: usize, targets: &PortSet) -> Option<usize> {
        let hit = |p: &QueuedPacket| p.remaining.intersects(targets);
        let walk_end = self.packets.len().min(from + SEEK_WALK);
        if let Some(k) = (from..walk_end).find(|&k| self.packets.get(k).is_some_and(hit)) {
            return Some(k);
        }
        let at = targets
            .iter()
            .filter_map(|o| self.queues.get(o.index()).filter(|q| q.len > 0))
            .map(|q| q.head)
            .min()?
            .checked_sub(self.base)?;
        debug_assert!(
            at >= walk_end && self.packets.get(at).is_some_and(hit),
            "VOQ head positions drifted"
        );
        Some(at)
    }

    /// Re-queue the address cell toward `output` of the packet stamped
    /// `stamp` with data cell `key` (retransmission after an egress fault).
    /// A packet still queued gets the destination back in place; a packet
    /// whose last copy had left is re-inserted at its stamp position.
    ///
    /// The retried cell was the head of its queue when it was scheduled,
    /// so every cell now queued toward `output` is at least as young —
    /// the re-inserted cell becomes the head again, which is what keeps
    /// Theorem 1's starvation argument intact.
    pub(crate) fn requeue(&mut self, stamp: Slot, key: DataCellKey, output: PortId) {
        let live = |p: &QueuedPacket| p.key == key && !p.remaining.is_empty();
        if let Some(k) = self.packets.iter().position(live) {
            if let Some(packet) = self.packets.get_mut(k) {
                packet.remaining.insert(output);
            }
            self.count_in(output, self.base + k);
            return;
        }
        let at = self.packets.partition_point(|p| p.stamp < stamp);
        self.packets.insert(
            at,
            QueuedPacket {
                stamp,
                key,
                remaining: PortSet::singleton(output),
            },
        );
        // Every packet from `at` on moved back one place.
        let at = self.base + at;
        for q in &mut self.queues {
            if q.len > 0 && q.head >= at {
                q.head += 1;
            }
        }
        self.count_in(output, at);
    }

    fn count_in(&mut self, output: PortId, at: usize) {
        if let Some(q) = self.queues.get_mut(output.index()) {
            q.push(at);
            self.total += 1;
            if q.len == 1 {
                self.occupied.insert(output);
            }
        }
    }

    fn count_out(&mut self, output: PortId) {
        if let Some(q) = self.queues.get_mut(output.index()) {
            q.pop();
            self.total -= 1;
            if q.len == 0 {
                self.occupied.remove(output);
            }
        }
    }

    /// Retire the packet at `idx` if its last copy has left. A packet at
    /// either end leaves the list at once; one in the middle stays as a
    /// tombstone, since removing it would shift every packet on one side,
    /// and a deep backlog can hold thousands between two queues' heads.
    /// Tombstones go when they reach an end, or all together once they
    /// make up half the list, which keeps each removal O(1) amortized.
    fn drop_if_served(&mut self, idx: usize) {
        let served = |p: &QueuedPacket| p.remaining.is_empty();
        if !self.packets.get(idx).is_some_and(served) {
            return;
        }
        self.dead += 1;
        while self.packets.front().is_some_and(served) {
            self.packets.pop_front();
            self.base += 1;
            self.dead -= 1;
        }
        while self.packets.back().is_some_and(served) {
            self.packets.pop_back();
            self.dead -= 1;
        }
        if self.dead * 2 > self.packets.len() {
            self.packets.retain(|p| !served(p));
            self.dead = 0;
            self.rehead.clear();
            self.rehead.union_with(&self.occupied);
            self.locate_heads(0);
        }
        if self.packets.is_empty() {
            // Restart the ring at the front of its buffer, so a port that
            // drains often touches only the first pages of a large
            // reservation.
            self.packets.clear();
        }
    }

    /// Serialise every queue in output order: its address cells head to
    /// tail with original stamps and slab keys, then its high-water latch.
    /// The cells are derived from the packet list, so the bytes are those
    /// of an explicit per-output FIFO of address cells.
    pub fn write_state(&self, w: &mut StateWriter) {
        let VoqSet {
            queues,
            // Written as each queue's cells, read through `cells`.
            packets: _,
            // Derived from the cells; `read_state` rebuilds them.
            base: _,
            total: _,
            dead: _,
            occupied: _,
            // Scratch for `serve`.
            rehead: _,
        } = self;
        w.put_usize(queues.len());
        for (o, q) in queues.iter().enumerate() {
            let Voq {
                len,
                // Derived from the cells, like the set's own positions.
                head: _,
                high_water_latched,
                pending_high_water,
            } = q;
            w.put_usize(*len);
            for cell in self.cells(PortId::new(o)) {
                w.put_slot(cell.time_stamp);
                w.put_u32(cell.data.index);
                w.put_u32(cell.data.generation);
            }
            w.put_bool(*high_water_latched);
            w.put_opt_u64(pending_high_water.map(|d| d as u64));
        }
    }

    /// Restore state captured by [`VoqSet::write_state`], rebuilding the
    /// packet list from the per-output cells. The queue count must match
    /// this set's configured `N`.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let VoqSet {
            queues,
            packets,
            base,
            total,
            dead,
            occupied,
            rehead,
        } = self;
        let malformed = |what: String| StateError::Malformed { what };
        let count = r.get_usize()?;
        if count != queues.len() {
            return Err(malformed(format!(
                "VOQ set has {} queues, snapshot has {count}",
                queues.len()
            )));
        }
        let mut cells: Vec<(Slot, DataCellKey, PortId)> = Vec::new();
        queues.clear();
        for o in 0..count {
            let len = r.get_usize()?;
            let mut last = None;
            for _ in 0..len {
                let stamp = r.get_slot()?;
                let key = DataCellKey {
                    index: r.get_u32()?,
                    generation: r.get_u32()?,
                };
                if last.is_some_and(|prev| stamp < prev) {
                    return Err(malformed(format!("VOQ {o} out of stamp order")));
                }
                last = Some(stamp);
                cells.push((stamp, key, PortId::new(o)));
            }
            let high_water_latched = r.get_bool()?;
            let pending_high_water = match r.get_opt_u64()? {
                Some(d) => Some(
                    usize::try_from(d).map_err(|_| malformed(format!("high-water depth {d}")))?,
                ),
                None => None,
            };
            queues.push(Voq {
                len,
                head: 0,
                high_water_latched,
                pending_high_water,
            });
        }
        // Stable by stamp, so equal-stamp cells keep their queue order.
        cells.sort_by_key(|&(stamp, _, _)| stamp);
        packets.clear();
        for (stamp, key, o) in cells {
            let same = packets
                .iter_mut()
                .rev()
                .take_while(|p| p.stamp == stamp)
                .find(|p| p.key == key);
            match same {
                Some(p) => {
                    if !p.remaining.insert(o) {
                        return Err(malformed(format!("VOQ {o} holds a packet twice")));
                    }
                }
                None => packets.push_back(QueuedPacket {
                    stamp,
                    key,
                    remaining: PortSet::singleton(o),
                }),
            }
        }
        *total = queues.iter().map(Voq::len).sum();
        *dead = 0;
        *occupied = queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(o, _)| o)
            .collect();
        *base = 0;
        rehead.clear();
        rehead.union_with(occupied);
        self.locate_heads(0);
        Ok(())
    }

    /// The output whose queue holds the most cells (ties broken toward
    /// the lowest index, for determinism), with that length. `None` when
    /// every queue is empty — pushout has no victim then.
    pub fn longest_queue(&self) -> Option<(PortId, usize)> {
        let mut best: Option<(PortId, usize)> = None;
        for (o, q) in self.queues.iter().enumerate() {
            let len = q.len();
            if len > 0 && best.is_none_or(|(_, b)| len > b) {
                best = Some((PortId::new(o), len));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(idx: u32) -> DataCellKey {
        DataCellKey {
            index: idx,
            generation: 0,
        }
    }

    fn dests(ports: &[usize]) -> PortSet {
        ports.iter().copied().collect()
    }

    fn stamps(set: &VoqSet, o: u16) -> Vec<u64> {
        set.cells(PortId(o)).map(|c| c.time_stamp.index()).collect()
    }

    /// Every queue's recorded head is the first packet destined to it.
    fn assert_heads(set: &VoqSet) {
        for o in 0..set.outputs() {
            let o = PortId::new(o);
            let first = set.packets().iter().position(|p| p.remaining.contains(o));
            assert_eq!(set.head_index(o), first, "head of VOQ {o}");
        }
    }

    #[test]
    fn queues_are_implicit_in_stamp_order() {
        let mut set = VoqSet::new(4);
        assert_eq!(set.outputs(), 4);
        assert!(set.is_empty());
        set.append(Slot(1), key(0), &dests(&[0, 2]));
        set.append(Slot(3), key(1), &dests(&[2]));
        set.append(Slot(4), key(2), &dests(&[0, 2, 3]));
        assert_eq!(stamps(&set, 0), vec![1, 4]);
        assert_eq!(stamps(&set, 2), vec![1, 3, 4]);
        assert!(stamps(&set, 1).is_empty());
        assert_eq!(set.queue(PortId(2)).len(), 3);
        assert_eq!(set.total_cells(), 6);
        assert_eq!(set.hol(PortId(3)).map(|c| c.data), Some(key(2)));
        assert_eq!(*set.occupied(), dests(&[0, 2, 3]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "FIFO order violated")]
    fn out_of_order_append_detected_in_debug() {
        let mut set = VoqSet::new(2);
        set.append(Slot(5), key(0), &dests(&[0]));
        set.append(Slot(3), key(1), &dests(&[1]));
    }

    #[test]
    fn serve_removes_cells_and_exhausted_packets() {
        let mut set = VoqSet::new(4);
        set.append(Slot(1), key(0), &dests(&[0, 1]));
        set.append(Slot(2), key(1), &dests(&[1]));
        assert_eq!(set.serve(0, &dests(&[0])), Some(key(0)));
        assert_eq!(set.packets().len(), 2);
        assert_eq!(stamps(&set, 1), vec![1, 2]);
        // The last copy leaves: the packet leaves the list with it.
        assert_eq!(set.serve(0, &dests(&[1])), Some(key(0)));
        assert_eq!(set.packets().len(), 1);
        assert_eq!(stamps(&set, 1), vec![2]);
        assert_eq!(set.total_cells(), 1);
        assert_eq!(*set.occupied(), dests(&[1]));
    }

    #[test]
    fn served_packets_between_heads_are_retired_lazily() {
        let mut set = VoqSet::new(4);
        for (t, o) in [0, 1, 1, 1, 0].into_iter().enumerate() {
            set.append(Slot(t as u64), key(t as u32), &dests(&[o]));
        }
        // Packets 1 and 2 leave from the middle: they stay as tombstones.
        set.serve(1, &dests(&[1]));
        set.serve(2, &dests(&[1]));
        assert_eq!(set.packets().len(), 5);
        assert_eq!(stamps(&set, 1), vec![3]);
        assert_eq!(set.seek(0, &dests(&[1])), Some(3));
        assert_heads(&set);
        // A third makes tombstones the majority: all are swept at once.
        set.serve(3, &dests(&[1]));
        assert_eq!(set.packets().len(), 2);
        assert_eq!(stamps(&set, 0), vec![0, 4]);
        assert_heads(&set);
        // A served packet at the front leaves at once.
        set.append(Slot(5), key(5), &dests(&[1]));
        set.serve(0, &dests(&[0]));
        assert_eq!(set.packets().len(), 2);
        set.serve(0, &dests(&[0]));
        assert_eq!(set.packets().len(), 1);
        assert_eq!(set.total_cells(), 1);
        assert_heads(&set);
    }

    #[test]
    fn sweeping_tombstones_moves_the_heads() {
        let mut set = VoqSet::new(4);
        for (t, o) in [0, 1, 1, 1, 2].into_iter().enumerate() {
            set.append(Slot(t as u64), key(t as u32), &dests(&[o]));
        }
        for idx in 1..=3 {
            set.serve(idx, &dests(&[1]));
        }
        assert_eq!(set.packets().len(), 2);
        assert_heads(&set);
        assert_eq!(set.seek(0, &dests(&[2])), Some(1));
    }

    #[test]
    fn requeue_restores_the_head() {
        let mut set = VoqSet::new(4);
        set.append(Slot(2), key(0), &dests(&[0, 1]));
        set.append(Slot(4), key(1), &dests(&[0]));
        // A live packet gets its destination back in place.
        set.serve(0, &dests(&[0]));
        set.requeue(Slot(2), key(0), PortId(0));
        assert_eq!(stamps(&set, 0), vec![2, 4]);
        // A departed packet is re-inserted at its stamp position.
        set.serve(0, &dests(&[0, 1]));
        assert_eq!(stamps(&set, 0), vec![4]);
        set.requeue(Slot(2), key(7), PortId(0));
        assert_eq!(stamps(&set, 0), vec![2, 4]);
        assert_eq!(set.hol(PortId(0)).map(|c| c.data), Some(key(7)));
        assert_eq!(set.total_cells(), 2);
        assert_heads(&set);
        assert_eq!(*set.occupied(), dests(&[0]));
    }

    #[test]
    fn reinsertion_moves_the_later_heads() {
        let mut set = VoqSet::new(4);
        set.append(Slot(1), key(0), &dests(&[0]));
        set.append(Slot(2), key(1), &dests(&[1]));
        set.append(Slot(3), key(2), &dests(&[0, 2]));
        set.append(Slot(4), key(3), &dests(&[1]));
        // Packet 1 leaves from the middle; its copy then fails and a
        // fresh cell goes back in at its stamp, ahead of the tombstone.
        set.serve(1, &dests(&[1]));
        set.requeue(Slot(2), key(9), PortId(1));
        assert_eq!(stamps(&set, 1), vec![2, 4]);
        assert_heads(&set);
        assert_eq!(set.seek(0, &dests(&[2])), Some(3));
    }

    #[test]
    fn evict_tail_takes_the_youngest_stamp() {
        let mut set = VoqSet::new(4);
        set.append(Slot(1), key(0), &dests(&[1]));
        set.append(Slot(3), key(1), &dests(&[1, 2]));
        set.append(Slot(7), key(2), &dests(&[2]));
        assert_eq!(set.evict_tail(PortId(1)), Some(key(1)));
        // Order is untouched: the head still carries the queue minimum.
        assert_eq!(stamps(&set, 1), vec![1]);
        assert_eq!(stamps(&set, 2), vec![3, 7]);
        assert_eq!(set.evict_tail(PortId(3)), None);
        assert_eq!(set.evict_tail(PortId(1)), Some(key(0)));
        assert_eq!(*set.occupied(), dests(&[2]));
    }

    #[test]
    fn seek_follows_the_heads_past_a_deep_backlog() {
        let mut set = VoqSet::new(4);
        for t in 0..100u32 {
            set.append(Slot(u64::from(t)), key(t), &dests(&[0]));
        }
        set.append(Slot(100), key(100), &dests(&[1, 2]));
        set.append(Slot(101), key(101), &dests(&[2]));
        let only = |o: u16| PortSet::singleton(PortId(o));
        assert_eq!(set.seek(0, &only(0)), Some(0));
        assert_eq!(set.seek(0, &only(1)), Some(100));
        assert_eq!(set.seek(0, &only(3)), None);
        // Serving a head moves it to the next packet still destined there.
        set.serve(100, &dests(&[2]));
        assert_eq!(set.seek(0, &only(2)), Some(101));
        assert_eq!(set.seek(0, &only(1)), Some(100));
        // A re-queued cell heads its queue again; eviction leaves the head.
        set.requeue(Slot(100), key(100), PortId(2));
        assert_eq!(set.seek(0, &only(2)), Some(100));
        assert_eq!(set.evict_tail(PortId(2)), Some(key(101)));
        assert_eq!(set.seek(0, &only(2)), Some(100));
    }

    #[test]
    fn high_water_crossing_is_latched_once() {
        let mut set = VoqSet::new(4);
        for i in 0..SOFT_HIGH_WATER {
            set.append(Slot(i as u64), key(i as u32), &dests(&[2]));
        }
        assert_eq!(set.take_high_water(PortId(2)), Some(SOFT_HIGH_WATER));
        assert_eq!(set.take_high_water(PortId(2)), None);
        // Draining below the mark and refilling does not re-arm the latch:
        // one warning per queue per run.
        set.serve(0, &dests(&[2]));
        set.append(Slot(SOFT_HIGH_WATER as u64), key(0), &dests(&[2]));
        assert_eq!(set.take_high_water(PortId(2)), None);
        assert_eq!(set.longest_queue(), Some((PortId(2), SOFT_HIGH_WATER)));
    }

    #[test]
    fn longest_queue_prefers_the_lowest_index() {
        let mut set = VoqSet::new(4);
        assert_eq!(set.longest_queue(), None);
        set.append(Slot(0), key(0), &dests(&[1, 3]));
        assert_eq!(set.longest_queue(), Some((PortId(1), 1)));
    }

    #[test]
    fn state_round_trip_rebuilds_the_packet_list() {
        let mut set = VoqSet::new(4);
        set.append(Slot(1), key(0), &dests(&[0, 1, 2]));
        set.append(Slot(3), key(1), &dests(&[2, 3]));
        set.append(Slot(4), key(2), &dests(&[0, 3]));
        set.serve(0, &dests(&[1]));
        let mut w = StateWriter::new();
        set.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut twin = VoqSet::new(4);
        twin.read_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(twin.packets(), set.packets());
        assert_eq!(twin.total_cells(), set.total_cells());
        assert_eq!(twin.occupied(), set.occupied());
        let mut again = StateWriter::new();
        twin.write_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }
}
