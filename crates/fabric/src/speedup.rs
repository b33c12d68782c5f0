//! A fabric running multiple transfer phases per slot (internal speedup).
//!
//! §I of the paper notes that an output-queued switch only achieves full
//! throughput if the fabric and output memories run `N` times faster than
//! the line rate. `SpeedupFabric` models exactly that: a slot consists of
//! `S` sequential phases, each applying one legal [`CrossbarSchedule`]. The
//! OQ-FIFO baseline uses speedup `N` (equivalently, direct placement of
//! arrivals into output queues); the ablation benches sweep intermediate
//! speedups to show the OQ hardware cost the paper argues against.

use fifoms_types::{StateError, StateReader, StateWriter};

use crate::{Crossbar, CrossbarSchedule, FabricStats};

/// An `N×N` crossbar with internal speedup `S`.
#[derive(Clone, Debug)]
pub struct SpeedupFabric {
    inner: Crossbar,
    speedup: usize,
    phase: usize,
    phase_slots: u64,
}

impl SpeedupFabric {
    /// An `n×n` fabric running `speedup` phases per external slot.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `speedup == 0`.
    pub fn new(n: usize, speedup: usize) -> SpeedupFabric {
        assert!(speedup > 0, "speedup must be at least 1");
        SpeedupFabric {
            inner: Crossbar::new(n),
            speedup,
            phase: 0,
            phase_slots: 0,
        }
    }

    /// Fabric size.
    pub fn ports(&self) -> usize {
        self.inner.ports()
    }

    /// Configured speedup `S`.
    pub fn speedup(&self) -> usize {
        self.speedup
    }

    /// The current phase within the external slot (`0..S`).
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Apply one phase's schedule. Returns `true` when this was the last
    /// phase of the external slot.
    ///
    /// # Panics
    ///
    /// Panics if all `S` phases of the current slot were already applied
    /// and [`SpeedupFabric::finish_slot`] was not called.
    pub fn apply_phase(&mut self, schedule: &CrossbarSchedule) -> bool {
        assert!(
            self.phase < self.speedup,
            "all {} phases of this slot already applied",
            self.speedup
        );
        self.inner.apply(schedule);
        self.phase += 1;
        self.phase == self.speedup
    }

    /// Close the external slot (allows applying fewer than `S` phases when
    /// the remaining phases would be idle).
    pub fn finish_slot(&mut self) {
        self.phase = 0;
        self.phase_slots += 1;
    }

    /// External slots completed.
    pub fn slots(&self) -> u64 {
        self.phase_slots
    }

    /// Phase-level fabric statistics (each phase counts as one inner slot).
    pub fn stats(&self) -> FabricStats {
        self.inner.stats()
    }

    /// Serialise the fabric's mutable state (checkpoints are taken at
    /// slot boundaries, so the mid-slot `phase` cursor is captured too for
    /// safety even though it is 0 between `finish_slot` calls).
    pub fn write_state(&self, w: &mut StateWriter) {
        let SpeedupFabric {
            inner,
            // Configuration, rebuilt by the caller.
            speedup: _,
            phase,
            phase_slots,
        } = self;
        w.put_usize(*phase);
        w.put_u64(*phase_slots);
        inner.write_state(w);
    }

    /// Restore state captured by [`SpeedupFabric::write_state`] into a
    /// fabric configured with the same `n` and speedup.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let SpeedupFabric {
            inner,
            speedup: _,
            phase,
            phase_slots,
        } = self;
        *phase = r.get_usize()?;
        *phase_slots = r.get_u64()?;
        inner.read_state(r)
    }

    /// Mean transfers per *external* slot.
    pub fn transfers_per_slot(&self) -> f64 {
        if self.phase_slots == 0 {
            0.0
        } else {
            self.stats().crosspoints_set as f64 / self.phase_slots as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::PortId;

    fn unicast(n: usize, pairs: &[(u16, u16)]) -> CrossbarSchedule {
        let mut b = CrossbarSchedule::builder(n);
        for &(i, o) in pairs {
            b.connect(PortId(i), PortId(o)).unwrap();
        }
        b.build()
    }

    #[test]
    #[should_panic(expected = "speedup must be at least 1")]
    fn zero_speedup_rejected() {
        let _ = SpeedupFabric::new(4, 0);
    }

    #[test]
    fn phases_cycle_within_slot() {
        let mut f = SpeedupFabric::new(4, 2);
        assert_eq!(f.phase(), 0);
        assert!(!f.apply_phase(&unicast(4, &[(0, 1)])));
        assert_eq!(f.phase(), 1);
        assert!(f.apply_phase(&unicast(4, &[(2, 1)])));
        f.finish_slot();
        assert_eq!(f.phase(), 0);
        assert_eq!(f.slots(), 1);
    }

    #[test]
    #[should_panic(expected = "already applied")]
    fn extra_phase_panics() {
        let mut f = SpeedupFabric::new(4, 1);
        f.apply_phase(&CrossbarSchedule::empty(4));
        f.apply_phase(&CrossbarSchedule::empty(4));
    }

    #[test]
    fn speedup_lets_one_output_receive_multiple_cells_per_slot() {
        // With S = 2, output 1 receives from inputs 0 and 2 in one external
        // slot — impossible on a plain crossbar.
        let mut f = SpeedupFabric::new(4, 2);
        f.apply_phase(&unicast(4, &[(0, 1)]));
        f.apply_phase(&unicast(4, &[(2, 1)]));
        f.finish_slot();
        assert_eq!(f.stats().crosspoints_set, 2);
        assert_eq!(f.transfers_per_slot(), 2.0);
    }

    #[test]
    fn early_finish_skips_idle_phases() {
        let mut f = SpeedupFabric::new(4, 8);
        f.apply_phase(&unicast(4, &[(0, 0)]));
        f.finish_slot(); // only 1 of 8 phases used
        assert_eq!(f.slots(), 1);
        assert_eq!(f.stats().slots, 1); // phases applied, not 8
        assert_eq!(f.transfers_per_slot(), 1.0);
    }

    #[test]
    fn empty_fabric_ratios() {
        let f = SpeedupFabric::new(4, 4);
        assert_eq!(f.transfers_per_slot(), 0.0);
        assert_eq!(f.speedup(), 4);
        assert_eq!(f.ports(), 4);
    }
}
