//! Host-speed calibration.
//!
//! The measuring host is shared, and its speed drifts by a quarter or
//! more on a scale of about a minute. A repetition's median over one run
//! cannot remove drift that slow, so every repetition is bracketed by a
//! fixed reference kernel. The kernel is benchmark code that no change to
//! the repository touches. Its time says how fast the host is at that
//! moment. `slots_per_ref_s` rescales each repetition's wall time to the
//! reference host speed: a slower host slows the kernel and the program
//! alike and leaves the figure where it was, while a slower program
//! slows only the program.

use std::hint::black_box;
use std::time::Instant;

/// Words in the kernel's table: 2 MiB, about the simulator's working set
/// at N=64.
const TABLE_WORDS: usize = 1 << 18;
/// Kernel steps per timed chunk (about 8 ms on the reference host).
const CHUNK_STEPS: u32 = 400_000;
/// Chunks per sample; the sample is their median, so one preempted
/// chunk does not move it.
const CHUNKS: usize = 5;
/// Median chunk time on the reference host, a 2-core Intel Xeon VM, when
/// it was quiet. It only sets the scale of `slots_per_ref_s`.
pub const REFERENCE_CHUNK_S: f64 = 0.008;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference kernel and its table.
pub struct Calibrator {
    table: Vec<u64>,
    checksum: Option<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Allocate the table. The first [`sample`](Self::sample) warms it.
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![0; TABLE_WORDS],
            checksum: None,
        }
    }

    /// One chunk from a fixed start state: random read-modify-writes
    /// over the table with a set-bit walk per step, the mix of the
    /// scheduler's port-set loops over its queues. Returns its checksum.
    fn chunk(&mut self) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut sum = 0u64;
        for t in 0..CHUNK_STEPS {
            let r = xorshift(&mut x);
            let i = (r as usize) & (TABLE_WORDS - 1);
            let Some(&v) = self.table.get(i) else {
                continue;
            };
            let mut ports = v & r & (r >> 17);
            let mut acc = u64::from(t);
            while ports != 0 {
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(ports.trailing_zeros()));
                ports &= ports - 1;
            }
            let j = if acc & 1 == 0 { i } else { i ^ 1 };
            if let Some(w) = self.table.get_mut(j) {
                *w = w.rotate_left(9) ^ acc;
            }
            sum = sum.wrapping_add(acc);
        }
        sum
    }

    fn reset(&mut self) {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for w in &mut self.table {
            *w = xorshift(&mut x);
        }
    }

    /// Host seconds one chunk of the kernel takes now: the median of
    /// [`CHUNKS`] chunks, each from the same start state. Fails if a
    /// chunk's checksum differs from the first one ever computed.
    pub fn sample(&mut self) -> Result<f64, String> {
        let mut times = [0.0f64; CHUNKS];
        for time in &mut times {
            self.reset();
            let start = Instant::now();
            let sum = black_box(self.chunk());
            *time = start.elapsed().as_secs_f64();
            let expected = *self.checksum.get_or_insert(sum);
            if sum != expected {
                return Err(format!(
                    "calibration kernel checksum {sum:016x}, expected {expected:016x}"
                ));
            }
        }
        times.sort_by(f64::total_cmp);
        Ok(times[CHUNKS / 2])
    }
}

/// How much slower the host ran than the reference host, from the
/// kernel samples taken just before and just after a repetition.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REFERENCE_CHUNK_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_takes_time() {
        let mut c = Calibrator::new();
        let first = c.sample().expect("first sample");
        let second = c.sample().expect("same checksum again");
        assert!(first > 0.0 && second > 0.0);
        assert_eq!(Calibrator::new().chunk_after_reset(), c.chunk_after_reset());
    }

    impl Calibrator {
        fn chunk_after_reset(&mut self) -> u64 {
            self.reset();
            self.chunk()
        }
    }

    #[test]
    fn slowdown_is_one_at_reference_speed() {
        assert_eq!(slowdown(REFERENCE_CHUNK_S, REFERENCE_CHUNK_S), 1.0);
        assert_eq!(slowdown(REFERENCE_CHUNK_S, 3.0 * REFERENCE_CHUNK_S), 2.0);
    }
}
