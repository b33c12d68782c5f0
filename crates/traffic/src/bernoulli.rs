//! Bernoulli multicast traffic (paper §V-A).

use fifoms_types::{
    check_ports, check_probability, Checkpoint, PortId, PortSet, Slot, StateError, StateReader,
    StateWriter, TypeError,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::TrafficModel;

/// Bernoulli multicast source.
///
/// Each slot, each input receives a packet with probability `p`; the packet
/// is addressed to each of the `N` outputs independently with probability
/// `b`. A draw with no destinations is resampled (the paper's model has no
/// zero-fanout packets), which biases the mean fanout up by the factor
/// `1/(1 - (1-b)^N)` — about 2.9% for the paper's `b = 0.2, N = 16`
/// configuration. [`BernoulliMulticast::effective_load`] reports the
/// paper's nominal `p·b·N`.
///
/// # Examples
///
/// ```
/// use fifoms_traffic::{BernoulliMulticast, TrafficModel};
///
/// let mut t = BernoulliMulticast::new(16, 0.25, 0.2, 42).unwrap();
/// assert_eq!(t.ports(), 16);
/// assert!((t.effective_load().unwrap() - 0.8).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct BernoulliMulticast {
    n: usize,
    p: f64,
    b: f64,
    rng: SmallRng,
}

impl BernoulliMulticast {
    /// Create a source for an `n×n` switch with arrival probability `p` and
    /// per-output destination probability `b`.
    pub fn new(n: usize, p: f64, b: f64, seed: u64) -> Result<BernoulliMulticast, TypeError> {
        check_ports(n)?;
        check_probability("p", p)?;
        check_probability("b", b)?;
        if b == 0.0 && p > 0.0 {
            return Err(TypeError::NonPositive { name: "b", got: 0.0 });
        }
        Ok(BernoulliMulticast {
            n,
            p,
            b,
            rng: SmallRng::seed_from_u64(seed),
        })
    }

    /// The arrival probability `p` with which the paper's nominal effective
    /// load `p·b·N` equals `load`.
    ///
    /// This is the sweep axis of Figs. 4 and 5: `p = load / (b·N)`.
    pub fn p_for_load(load: f64, n: usize, b: f64) -> f64 {
        load / (b * n as f64)
    }

    fn draw_dests(&mut self) -> PortSet {
        loop {
            let mut s = PortSet::new();
            for out in 0..self.n {
                if self.rng.gen_bool(self.b) {
                    s.insert(PortId::new(out));
                }
            }
            if !s.is_empty() {
                return s;
            }
        }
    }
}

impl TrafficModel for BernoulliMulticast {
    fn ports(&self) -> usize {
        self.n
    }

    fn next_slot(&mut self, _now: Slot, arrivals: &mut Vec<Option<PortSet>>) {
        arrivals.clear();
        for _ in 0..self.n {
            if self.p > 0.0 && self.rng.gen_bool(self.p) {
                let dests = self.draw_dests();
                arrivals.push(Some(dests));
            } else {
                arrivals.push(None);
            }
        }
    }

    fn effective_load(&self) -> Option<f64> {
        Some(self.p * self.b * self.n as f64)
    }

    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("p", self.p), ("b", self.b)]
    }

    fn name(&self) -> String {
        format!("bernoulli(p={:.4},b={:.2})", self.p, self.b)
    }

    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        Ok(Checkpoint::snapshot_state(self))
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        Checkpoint::restore_state(self, blob)
    }
}

impl Checkpoint for BernoulliMulticast {
    fn state_kind(&self) -> &'static str {
        "bernoulli-traffic"
    }

    fn write_state(&self, w: &mut StateWriter) {
        // `n`, `p` and `b` are configuration, rebuilt by the caller.
        let BernoulliMulticast {
            n: _,
            p: _,
            b: _,
            rng,
        } = self;
        for word in rng.state() {
            w.put_u64(word);
        }
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let BernoulliMulticast {
            n: _,
            p: _,
            b: _,
            rng,
        } = self;
        *rng = SmallRng::from_state([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::empirical_rates;

    #[test]
    fn parameter_validation() {
        assert!(BernoulliMulticast::new(0, 0.5, 0.2, 0).is_err());
        assert!(BernoulliMulticast::new(16, 1.5, 0.2, 0).is_err());
        assert!(BernoulliMulticast::new(16, 0.5, -0.1, 0).is_err());
        assert!(BernoulliMulticast::new(16, 0.5, 0.0, 0).is_err()); // p>0 needs b>0
        assert!(BernoulliMulticast::new(16, 0.0, 0.0, 0).is_ok()); // silent source ok
        assert!(BernoulliMulticast::new(16, 0.5, 0.2, 0).is_ok());
    }

    #[test]
    fn zero_p_is_silent() {
        let mut t = BernoulliMulticast::new(8, 0.0, 0.5, 1).unwrap();
        let (rate, _, load) = empirical_rates(&mut t, 100);
        assert_eq!(rate, 0.0);
        assert_eq!(load, 0.0);
    }

    #[test]
    fn p_for_load_inverts_effective_load() {
        let p = BernoulliMulticast::p_for_load(0.8, 16, 0.2);
        let t = BernoulliMulticast::new(16, p, 0.2, 0).unwrap();
        assert!((t.effective_load().unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empirical_rate_matches_p() {
        let mut t = BernoulliMulticast::new(16, 0.25, 0.2, 7).unwrap();
        let (rate, fanout, load) = empirical_rates(&mut t, 20_000);
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
        // truncated mean fanout = bN / (1-(1-b)^N) ≈ 3.292 for b=.2,N=16
        let expect_fanout = 0.2 * 16.0 / (1.0 - 0.8f64.powi(16));
        assert!((fanout - expect_fanout).abs() < 0.05, "fanout {fanout}");
        assert!((load - rate * fanout).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut t = BernoulliMulticast::new(8, 0.5, 0.3, seed).unwrap();
            let mut v = Vec::new();
            let mut all = Vec::new();
            for s in 0..50 {
                t.next_slot(Slot(s), &mut v);
                all.push(v.clone());
            }
            all
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn destinations_never_empty_even_tiny_b() {
        let mut t = BernoulliMulticast::new(16, 1.0, 0.01, 3).unwrap();
        let mut v = Vec::new();
        for s in 0..200 {
            t.next_slot(Slot(s), &mut v);
            for d in v.iter().flatten() {
                assert!(!d.is_empty());
                assert!(d.iter().all(|p| p.index() < 16));
            }
        }
    }

    #[test]
    fn checkpoint_round_trip_resumes_the_arrival_stream() {
        let mut original = BernoulliMulticast::new(8, 0.5, 0.3, 42).unwrap();
        let mut v = Vec::new();
        for s in 0..40 {
            original.next_slot(Slot(s), &mut v);
        }
        let blob = original.save_state().expect("bernoulli is checkpointable");
        // Twin built with the same parameters but a different seed: restore
        // must overwrite the rng so the streams coincide from here on.
        let mut twin = BernoulliMulticast::new(8, 0.5, 0.3, 7).unwrap();
        twin.load_state(&blob).expect("restore");
        let mut w = Vec::new();
        for s in 40..120 {
            original.next_slot(Slot(s), &mut v);
            twin.next_slot(Slot(s), &mut w);
            assert_eq!(v, w, "streams diverged at slot {s}");
        }
        assert_eq!(original.save_state().unwrap(), twin.save_state().unwrap());
    }

    #[test]
    fn name_reports_parameters() {
        let t = BernoulliMulticast::new(16, 0.25, 0.2, 0).unwrap();
        assert_eq!(t.name(), "bernoulli(p=0.2500,b=0.20)");
    }
}
