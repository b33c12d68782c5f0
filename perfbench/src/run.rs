//! One repetition: set up, run, check.

use std::path::Path;
use std::time::Instant;

use crate::report::{layer_metrics, Metric};
use crate::tracer::TraceHandle;
use crate::workload::{ArrivalStream, Outputs, Workload};

/// Raw spans kept per traced repetition (about 2.5 MiB).
const SPAN_LOG_CAPACITY: usize = 1 << 16;

/// What one checked repetition measured.
pub struct Rep {
    /// Host seconds from nothing to a switch stack ready for slot 0.
    pub setup_s: f64,
    /// Host seconds for the run itself.
    pub run_s: f64,
    /// The checked simulated outputs.
    pub outputs: Outputs,
    /// Per-layer metrics and the recorder, for a traced repetition.
    pub traced: Option<(Vec<Metric>, TraceHandle)>,
}

/// Run one repetition of `w` at `seed` and check its outputs. `trace`
/// selects the traced run; pass a handle to configure the recorder
/// (tests add a busy-wait to one layer), or `None` for the timed run.
pub fn rep(
    w: &Workload,
    seed: u64,
    work_dir: &Path,
    arrivals: &ArrivalStream,
    trace: Option<TraceHandle>,
) -> Result<Rep, String> {
    let t0 = Instant::now();
    let mut setup = w.setup(seed, work_dir, trace.as_ref())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    match trace {
        None => {
            let result = w.run(&mut setup)?;
            let run_s = t1.elapsed().as_secs_f64();
            Ok(Rep {
                setup_s,
                run_s,
                outputs: w.check(&result, &setup, arrivals)?,
                traced: None,
            })
        }
        Some(trace) => {
            let (result, counts) = w.run_traced(&mut setup, &trace)?;
            let run_s = t1.elapsed().as_secs_f64();
            let outputs = w.check(&result, &setup, arrivals)?;
            let metrics = trace.with(|t| layer_metrics(t, &counts, &outputs, w.slots));
            Ok(Rep {
                setup_s,
                run_s,
                outputs,
                traced: Some((metrics, trace)),
            })
        }
    }
}

/// A recorder sized for one traced repetition of `w`.
pub fn new_trace(w: &Workload) -> TraceHandle {
    TraceHandle::new(SPAN_LOG_CAPACITY, w.slots as usize)
}
