//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Repeats the workload for `--seconds` host seconds, checks every
//! repetition's simulated outputs, and prints the metrics. With
//! `--trace 0` every repetition runs through the engine's public entry
//! point and the end-to-end metrics are printed; with `--trace 1`
//! untraced and traced repetitions alternate and the per-layer metrics
//! are printed. The last line of stdout is the JSON result. The exit
//! code is 0 only if every repetition passed its checks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use perfbench::calibrate::{slowdown, Calibrator};
use perfbench::host;
use perfbench::report::{median, median_metrics, result_json, Metric};
use perfbench::run::{new_trace, rep};
use perfbench::tracer::TraceHandle;
use perfbench::workload::{reference, Workload, DEFAULT_SEED, WORKLOADS};

/// Run outputs land here, relative to the checkout root.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Repeat until the time is up, then report. Returns whether every
/// repetition passed.
fn measure(args: &Args, work_dir: &Path) -> Result<bool, String> {
    let w = &args.workload;
    let arrivals = w.arrivals(args.seed)?;
    let reference = (args.seed == DEFAULT_SEED)
        .then(|| reference(w.name).unwrap_or("(nothing recorded for this workload)"));

    let mut first_line: Option<String> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setup_s = Vec::new();
    let mut host_rate = Vec::new();
    let mut slowdowns = Vec::new();
    let mut plain_rate = Vec::new();
    let mut traced_rate = Vec::new();
    let mut layer_runs: Vec<Vec<Metric>> = Vec::new();
    let mut last_trace: Option<TraceHandle> = None;
    let budget = Duration::from_secs_f64(args.seconds);
    let min_reps = if args.trace { 2 } else { 1 };
    let mut longest = Duration::ZERO;
    let start = Instant::now();
    let mut calibrator = Calibrator::new();
    calibrator.sample()?;
    let mut before = calibrator.sample()?;
    for k in 0u64.. {
        // Start no repetition that would end past the budget.
        if k >= min_reps && start.elapsed() + longest > budget {
            break;
        }
        let traced = args.trace && k % 2 == 1;
        attempted += 1;
        let rep_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            rep(
                w,
                args.seed,
                work_dir,
                &arrivals,
                traced.then(|| new_trace(w)),
            )
        }))
        .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(p.as_ref()))))
        .and_then(|r| {
            let expected = first_line.get_or_insert_with(|| r.outputs.line.clone());
            if r.outputs.line != *expected {
                return Err(format!(
                    "outputs differ from the first repetition:\n  first: {expected}\n  this:  {}",
                    r.outputs.line
                ));
            }
            match reference {
                Some(reference) if r.outputs.line != reference => Err(format!(
                    "outputs differ from reference.txt:\n  recorded: {reference}\n  this:     {}",
                    r.outputs.line
                )),
                _ => Ok(r),
            }
        });
        let after = calibrator.sample()?;
        let slow = slowdown(before, after);
        before = after;
        longest = longest.max(rep_start.elapsed());
        let r = match outcome {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                eprintln!("repetition {k} failed: {e}");
                continue;
            }
        };
        // Slots per second at the reference host speed.
        let rate = w.slots as f64 / r.run_s * slow;
        match r.traced {
            Some((metrics, trace)) => {
                traced_rate.push(rate);
                layer_runs.push(metrics);
                last_trace = Some(trace);
            }
            None => {
                host_rate.push(w.slots as f64 / r.run_s);
                slowdowns.push(slow);
                plain_rate.push(rate);
                setup_s.push(r.setup_s);
            }
        }
    }

    println!("outputs: {}", first_line.as_deref().unwrap_or("none"));
    let rates: Vec<String> = host_rate.iter().map(|r| format!("{r:.0}")).collect();
    println!("untraced slots/s per repetition: {}", rates.join(" "));
    let slows: Vec<String> = slowdowns.iter().map(|s| format!("{s:.3}")).collect();
    println!("host slowdown per repetition: {}", slows.join(" "));
    println!(
        "slots_per_s = {} 1/s (host seconds; median slowdown {})",
        median(&host_rate),
        median(&slowdowns)
    );
    let reps = plain_rate.len() + traced_rate.len();
    let slots_per_s = median(&plain_rate);
    let mut metrics = Vec::new();
    if args.trace {
        metrics = median_metrics(&layer_runs);
        let overhead = if slots_per_s > 0.0 {
            1.0 - median(&traced_rate) / slots_per_s
        } else {
            0.0
        };
        metrics.push(Metric {
            name: "tracing_overhead",
            value: overhead,
            unit: "ratio",
        });
        if let Some(trace) = last_trace {
            let path = Path::new(WORK_ROOT).join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
            std::fs::write(&path, trace.with(|t| t.render_log()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("span log: {}", path.display());
            println!(
                "recorder cost per child span: {} ns (charged to the child, not its parent)",
                trace.with(|t| t.child_cost_ns())
            );
        }
    } else {
        metrics.push(Metric {
            name: "slots_per_ref_s",
            value: slots_per_s,
            unit: "1/s",
        });
        metrics.push(Metric {
            name: "setup_s",
            value: median(&setup_s),
            unit: "s",
        });
        metrics.push(Metric {
            name: "peak_rss_mb",
            value: host::peak_rss_mb()?,
            unit: "MiB",
        });
        metrics.push(Metric {
            name: "success_rate",
            value: 1.0 - failed as f64 / attempted as f64,
            unit: "ratio",
        });
    }
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate = {} ({failed} of {attempted} repetitions failed; {reps} timed, {} slots each)",
        failed as f64 / attempted as f64,
        w.slots
    );
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("input: {}", args.workload.describe());
    println!("host: {}", host::fingerprint());
    let work_dir = PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("{}: {e}", work_dir.display()))
        .and_then(|()| measure(&args, &work_dir));
    let _ = std::fs::remove_dir_all(&work_dir);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
