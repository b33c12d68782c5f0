//! The benchmark's own tests: determinism, traced/untraced equality,
//! attribution, the allocation cross-check and lint cleanliness.

use std::path::{Path, PathBuf};

use fifoms_baselines::IslipSwitch;
use fifoms_core::MulticastVoqSwitch;
use fifoms_fabric::Switch;
use fifoms_sim::alloc_audit;
use perfbench::alloc::allocations;
use perfbench::calibrate::{slowdown, Calibrator};
use perfbench::report::{median, Metric};
use perfbench::run::{new_trace, rep, Rep};
use perfbench::tracer::{Layer, Op};
use perfbench::workload::{switch_seed, Workload, WORKLOADS};

/// A scratch directory for one test, inside the build's target dir.
fn work_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("perfbench")
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test work dir");
    dir
}

fn short(name: &str, slots: u64) -> Workload {
    Workload::by_name(name)
        .expect("workload exists")
        .with_slots(slots)
}

fn run(w: &Workload, seed: u64, dir: &Path, traced: bool) -> Rep {
    let arrivals = w.arrivals(seed).expect("traffic builds");
    rep(w, seed, dir, &arrivals, traced.then(|| new_trace(w))).expect("repetition passes")
}

fn metric(ms: &[Metric], name: &str) -> f64 {
    ms.iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} reported"))
        .value
}

fn traced_metrics(r: &Rep) -> &[Metric] {
    &r.traced.as_ref().expect("traced repetition").0
}

#[test]
fn same_seed_repeats_exactly_and_another_seed_differs() {
    let dir = work_dir("determinism");
    for w in WORKLOADS.map(|w| w.with_slots(1_500)) {
        let a = w.arrivals(7).expect("traffic");
        assert_eq!(a, w.arrivals(7).expect("traffic"), "{}", w.name);
        assert_ne!(
            a.digest,
            w.arrivals(8).expect("traffic").digest,
            "{}",
            w.name
        );
        let first = run(&w, 7, &dir, false).outputs;
        assert_eq!(first, run(&w, 7, &dir, false).outputs, "{}", w.name);
        assert_ne!(
            first.line,
            run(&w, 8, &dir, false).outputs.line,
            "{}",
            w.name
        );
    }
}

#[test]
fn traced_run_reproduces_untraced_outputs() {
    let dir = work_dir("traced-equal");
    for w in WORKLOADS.map(|w| w.with_slots(6_000)) {
        let plain = run(&w, 3, &dir, false);
        let traced = run(&w, 3, &dir, true);
        assert_eq!(plain.outputs, traced.outputs, "{}", w.name);
        let m = traced_metrics(&traced);
        assert_eq!(metric(m, "slot.samples"), w.slots as f64, "{}", w.name);
        let parts: f64 = ["voq_scan", "request", "grant", "commit", "unattributed"]
            .iter()
            .map(|p| metric(m, &format!("core.{p}.ns_per_slot")))
            .sum();
        let whole = metric(m, "core.run_slot.ns_per_slot");
        assert!(
            (parts - whole).abs() <= 1e-6 * whole.max(1.0),
            "{}: {parts} vs {whole}",
            w.name
        );
    }
}

#[test]
fn traced_layers_match_the_workload() {
    let dir = work_dir("layers");
    let sched = run(&short("sched-n64", 2_000), 5, &dir, true);
    let m = traced_metrics(&sched);
    assert!(metric(m, "core.run_slot.ns_per_slot") > 0.0);
    assert!(metric(m, "core.rounds_per_slot") > 1.5);
    assert_eq!(metric(m, "islip.run_slot.ns_per_slot"), 0.0);
    assert_eq!(metric(m, "fabric.checked.self_ns_per_slot"), 0.0);

    let islip = run(&short("islip-n64", 2_000), 5, &dir, true);
    let m = traced_metrics(&islip);
    assert_eq!(metric(m, "core.run_slot.ns_per_slot"), 0.0);
    assert!(metric(m, "islip.run_slot.ns_per_slot") > 0.0);

    let stack = run(&short("stack-n16", 12_000), 5, &dir, true);
    let m = traced_metrics(&stack);
    for name in [
        "fabric.checked.self_ns_per_slot",
        "fabric.faulty.self_ns_per_slot",
        "fabric.instrumented.self_ns_per_slot",
        "fabric.events_per_slot",
        "obs.telemetry.ns_per_slot",
        "recover.wal.ns_per_slot",
        "recover.wal.bytes_per_slot",
        "recover.checkpoint.ns",
        "recover.checkpoint.bytes",
    ] {
        assert!(metric(m, name) > 0.0, "stack-n16 reports {name}");
    }

    let overload = run(&short("overload-n32", 4_000), 5, &dir, true);
    let m = traced_metrics(&overload);
    let drop_ratio = metric(m, "core.admit.drop_ratio");
    assert!(
        drop_ratio > 0.05 && drop_ratio < 0.5,
        "drop ratio {drop_ratio}"
    );
    assert!(metric(m, "overload.ns_per_slot") > 0.0);
    assert!(metric(m, "fabric.checked.self_ns_per_slot") > 0.0);
}

#[test]
fn busy_wait_in_one_layer_is_attributed_to_that_layer() {
    const BUSY_NS: u64 = 20_000;
    let dir = work_dir("attribution");
    let w = short("stack-n16", 3_000);
    let arrivals = w.arrivals(11).expect("traffic");
    // Each repetition is bracketed by calibration samples, as in a run.
    let mut calibrator = Calibrator::new();
    let mut timed = |trace| {
        let before = calibrator.sample().expect("calibration");
        let r = rep(&w, 11, &dir, &arrivals, Some(trace)).expect("repetition passes");
        let after = calibrator.sample().expect("calibration");
        (r, slowdown(before, after))
    };
    // Three base/slowed pairs; each figure below is the median over the
    // pairs, so a pair that the host preempted does not decide it.
    type Timed = (Rep, f64);
    let pairs: Vec<(Timed, Timed)> = (0..3)
        .map(|_| {
            let base = timed(new_trace(&w));
            let slowed = timed(new_trace(&w).with_busy_wait(Layer::Faulty, BUSY_NS));
            (base, slowed)
        })
        .collect();
    for ((base, _), (slowed, _)) in &pairs {
        assert_eq!(
            base.outputs, slowed.outputs,
            "a busy-wait changes no output"
        );
    }
    let over_pairs = |f: &dyn Fn(&Timed, &Timed) -> f64| {
        median(&pairs.iter().map(|(b, s)| f(b, s)).collect::<Vec<_>>())
    };
    let delta = |name: &str| {
        over_pairs(&|(b, _), (s, _)| {
            metric(traced_metrics(s), name) - metric(traced_metrics(b), name)
        })
    };
    let added = BUSY_NS as f64;
    let faulty = delta("fabric.faulty.self_ns_per_slot");
    assert!(
        faulty > 0.8 * added && faulty < 1.5 * added,
        "faulty self time grew by {faulty} ns/slot for {added} ns/slot added"
    );
    for other in [
        "fabric.checked.self_ns_per_slot",
        "fabric.instrumented.self_ns_per_slot",
        "core.run_slot.ns_per_slot",
    ] {
        assert!(
            delta(other).abs() < 0.2 * added,
            "{other} moved by {}",
            delta(other)
        );
    }
    // Slowed over base rate, in host seconds and in reference seconds.
    let rate = |(r, slow): &Timed, scaled: bool| {
        w.slots as f64 / r.run_s * if scaled { *slow } else { 1.0 }
    };
    let host = over_pairs(&|b, s| rate(s, false) / rate(b, false));
    assert!(host < 0.8, "slots per host second must fall, ratio {host}");
    let scaled = over_pairs(&|b, s| rate(s, true) / rate(b, true));
    assert!(
        scaled < 0.8,
        "slots per reference second must fall, ratio {scaled}"
    );
}

#[test]
fn allocation_counts_agree_with_alloc_audit() {
    // alloc-audit's protocol: half the run is warm-up, and only the
    // second half is counted. Both instruments watch the same switch on
    // the same arrival stream, so their schedule-phase counts must be
    // equal: 0 at the audit's own size (N=8), and the same small number
    // at N=64, where scheduler scratch vectors still reach new
    // high-water marks late in a run.
    const SLOTS: u64 = 20_000;
    let dir = work_dir("allocs");
    for (name, layer) in [("sched-n64", Layer::Core), ("islip-n64", Layer::Islip)] {
        for n in [8, 64] {
            let w = short(name, SLOTS).with_load(0.6).with_ports(n);
            let traced = run(&w, 9, &dir, true);
            let (_, trace) = traced.traced.expect("traced repetition");
            let ours = trace.with(|t| t.total(layer, Op::RunSlot).self_allocs);
            let mut sw: Box<dyn Switch> = match layer {
                Layer::Core => Box::new(MulticastVoqSwitch::new(n, switch_seed(9))),
                _ => Box::new(IslipSwitch::new(n)),
            };
            let mut tr = w.traffic(9).expect("traffic");
            let audit = alloc_audit(sw.as_mut(), &mut tr, SLOTS / 2, SLOTS / 2, &allocations)
                .expect("audit runs");
            let (phase, theirs) = audit.phase_allocs[2];
            assert_eq!(phase, "schedule");
            assert_eq!(ours, theirs, "{name} at N={n}: traced run vs alloc-audit");
            if n == 8 {
                assert_eq!(ours, 0, "{name} at N=8 allocates in steady state");
            }
        }
    }
}

#[test]
fn lint_finds_nothing_in_benchmark_sources() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = work_dir("lint-root");
    let crates = root.join("crates");
    std::fs::create_dir_all(&crates).expect("create crates dir");
    let repo_crates = manifest.join("../crates");
    for entry in std::fs::read_dir(&repo_crates).expect("read crates") {
        let entry = entry.expect("crate entry");
        std::os::unix::fs::symlink(entry.path(), crates.join(entry.file_name()))
            .expect("link crate");
    }
    std::os::unix::fs::symlink(manifest, crates.join("perfbench")).expect("link benchmark");
    let report = fifoms_lint::engine::lint_root(&root).expect("lint runs");
    let ours: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.path.starts_with("crates/perfbench/"))
        .map(|f| format!("{}:{} [{}] {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(ours.is_empty(), "lint findings:\n{}", ours.join("\n"));
    assert!(
        report.files_scanned > 10,
        "the lint saw the workspace ({} files)",
        report.files_scanned
    );
}
