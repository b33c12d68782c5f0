//! Metric computation and the result line.

use std::fmt::Write as _;

use crate::traced::Counts;
use crate::tracer::{Layer, Op, Tracer};
use crate::workload::Outputs;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q` quantile of `sorted` by the nearest-rank rule.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Every per-layer metric of one traced repetition of `slots` slots. A
/// layer the workload does not run reports 0.
pub fn layer_metrics(t: &Tracer, c: &Counts, out: &Outputs, slots: u64) -> Vec<Metric> {
    let per_slot = |x: f64| ratio(x, slots as f64);
    let incl = |layer: Layer| t.layer_total(layer).incl_ns as f64;
    let self_ns = |layer: Layer| t.layer_total(layer).self_ns as f64;
    // Allocations are counted over the second half of the run.
    let steady_slots = (slots - slots / 2) as f64;
    let allocs = |layer: Layer| ratio(t.layer_total(layer).self_allocs as f64, steady_slots);

    let core_run = t.total(Layer::Core, Op::RunSlot).incl_ns as f64;
    let core_admit = t.total(Layer::Core, Op::Admit);
    let phase = |name: &str| t.sub_phase_ns(name) as f64;
    let named = ["voq_scan", "request", "grant", "commit"]
        .iter()
        .map(|n| phase(n))
        .sum::<f64>();
    let runs_core = t.total(Layer::Core, Op::RunSlot).calls > 0;
    let runs_islip = t.total(Layer::Islip, Op::RunSlot).calls > 0;
    let rounds = per_slot(c.rounds as f64);

    let mut slot_ns = t.slot_ns().to_vec();
    slot_ns.sort_unstable();

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("traffic.ns_per_slot", per_slot(incl(Layer::Traffic)), "ns"),
        m(
            "traffic.arrivals_per_slot",
            per_slot(c.packets as f64),
            "count",
        ),
        m(
            "core.admit.ns_per_packet",
            ratio(core_admit.incl_ns as f64, core_admit.calls as f64),
            "ns",
        ),
        m(
            "core.admit.drop_ratio",
            ratio(out.dropped as f64, c.offered_copies as f64),
            "ratio",
        ),
        m("core.run_slot.ns_per_slot", per_slot(core_run), "ns"),
        m(
            "core.voq_scan.ns_per_slot",
            per_slot(phase("voq_scan")),
            "ns",
        ),
        m("core.request.ns_per_slot", per_slot(phase("request")), "ns"),
        m("core.grant.ns_per_slot", per_slot(phase("grant")), "ns"),
        m("core.commit.ns_per_slot", per_slot(phase("commit")), "ns"),
        m(
            "core.unattributed.ns_per_slot",
            per_slot(core_run - named),
            "ns",
        ),
        m(
            "core.rounds_per_slot",
            if runs_core { rounds } else { 0.0 },
            "count",
        ),
        m(
            "core.copies_per_slot",
            if runs_core {
                per_slot(c.departures as f64)
            } else {
                0.0
            },
            "count",
        ),
        m(
            "core.ns_per_copy",
            ratio(core_run, c.departures as f64),
            "ns",
        ),
        m(
            "core.backlog_copies",
            if runs_core {
                ratio(c.backlog_sum as f64, c.backlog_samples as f64)
            } else {
                0.0
            },
            "count",
        ),
        m(
            "islip.run_slot.ns_per_slot",
            per_slot(t.total(Layer::Islip, Op::RunSlot).incl_ns as f64),
            "ns",
        ),
        m(
            "islip.rounds_per_slot",
            if runs_islip { rounds } else { 0.0 },
            "count",
        ),
        m(
            "fabric.checked.self_ns_per_slot",
            per_slot(self_ns(Layer::Checked)),
            "ns",
        ),
        m(
            "fabric.faulty.self_ns_per_slot",
            per_slot(self_ns(Layer::Faulty)),
            "ns",
        ),
        m(
            "fabric.instrumented.self_ns_per_slot",
            per_slot(self_ns(Layer::Instrumented)),
            "ns",
        ),
        m("fabric.events_per_slot", per_slot(c.events as f64), "count"),
        m(
            "obs.telemetry.ns_per_slot",
            per_slot(incl(Layer::Telemetry)),
            "ns",
        ),
        m("stats.ns_per_slot", per_slot(incl(Layer::Stats)), "ns"),
        m("recover.wal.ns_per_slot", per_slot(incl(Layer::Wal)), "ns"),
        m(
            "recover.wal.bytes_per_slot",
            per_slot(c.wal_bytes as f64),
            "bytes",
        ),
        m(
            "recover.checkpoint.ns",
            ratio(incl(Layer::Checkpoint), c.checkpoints as f64),
            "ns",
        ),
        m(
            "recover.checkpoint.bytes",
            ratio(c.checkpoint_bytes as f64, c.checkpoints as f64),
            "bytes",
        ),
        m(
            "overload.ns_per_slot",
            per_slot(incl(Layer::Overload)),
            "ns",
        ),
        m("slot.p50_ns", quantile(&slot_ns, 0.5), "ns"),
        m("slot.p99_ns", quantile(&slot_ns, 0.99), "ns"),
        m("slot.samples", slot_ns.len() as f64, "count"),
        m("core.allocs_per_slot", allocs(Layer::Core), "count"),
        m("islip.allocs_per_slot", allocs(Layer::Islip), "count"),
        m(
            "fabric.allocs_per_slot",
            allocs(Layer::Checked) + allocs(Layer::Faulty) + allocs(Layer::Instrumented),
            "count",
        ),
        m("obs.allocs_per_slot", allocs(Layer::Telemetry), "count"),
        m("recover.wal.allocs_per_slot", allocs(Layer::Wal), "count"),
    ]
}

/// Median of each metric over repetitions that report the same list.
pub fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            value: median(&runs.iter().map(|r| r[i].value).collect::<Vec<_>>()),
            ..m.clone()
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
