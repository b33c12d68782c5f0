//! Workspace walking, baseline gating and report assembly.
//!
//! The walker scans the workspace's own source — the root `src/` and
//! every `crates/*/src/` — in sorted order (so the report itself is
//! deterministic), skipping `target/`, `vendor/` (offline stand-ins, not
//! ours to lint), `tests/` and `benches/` (test-only by construction).
//!
//! Gating follows the ratchet model: a checked-in baseline file
//! grandfathers known findings by `(rule, path, key)` with a count;
//! anything beyond the baseline fails the run, anything below it is a
//! celebrated shrink (and `--write-baseline` re-tightens the file).
//! Keys are reformat-stable token snippets, so line drift does not churn
//! the baseline.

use std::fs;
use std::path::{Path, PathBuf};

use fifoms_obs::Json;

use crate::matcher::Matcher;
use crate::rules::{check_file, check_vocabulary, r9_schema_drift, Finding, RULES};

/// The outcome of linting a workspace.
pub struct Report {
    /// Every finding, sorted by `(path, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// A `(rule, path, key) -> count` aggregation of findings.
pub type KeyCounts = Vec<((String, String, String), usize)>;

/// The result of comparing a report against a baseline.
pub struct Gate {
    /// Findings not covered by the baseline — these fail the run.
    pub new: Vec<Finding>,
    /// Findings covered (grandfathered) by the baseline.
    pub baselined: usize,
    /// Baseline entries whose count shrank or vanished: progress.
    pub stale: Vec<(String, String, String, usize, usize)>,
}

/// Lint the workspace rooted at `root`.
pub fn lint_root(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs(&src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<PathBuf> = fs::read_dir(&crates)
            .map_err(|e| format!("{}: {e}", crates.display()))?
            .filter_map(|entry| entry.ok().map(|d| d.path()))
            .collect();
        names.sort();
        for krate in names {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();

    // Read everything once: the per-file rules and the cross-file
    // schema checks run over the same contents.
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        sources.push((rel_of(root, path), text));
    }

    let mut findings = Vec::new();
    for (rel, text) in &sources {
        let m = Matcher::new(text);
        findings.extend(check_file(rel, &m));
    }

    // R4: event vocabulary, when both sides exist.
    let obs_rel = "crates/types/src/obs.rs";
    let schema_path = root.join("schemas/events.schema.json");
    let obs_src = sources
        .iter()
        .find(|(rel, _)| rel == obs_rel)
        .map(|(_, src)| src.clone());
    if let (Some(obs_src), true) = (&obs_src, schema_path.is_file()) {
        let schema_text = fs::read_to_string(&schema_path)
            .map_err(|e| format!("{}: {e}", schema_path.display()))?;
        let schema = Json::parse(&schema_text)
            .map_err(|e| format!("{}: {e}", schema_path.display()))?;
        findings.extend(check_vocabulary(
            obs_rel,
            obs_src,
            "schemas/events.schema.json",
            &schema,
        ));
    }

    // R9: derived schemas vs their emitters, when all parts exist.
    let tele_rel = "crates/obs/src/telemetry.rs";
    let tele_src = sources.iter().find(|(rel, _)| rel == tele_rel);
    let read_schema = |rel: &str| -> Result<Option<Json>, String> {
        let path = root.join(rel);
        if !path.is_file() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let ts_schema = read_schema("schemas/timeseries.schema.json")?;
    let snap_schema = read_schema("schemas/snapshot.schema.json")?;
    if let (Some(obs_src), Some((_, tele_src)), Some(ts)) = (&obs_src, tele_src, &ts_schema) {
        let obs_sources: Vec<(String, String)> = sources
            .iter()
            .filter(|(rel, _)| rel.starts_with("crates/obs/"))
            .cloned()
            .collect();
        let mut derived: Vec<(&str, &Json)> = vec![("schemas/timeseries.schema.json", ts)];
        if let Some(snap) = &snap_schema {
            derived.push(("schemas/snapshot.schema.json", snap));
        }
        findings.extend(r9_schema_drift(
            obs_src,
            (tele_rel, tele_src),
            ("schemas/timeseries.schema.json", ts),
            &derived,
            &obs_sources,
        ));
    }

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
    });
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|d| d.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | "tests" | "benches" | "fixtures") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Aggregate findings into `(rule, path, key) -> count`, sorted.
pub fn key_counts(findings: &[Finding]) -> KeyCounts {
    let mut counts: KeyCounts = Vec::new();
    for f in findings {
        let key = (f.rule.to_string(), f.path.clone(), f.key.clone());
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => counts.push((key, 1)),
        }
    }
    counts.sort();
    counts
}

/// Compare a report against baseline key counts. Within one `(rule,
/// path, key)` bucket the first `allowed` occurrences (in report order)
/// are grandfathered and the rest are new.
pub fn gate(report: &Report, baseline: &KeyCounts) -> Gate {
    let mut used: Vec<((String, String, String), usize)> = Vec::new();
    let mut new = Vec::new();
    let mut baselined = 0usize;
    for f in &report.findings {
        let key = (f.rule.to_string(), f.path.clone(), f.key.clone());
        let allowed = baseline
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, n)| *n);
        let used_so_far = match used.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                used.push((key.clone(), 1));
                1
            }
        };
        if used_so_far <= allowed {
            baselined += 1;
        } else {
            new.push(f.clone());
        }
    }
    let current = key_counts(&report.findings);
    let mut stale = Vec::new();
    for ((rule, path, key), base_n) in baseline {
        let cur_n = current
            .iter()
            .find(|((r, p, k), _)| r == rule && p == path && k == key)
            .map_or(0, |(_, n)| *n);
        if cur_n < *base_n {
            stale.push((rule.clone(), path.clone(), key.clone(), *base_n, cur_n));
        }
    }
    Gate {
        new,
        baselined,
        stale,
    }
}

/// Parse a baseline document (`fifoms-lint-baseline-v1`).
pub fn parse_baseline(text: &str) -> Result<KeyCounts, String> {
    let doc = Json::parse(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some("fifoms-lint-baseline-v1") {
        return Err("baseline: expected schema \"fifoms-lint-baseline-v1\"".into());
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline: missing entries array")?;
    let mut out: KeyCounts = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let field = |name: &str| {
            e.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("baseline: entry {i} missing string {name:?}"))
        };
        let count = e
            .get("count")
            .and_then(Json::as_f64)
            .filter(|n| n.fract() == 0.0 && *n >= 1.0)
            .ok_or(format!("baseline: entry {i} needs a positive integer count"))?;
        out.push(((field("rule")?, field("path")?, field("key")?), count as usize));
    }
    out.sort();
    Ok(out)
}

/// Render key counts as a baseline document: one entry per line, so
/// baseline shrinks show up as clean one-line diffs in review.
pub fn render_baseline(counts: &KeyCounts) -> String {
    let mut out = String::from("{\n  \"schema\": \"fifoms-lint-baseline-v1\",\n  \"entries\": [\n");
    for (i, ((rule, path, key), n)) in counts.iter().enumerate() {
        let comma = if i + 1 == counts.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"key\": {}, \"count\": {n}}}{comma}\n",
            Json::Str(rule.clone()),
            Json::Str(path.clone()),
            Json::Str(key.clone()),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the machine-readable report (`fifoms-lint-v1`), marking each
/// finding as baselined or new per `gate`.
pub fn render_json(report: &Report, g: &Gate) -> Json {
    let mut doc = Json::object();
    doc.set("schema", "fifoms-lint-v1");
    doc.set("files_scanned", report.files_scanned as f64);
    doc.set("total_findings", report.findings.len() as f64);
    doc.set("new_findings", g.new.len() as f64);
    doc.set("baselined_findings", g.baselined as f64);
    doc.set("stale_baseline_entries", g.stale.len() as f64);
    let rules: Vec<Json> = RULES
        .iter()
        .map(|(id, name, discipline)| {
            let mut r = Json::object();
            r.set("id", *id);
            r.set("name", *name);
            r.set("discipline", *discipline);
            r.set(
                "findings",
                report.findings.iter().filter(|f| f.rule == *id).count() as f64,
            );
            r
        })
        .collect();
    doc.set("rules", Json::Arr(rules));
    let findings: Vec<Json> = report
        .findings
        .iter()
        .map(|f| {
            let mut j = Json::object();
            j.set("rule", f.rule);
            j.set("path", f.path.as_str());
            j.set("line", f.line as f64);
            j.set("col", f.col as f64);
            j.set("key", f.key.as_str());
            j.set("message", f.message.as_str());
            j.set("baselined", !g.new.contains(f));
            j
        })
        .collect();
    doc.set("findings", Json::Arr(findings));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, key: &str, line: usize) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line,
            col: 1,
            key: key.into(),
            message: "m".into(),
        }
    }

    #[test]
    fn gate_splits_new_from_baselined_by_count() {
        let report = Report {
            findings: vec![
                finding("R3", "a.rs", "q [ i ]", 1),
                finding("R3", "a.rs", "q [ i ]", 9),
                finding("R1", "b.rs", "m . keys ( )", 3),
            ],
            files_scanned: 2,
        };
        let baseline = key_counts(&[finding("R3", "a.rs", "q [ i ]", 1)]);
        let g = gate(&report, &baseline);
        assert_eq!(g.baselined, 1);
        assert_eq!(g.new.len(), 2);
        assert!(g.stale.is_empty());
    }

    #[test]
    fn gate_reports_shrinkage_as_stale() {
        let report = Report {
            findings: vec![],
            files_scanned: 1,
        };
        let baseline = key_counts(&[finding("R3", "a.rs", "x", 1)]);
        let g = gate(&report, &baseline);
        assert!(g.new.is_empty());
        assert_eq!(g.stale.len(), 1);
        assert_eq!(g.stale[0].3, 1);
        assert_eq!(g.stale[0].4, 0);
    }

    #[test]
    fn baseline_round_trips() {
        let counts = key_counts(&[
            finding("R3", "a.rs", "q [ i ]", 1),
            finding("R3", "a.rs", "q [ i ]", 2),
            finding("R1", "b.rs", "k", 1),
        ]);
        let text = render_baseline(&counts);
        let back = parse_baseline(&text).expect("parses");
        assert_eq!(back, counts);
    }

    #[test]
    fn baseline_rejects_malformed_documents() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"schema\":\"fifoms-lint-baseline-v1\"}").is_err());
        assert!(parse_baseline(
            "{\"schema\":\"fifoms-lint-baseline-v1\",\"entries\":[{\"rule\":\"R1\"}]}"
        )
        .is_err());
        assert!(parse_baseline(
            "{\"schema\":\"fifoms-lint-baseline-v1\",\"entries\":[{\"rule\":\"R1\",\"path\":\"a\",\"key\":\"k\",\"count\":0}]}"
        )
        .is_err());
    }
}
