//! The `lint` command: run the `fifoms-lint` disciplines over the
//! workspace and gate against the checked-in baseline.
//!
//! The gate is a ratchet: findings already in the baseline are
//! grandfathered; anything new fails the run with a one-line error (the
//! detail lines precede it on stdout); baseline entries that no longer
//! match are reported as shrinkage and `--write-baseline` re-tightens
//! the file. With `--json` the `fifoms-lint-v1` report is written and —
//! when the workspace carries `schemas/lint.schema.json` — validated
//! against it before writing, the same self-check `check-bench` applies
//! to the BENCH_* artifacts.

use std::path::PathBuf;

use fifoms_lint::{engine, Gate, Report};
use fifoms_obs::{schema, Json};
use fifoms_sim::report::Table;
use fifoms_types::SimError;

use crate::args::Options;

/// Entry point for `fifoms-repro lint`.
pub fn lint(opts: &Options) -> Result<(), SimError> {
    if let Some(rule) = opts.explain.as_deref() {
        return explain(rule);
    }
    let root = discover_root()?;
    let report = engine::lint_root(&root).map_err(SimError::Usage)?;
    let baseline = match opts.baseline.as_deref() {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| SimError::Usage(format!("{path}: {e}")))?;
            engine::parse_baseline(&text).map_err(|e| SimError::Usage(format!("{path}: {e}")))?
        }
        None => Vec::new(),
    };
    let g = engine::gate(&report, &baseline);

    println!(
        "lint: scanned {} files under {} — {} finding(s): {} baselined, {} new",
        report.files_scanned,
        root.display(),
        report.findings.len(),
        g.baselined,
        g.new.len()
    );
    let mut table = Table::new(vec!["rule", "findings", "new"]);
    for (id, name, _) in fifoms_lint::RULES {
        let total = report.findings.iter().filter(|f| f.rule == *id).count();
        let new = g.new.iter().filter(|f| f.rule == *id).count();
        table.push_row(vec![
            format!("{id} {name}"),
            total.to_string(),
            new.to_string(),
        ]);
    }
    print!("{}", table.render());
    for f in &g.new {
        println!("NEW {}:{}:{} [{}] {}", f.path, f.line, f.col, f.rule, f.message);
    }
    for (rule, path, key, was, now) in &g.stale {
        println!(
            "shrunk: {rule} {path} {key:?} {was} -> {now} finding(s); \
             run with --write-baseline to lock in the progress"
        );
    }

    if let Some(json_path) = opts.json_out.as_deref() {
        let doc = engine::render_json(&report, &g);
        let schema_path = root.join("schemas/lint.schema.json");
        if schema_path.is_file() {
            let schema_text = std::fs::read_to_string(&schema_path)
                .map_err(|e| SimError::Usage(format!("{}: {e}", schema_path.display())))?;
            let schema_doc = Json::parse(&schema_text)
                .map_err(|e| SimError::Usage(format!("{}: {e}", schema_path.display())))?;
            schema::validate(&doc, &schema_doc).map_err(|e| {
                SimError::Usage(format!("lint: emitted report violates its own schema: {e}"))
            })?;
        }
        std::fs::write(json_path, format!("{doc}\n"))
            .map_err(|e| SimError::Usage(format!("{json_path}: {e}")))?;
        println!("lint: wrote {json_path}");
    }

    if opts.stats {
        let ledger = opts
            .ledger
            .as_deref()
            .unwrap_or("results/bench_ledger.jsonl");
        let mut doc = Json::object();
        doc.set("schema", "fifoms-lint-stats-v1");
        doc.set("files_scanned", report.files_scanned);
        doc.set("findings", report.findings.len());
        doc.set("new", g.new.len());
        doc.set("baselined", g.baselined);
        let rows: Vec<Json> = fifoms_lint::RULES
            .iter()
            .map(|(id, _, _)| {
                let mut row = Json::object();
                row.set("rule", *id);
                row.set(
                    "findings",
                    report.findings.iter().filter(|f| f.rule == *id).count(),
                );
                row
            })
            .collect();
        doc.set("rules", Json::Arr(rows));
        crate::obscmd::append_jsonl(ledger, &doc)?;
        println!("lint: appended fifoms-lint-stats-v1 row to {ledger}");
    }

    if opts.write_baseline {
        let path = opts.baseline.as_deref().unwrap_or("lint-baseline.json");
        let counts = engine::key_counts(&report.findings);
        std::fs::write(path, engine::render_baseline(&counts))
            .map_err(|e| SimError::Usage(format!("{path}: {e}")))?;
        println!(
            "lint: wrote {path} ({} entries, {} finding(s) grandfathered)",
            counts.len(),
            report.findings.len()
        );
        return Ok(());
    }
    finish(&report, &g)
}

/// `lint --explain <RULE>`: print one rule's documentation card — what
/// it enforces, why the discipline exists, a violating example and the
/// sanctioned escape hatch.
fn explain(rule: &str) -> Result<(), SimError> {
    let id = rule.to_ascii_uppercase();
    let Some((id, rationale, example, escape)) = fifoms_lint::RULE_DOCS
        .iter()
        .find(|(r, _, _, _)| *r == id)
    else {
        return Err(SimError::Usage(format!(
            "lint: unknown rule {rule:?} (expected one of {})",
            fifoms_lint::RULE_DOCS
                .iter()
                .map(|(r, _, _, _)| *r)
                .collect::<Vec<_>>()
                .join(", ")
        )));
    };
    let name = fifoms_lint::RULES
        .iter()
        .find(|(r, _, _)| r == id)
        .map(|(_, n, _)| *n)
        .unwrap_or("");
    println!("{id} — {name}");
    println!();
    println!("why      {rationale}");
    println!("example  {example}");
    println!("escape   {escape}");
    Ok(())
}

fn finish(_report: &Report, g: &Gate) -> Result<(), SimError> {
    if g.new.is_empty() {
        println!("lint: clean (no findings beyond the baseline)");
        Ok(())
    } else {
        Err(SimError::Usage(format!(
            "lint: {} new finding(s) beyond the baseline — fix them, justify with \
             `// fifoms-lint: allow(Rk) reason`, or accept with --write-baseline",
            g.new.len()
        )))
    }
}

/// Walk up from the current directory to the workspace root (the first
/// ancestor holding both `Cargo.toml` and a `crates/` directory).
fn discover_root() -> Result<PathBuf, SimError> {
    let start = std::env::current_dir()
        .map_err(|e| SimError::Usage(format!("lint: cannot read current directory: {e}")))?;
    let mut dir = start.clone();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(SimError::Usage(format!(
                "lint: no workspace root (Cargo.toml + crates/) at or above {}",
                start.display()
            )));
        }
    }
}
