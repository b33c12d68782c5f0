//! Black-box tests for the `fifoms-repro lint` gate: injected R1/R2
//! violations in a synthetic workspace must fail the run with a single
//! `error:` diagnostic, `--write-baseline` followed by `--baseline` must
//! grandfather them, the `--json` report must satisfy
//! `schemas/lint.schema.json`, and the real repository must stay clean
//! against its committed baseline.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fifoms_obs::{schema, Json};

const LINT_SCHEMA: &str = include_str!("../../../schemas/lint.schema.json");

fn repro_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fifoms-repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn fifoms-repro")
}

/// A throwaway workspace with one R1 violation (hash-ordered iteration
/// in `sim`) and one R2 violation (a retransmission path that mints a
/// fresh stamp in `fabric`).
fn synthetic_workspace(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("fifoms-lint-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/sim/src")).expect("mkdir sim");
    std::fs::create_dir_all(root.join("crates/fabric/src")).expect("mkdir fabric");
    std::fs::create_dir_all(root.join("schemas")).expect("mkdir schemas");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write Cargo.toml");
    std::fs::write(root.join("schemas/lint.schema.json"), LINT_SCHEMA).expect("write schema");
    std::fs::write(
        root.join("crates/sim/src/lib.rs"),
        "fn tally(counts: HashMap<u32, u32>) -> u32 {\n\
         \x20   let mut total = 0;\n\
         \x20   for (_k, v) in counts.iter() {\n\
         \x20       total += v;\n\
         \x20   }\n\
         \x20   total\n\
         }\n",
    )
    .expect("write R1 violation");
    std::fs::write(
        root.join("crates/fabric/src/lib.rs"),
        "fn requeue(d: &Departure) -> Packet {\n\
         \x20   Packet::new(d.packet, Slot::now(), d.input, d.dests.clone())\n\
         }\n",
    )
    .expect("write R2 violation");
    root
}

#[test]
fn gate_fails_on_injected_r1_and_r2_violations() {
    let ws = synthetic_workspace("inject");
    let out = repro_in(&ws, &["lint"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert!(!out.status.success(), "gate must fail:\n{stdout}{stderr}");
    assert!(
        !stderr.contains("panicked"),
        "gate panicked instead of erroring:\n{stderr}"
    );
    let lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 1, "one diagnostic expected:\n{stderr}");
    assert!(lines[0].starts_with("error: lint:"), "{}", lines[0]);

    assert!(
        stdout.contains("[R1] iteration over hash-ordered `counts`"),
        "injected hash iteration not reported:\n{stdout}"
    );
    assert!(
        stdout.contains("[R2] fresh timestamp minted outside admission"),
        "injected stamp mint not reported:\n{stdout}"
    );
    assert!(
        stdout.contains("[R2] Packet::new with a non-preserved arrival stamp"),
        "non-preserving Packet::new not reported:\n{stdout}"
    );
}

#[test]
fn write_baseline_grandfathers_then_gate_passes() {
    let ws = synthetic_workspace("baseline");
    let wrote = repro_in(&ws, &["lint", "--write-baseline"]);
    assert!(
        wrote.status.success(),
        "--write-baseline must succeed:\n{}",
        String::from_utf8_lossy(&wrote.stderr)
    );
    assert!(ws.join("lint-baseline.json").is_file());
    assert!(
        !ws.join("lint-state-fingerprints.json").exists(),
        "--write-baseline writes the baseline file only"
    );

    let gated = repro_in(&ws, &["lint", "--baseline", "lint-baseline.json"]);
    let stdout = String::from_utf8_lossy(&gated.stdout);
    assert!(gated.status.success(), "baselined gate must pass:\n{stdout}");
    assert!(stdout.contains("lint: clean"), "{stdout}");

    // Fixing a grandfathered violation is celebrated, never punished.
    std::fs::write(root_file(&ws), "fn quiet() {}\n").expect("fix the R1 file");
    let shrunk = repro_in(&ws, &["lint", "--baseline", "lint-baseline.json"]);
    let stdout = String::from_utf8_lossy(&shrunk.stdout);
    assert!(shrunk.status.success(), "shrinkage must pass:\n{stdout}");
    assert!(stdout.contains("shrunk: R1"), "{stdout}");
}

fn root_file(ws: &Path) -> PathBuf {
    ws.join("crates/sim/src/lib.rs")
}

#[test]
fn json_report_satisfies_the_checked_in_schema() {
    let ws = synthetic_workspace("json");
    // The report is written (and self-validated) even when the gate
    // fails — CI consumes it precisely on failures.
    let out = repro_in(&ws, &["lint", "--json", "lint-report.json"]);
    assert!(!out.status.success());

    let text = std::fs::read_to_string(ws.join("lint-report.json")).expect("report written");
    let doc = Json::parse(&text).expect("report parses");
    let schema_doc = Json::parse(LINT_SCHEMA).expect("schema parses");
    schema::validate(&doc, &schema_doc).expect("report must satisfy schemas/lint.schema.json");

    let Json::Obj(fields) = &doc else {
        panic!("report must be an object")
    };
    let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    assert_eq!(get("schema"), Some(&Json::Str("fifoms-lint-v1".into())));
    match get("new_findings") {
        Some(Json::Num(n)) => assert!(*n >= 2.0, "expected injected findings, got {n}"),
        other => panic!("new_findings missing: {other:?}"),
    }
}

/// The repository itself must stay clean against its committed baseline:
/// this is the same invocation `scripts/ci.sh` gates on.
#[test]
fn real_workspace_is_clean_with_committed_baseline() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = repro_in(&repo, &["lint", "--baseline", "lint-baseline.json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "workspace has new lint findings:\n{stdout}{stderr}"
    );
    assert!(stdout.contains("lint: clean"), "{stdout}");
}
