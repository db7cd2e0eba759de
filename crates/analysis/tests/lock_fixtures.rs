//! End-to-end QA1xx checks: each seeded fixture tree under
//! `tests/fixtures/` violates exactly one lock-discipline rule, the real
//! binary exits non-zero on it, and the actual workspace stays clean —
//! the QA1xx family is never baselined.

use std::path::{Path, PathBuf};
use std::process::Command;

use qasom_analysis::lint::{scan_workspace, violations, Baseline, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Rules the fixture tree violates, via the library API with an empty
/// baseline.
fn violated_rules(root: &Path) -> Vec<Rule> {
    let findings = scan_workspace(root).expect("fixture tree scans");
    let mut rules: Vec<Rule> = violations(&findings, &Baseline::new())
        .into_iter()
        .map(|v| v.rule)
        .collect();
    rules.dedup();
    rules
}

/// Exit status of the real `qasom-lint` binary over `root`.
fn lint_exit(root: &Path) -> i32 {
    let status = Command::new(env!("CARGO_BIN_EXE_qasom-lint"))
        .arg("--root")
        .arg(root)
        .status()
        .expect("qasom-lint binary runs");
    status.code().expect("qasom-lint always exits")
}

#[test]
fn writeread_fixture_fails_only_qa102() {
    let root = fixture("writeread");
    assert_eq!(violated_rules(&root), vec![Rule::WriteUnderRead]);
    assert_eq!(lint_exit(&root), 1);
}

#[test]
fn guardsend_fixture_fails_only_qa103() {
    let root = fixture("guardsend");
    assert_eq!(violated_rules(&root), vec![Rule::GuardAcrossSend]);
    assert_eq!(lint_exit(&root), 1);
}

#[test]
fn rawlock_fixture_fails_only_qa104() {
    let root = fixture("rawlock");
    assert_eq!(violated_rules(&root), vec![Rule::RawLockInDaemon]);
    assert_eq!(lint_exit(&root), 1);
}

#[test]
fn qa1xx_rules_are_never_baselined() {
    // `--write-baseline` must not absorb lock-discipline findings: the
    // re-check against a freshly written baseline still fails.
    let root = fixture("writeread");
    let tmp = std::env::temp_dir().join("qasom-writeread-baseline.txt");
    let status = Command::new(env!("CARGO_BIN_EXE_qasom-lint"))
        .arg("--root")
        .arg(&root)
        .arg("--baseline")
        .arg(&tmp)
        .arg("--write-baseline")
        .status()
        .expect("qasom-lint binary runs");
    assert_eq!(status.code(), Some(0), "baseline write succeeds");
    let status = Command::new(env!("CARGO_BIN_EXE_qasom-lint"))
        .arg("--root")
        .arg(&root)
        .arg("--baseline")
        .arg(&tmp)
        .status()
        .expect("qasom-lint binary runs");
    let _ = std::fs::remove_file(&tmp);
    assert_eq!(status.code(), Some(1), "QA1xx never hides in a baseline");
}

#[test]
fn real_workspace_is_free_of_qa1xx_findings() {
    let findings = scan_workspace(&workspace_root()).expect("workspace scans");
    let lock_findings: Vec<_> = findings
        .iter()
        .filter(|f| {
            matches!(
                f.rule,
                Rule::WriteUnderRead | Rule::GuardAcrossSend | Rule::RawLockInDaemon
            )
        })
        .collect();
    assert!(
        lock_findings.is_empty(),
        "QA1xx findings in the real workspace: {lock_findings:?}"
    );
}
