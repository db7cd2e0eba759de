//! `qasom-lint` — offline workspace lint for determinism and panic
//! hygiene. See `qasom_analysis::lint` for the rule catalogue.
//!
//! ```text
//! cargo run -p qasom-analysis --bin qasom-lint            # check
//! cargo run -p qasom-analysis --bin qasom-lint -- --write-baseline
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use qasom_analysis::lint::{format_baseline, parse_baseline, scan_workspace, violations, Baseline};

struct Options {
    root: PathBuf,
    baseline: Option<PathBuf>,
    write_baseline: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: qasom-lint [--root <workspace-dir>] [--baseline <file>] [--write-baseline]\n\
         \n\
         Scans the workspace sources for determinism-wallclock,\n\
         determinism-unordered, panic-unwrap and daemon-with-mut\n\
         findings, plus the scope-aware QA1xx lock-discipline family\n\
         (write-under-read, guard-across-send, raw-lock-in-daemon),\n\
         comparing panic-unwrap counts against the checked-in\n\
         baseline (default: <root>/lint-baseline.txt).\n\
         All other rules fail outright."
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    // The binary lives in crates/analysis; the workspace root is two up.
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut opts = Options {
        root: default_root,
        baseline: None,
        write_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => opts.root = PathBuf::from(v),
                None => return Err(usage()),
            },
            "--baseline" => match args.next() {
                Some(v) => opts.baseline = Some(PathBuf::from(v)),
                None => return Err(usage()),
            },
            "--write-baseline" => opts.write_baseline = true,
            _ => return Err(usage()),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let root = opts.root.canonicalize().unwrap_or(opts.root);
    let baseline_path = opts
        .baseline
        .unwrap_or_else(|| root.join("lint-baseline.txt"));

    let findings = match scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("qasom-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if opts.write_baseline {
        let rendered = format_baseline(&findings);
        if let Err(e) = fs::write(&baseline_path, &rendered) {
            eprintln!("qasom-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        let entries = rendered.lines().filter(|l| !l.starts_with('#')).count();
        println!(
            "qasom-lint: wrote baseline with {entries} file entr{} to {}",
            if entries == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline: Baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => parse_baseline(&text),
        Err(_) => Baseline::new(),
    };

    let violations = violations(&findings, &baseline);
    if violations.is_empty() {
        println!(
            "qasom-lint: clean ({} finding(s), all within baseline)",
            findings.len()
        );
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprint!("{v}");
    }
    eprintln!(
        "qasom-lint: {} file(s) violate the lint rules (see above); \
         fix them or, for panic-unwrap only, regenerate the baseline \
         with --write-baseline",
        violations.len()
    );
    ExitCode::FAILURE
}
