//! The source lint: a lightweight line/token scanner over the workspace
//! enforcing determinism and panic-hygiene invariants.
//!
//! This is deliberately **not** a parser — no `syn`, no new dependencies.
//! Sources are stripped of comments and string literals with a small
//! state machine, `#[cfg(test)]` regions are tracked by brace counting,
//! and rules match fixed tokens on the remaining code. That is crude but
//! exactly as precise as these invariants need:
//!
//! * [`Rule::Wallclock`] (`determinism-wallclock`) — no `Instant::now`,
//!   `SystemTime::now` or `thread::sleep` on simulated paths
//!   (`crates/netsim`, `crates/daemon`,
//!   `crates/selection/src/distributed.rs` and the scenario registry
//!   `crates/bench/src/scenarios.rs`). The simulation clock is
//!   the only clock; the daemon blocks on channels and sockets, never
//!   on timers.
//! * [`Rule::Unordered`] (`determinism-unordered`) — no `HashMap` /
//!   `HashSet` in the same scope: their iteration order is randomised
//!   per process, which silently breaks replayable runs.
//! * [`Rule::PanicUnwrap`] (`panic-unwrap`) — no `.unwrap()` /
//!   `.expect(` in library code outside `#[cfg(test)]`. Existing debt is
//!   carried in a checked-in baseline (`lint-baseline.txt`); only *new*
//!   violations fail.
//! * [`Rule::DaemonWithMut`] (`daemon-with-mut`) — no
//!   `SharedEnvironment::with_mut` in `crates/daemon`: the daemon must
//!   go through the narrow typed mutators (`apply_churn`,
//!   `reload_ontology`, `execute`) so every write-lock acquisition is
//!   accounted and bounded; an arbitrary closure over the write lock
//!   could starve every serving session.
//!
//! The QA1xx lock-discipline family ([`Rule::WriteUnderRead`],
//! [`Rule::GuardAcrossSend`], [`Rule::RawLockInDaemon`]) is scope-aware:
//! it runs over the [`crate::lexer`] token stream with guard-lifetime
//! tracking — see [`crate::locks`] for the rules and the lock manifest.
//!
//! Any rule can be suppressed with `// lint:allow(<rule-name>)` on the
//! finding's line or on the line immediately above it.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads / real sleeps on simulated paths.
    Wallclock,
    /// Iteration-order-randomised collections on simulated paths.
    Unordered,
    /// `.unwrap()` / `.expect(` in non-test library code.
    PanicUnwrap,
    /// `with_mut` (the arbitrary write-lock closure) in daemon code.
    DaemonWithMut,
    /// QA102: `.write()` while a read guard of the same lock is live.
    WriteUnderRead,
    /// QA103: lock guard held across a channel send / transport write.
    GuardAcrossSend,
    /// QA104: raw `Mutex`/`RwLock` use in `crates/daemon`.
    RawLockInDaemon,
}

impl Rule {
    /// The stable rule name used in reports, baselines and
    /// `lint:allow(...)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Wallclock => "determinism-wallclock",
            Rule::Unordered => "determinism-unordered",
            Rule::PanicUnwrap => "panic-unwrap",
            Rule::DaemonWithMut => "daemon-with-mut",
            Rule::WriteUnderRead => "write-under-read",
            Rule::GuardAcrossSend => "guard-across-send",
            Rule::RawLockInDaemon => "raw-lock-in-daemon",
        }
    }

    /// The QA-code of the rule, for the lock-discipline family.
    pub fn code(self) -> Option<&'static str> {
        match self {
            Rule::WriteUnderRead => Some("QA102"),
            Rule::GuardAcrossSend => Some("QA103"),
            Rule::RawLockInDaemon => Some("QA104"),
            _ => None,
        }
    }

    /// All rules, in reporting order.
    pub fn all() -> [Rule; 7] {
        [
            Rule::Wallclock,
            Rule::Unordered,
            Rule::PanicUnwrap,
            Rule::DaemonWithMut,
            Rule::WriteUnderRead,
            Rule::GuardAcrossSend,
            Rule::RawLockInDaemon,
        ]
    }

    /// Whether historical findings of this rule may be carried in the
    /// baseline file. Determinism rules may not: they fail outright.
    pub fn baselined(self) -> bool {
        matches!(self, Rule::PanicUnwrap)
    }

    fn tokens(self) -> &'static [&'static str] {
        match self {
            Rule::Wallclock => &[
                "Instant::now",
                "SystemTime::now",
                "thread::sleep",
                "Utc::now",
                "Local::now",
            ],
            Rule::Unordered => &["HashMap", "HashSet"],
            // `.unwrap()` / `.expect(` exactly, so `unwrap_or`,
            // `unwrap_or_else` and `expect_err` never match.
            Rule::PanicUnwrap => &[".unwrap()", ".expect("],
            Rule::DaemonWithMut => &["with_mut"],
            // The QA1xx family is scope-aware (crate::locks), not
            // token-matched; it never participates in the line loop.
            Rule::WriteUnderRead | Rule::GuardAcrossSend | Rule::RawLockInDaemon => &[],
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One matched token in one source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that matched.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.excerpt
        )
    }
}

/// Whether `rel` (workspace-relative, `/`-separated) is on a simulated
/// path where the determinism rules apply. The observability crate is
/// in scope: a recorder that read the wall clock would break the
/// byte-identical same-seed `RunReport` guarantee. So is the scenario
/// registry, the one file of the (otherwise wall-clock-timing) bench
/// crate whose output CI compares byte-for-byte against golden files.
pub fn determinism_scope(rel: &str) -> bool {
    rel.starts_with("crates/netsim/src/")
        || rel.starts_with("crates/obs/src/")
        || rel.starts_with("crates/daemon/src/")
        || rel == "crates/selection/src/distributed.rs"
        || rel == "crates/bench/src/scenarios.rs"
}

/// Whether `rel` is daemon code where [`Rule::DaemonWithMut`] applies:
/// everything under `crates/daemon/src/`, transports and binary
/// included.
pub fn daemon_scope(rel: &str) -> bool {
    rel.starts_with("crates/daemon/src/")
}

/// Whether `rel` is library code where [`Rule::PanicUnwrap`] applies:
/// `src/` trees of the workspace packages, excluding binaries.
pub fn panic_scope(rel: &str) -> bool {
    let in_lib = rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
    in_lib && !rel.contains("/bin/")
}

/// Strips comments and string/char literals, returning one code-only
/// string per source line (line structure is preserved so findings can
/// report real line numbers).
fn strip(source: &str) -> Vec<String> {
    #[derive(Clone, Copy)]
    enum Mode {
        Code,
        /// Nested block comments, with depth.
        Block(u32),
        /// Ordinary string literal.
        Str,
        /// Raw string literal with this many `#`s.
        Raw(usize),
    }

    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = String::new();
    let mut mode = Mode::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    // Line comment (incl. doc comments): drop to newline.
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                } else if c == '/' && next == Some('*') {
                    mode = Mode::Block(1);
                    i += 2;
                } else if c == '"' {
                    mode = Mode::Str;
                    i += 1;
                } else if c == 'r' || c == 'b' {
                    // Possible raw/byte string: r"", r#""#, b"", br#""#.
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') && (hashes > 0 || j > i + usize::from(c == 'b')) {
                        mode = Mode::Raw(hashes);
                        i = j + 1;
                    } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        mode = Mode::Str;
                        i += 2;
                    } else {
                        cur.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal or lifetime.
                    if next == Some('\\') {
                        // Escaped char literal: skip to the closing quote.
                        i += 2;
                        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                            i += 1;
                        }
                        i += 1;
                    } else if chars.get(i + 2) == Some(&'\'') {
                        i += 3;
                    } else {
                        // Lifetime: keep going.
                        cur.push(c);
                        i += 1;
                    }
                } else {
                    cur.push(c);
                    i += 1;
                }
            }
            Mode::Block(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    mode = if depth > 1 {
                        Mode::Block(depth - 1)
                    } else {
                        Mode::Code
                    };
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    i += 2;
                } else {
                    if c == '"' {
                        mode = Mode::Code;
                    }
                    i += 1;
                }
            }
            Mode::Raw(hashes) => {
                if c == '"' {
                    let closed = (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                    if closed {
                        mode = Mode::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    if !cur.is_empty() || !source.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Tracks whether successive (stripped) lines fall inside a
/// `#[cfg(test)]`-gated item, by brace counting.
struct TestTracker {
    in_test: bool,
    depth: i64,
    pending: bool,
}

impl TestTracker {
    fn new() -> Self {
        TestTracker {
            in_test: false,
            depth: 0,
            pending: false,
        }
    }

    /// Feeds one stripped line; returns whether it is test-only code.
    fn feed(&mut self, stripped: &str) -> bool {
        if !self.in_test && stripped.contains("#[cfg(test)]") {
            self.pending = true;
        }
        let was = self.in_test || self.pending;
        for c in stripped.chars() {
            if self.in_test {
                match c {
                    '{' => self.depth += 1,
                    '}' => {
                        self.depth -= 1;
                        if self.depth <= 0 {
                            self.in_test = false;
                        }
                    }
                    _ => {}
                }
            } else if self.pending {
                match c {
                    // The gated item opens: the region runs to the
                    // matching close brace.
                    '{' => {
                        self.pending = false;
                        self.in_test = true;
                        self.depth = 1;
                    }
                    // `#[cfg(test)] use ...;` — single-item gate, over.
                    ';' => self.pending = false,
                    _ => {}
                }
            }
        }
        was
    }
}

/// Whether a finding of `rule` on 1-based line `line` is suppressed by
/// a `// lint:allow(<rule>)` comment — on the same line or on the line
/// immediately above.
pub(crate) fn allow_on(raw: &[&str], line: usize, rule: Rule) -> bool {
    let needle = format!("lint:allow({})", rule.name());
    let same = raw
        .get(line.wrapping_sub(1))
        .is_some_and(|l| l.contains(&needle));
    let above = line >= 2 && raw.get(line - 2).is_some_and(|l| l.contains(&needle));
    same || above
}

/// Scans one source file. `rel` is the workspace-relative path and
/// decides which rules are in scope.
pub fn scan_file(rel: &str, source: &str) -> Vec<Finding> {
    let det = determinism_scope(rel);
    let panics = panic_scope(rel);
    let daemon = daemon_scope(rel);
    let locks = crate::locks::locks_scope(rel);
    if !det && !panics && !daemon && !locks {
        return Vec::new();
    }
    let stripped = strip(source);
    let raw: Vec<&str> = source.lines().collect();
    let mut tests = TestTracker::new();
    let mut out = Vec::new();
    for (idx, code) in stripped.iter().enumerate() {
        let raw_line = raw.get(idx).copied().unwrap_or("");
        let in_test = tests.feed(code);
        for rule in Rule::all() {
            let in_scope = match rule {
                Rule::Wallclock | Rule::Unordered => det,
                Rule::PanicUnwrap => panics && !in_test,
                Rule::DaemonWithMut => daemon && !in_test,
                // Scope-aware rules run below, over the token stream.
                Rule::WriteUnderRead | Rule::GuardAcrossSend | Rule::RawLockInDaemon => false,
            };
            if !in_scope || !rule.tokens().iter().any(|t| code.contains(t)) {
                continue;
            }
            if allow_on(&raw, idx + 1, rule) {
                continue;
            }
            let mut excerpt: String = raw_line.trim().chars().take(120).collect();
            if excerpt.is_empty() {
                excerpt = code.trim().chars().take(120).collect();
            }
            out.push(Finding {
                rule,
                file: rel.to_owned(),
                line: idx + 1,
                excerpt,
            });
        }
    }
    if locks {
        out.extend(crate::locks::scan_locks(rel, &stripped, &raw));
    }
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// Recursively collects the workspace `.rs` sources under `root`
/// (the `crates/` and `src/` trees; `target`, `tests` and vendored
/// `shims` are never scanned) and runs every rule over them.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, root, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        out.extend(scan_file(&rel.replace('\\', "/"), &source));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            // `tests/` trees (and the lint fixtures below them) hold
            // intentional violations; `target` is build output.
            if name == "target" || name == "tests" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Allowed historical finding counts: `(rule name, file) -> count`.
pub type Baseline = BTreeMap<(String, String), usize>;

/// Parses a baseline file. Format: one `<rule> <file> <count>` triple
/// per line; `#` starts a comment.
pub fn parse_baseline(text: &str) -> Baseline {
    let mut out = Baseline::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if let Ok(count) = count.parse::<usize>() {
            out.insert((rule.to_owned(), file.to_owned()), count);
        }
    }
    out
}

/// Renders the baseline covering the given findings. Only rules with
/// [`Rule::baselined`] are recorded — determinism findings can never be
/// grandfathered.
pub fn format_baseline(findings: &[Finding]) -> String {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in findings {
        if f.rule.baselined() {
            *counts
                .entry((f.rule.name().to_owned(), f.file.clone()))
                .or_insert(0) += 1;
        }
    }
    let mut out = String::from(
        "# qasom-lint baseline: historical finding counts per file.\n\
         # Regenerate with `cargo run -p qasom-analysis --bin qasom-lint -- --write-baseline`.\n\
         # Only shrink this file; new entries mean new violations.\n",
    );
    for ((rule, file), count) in &counts {
        out.push_str(&format!("{rule} {file} {count}\n"));
    }
    out
}

/// A file whose findings exceed what the baseline allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule violated.
    pub rule: Rule,
    /// Workspace-relative file.
    pub file: String,
    /// Findings in the current tree.
    pub found: usize,
    /// Findings the baseline forgives.
    pub allowed: usize,
    /// The individual findings, for reporting.
    pub findings: Vec<Finding>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} finding(s) of [{}], baseline allows {}:",
            self.file,
            self.found,
            self.rule.name(),
            self.allowed
        )?;
        for finding in &self.findings {
            writeln!(
                f,
                "  {}:{}: {}",
                finding.file, finding.line, finding.excerpt
            )?;
        }
        Ok(())
    }
}

/// Compares findings against the baseline and returns the files that
/// regress. Determinism findings always violate; `panic-unwrap`
/// findings violate only where a file's count exceeds its baseline.
pub fn violations(findings: &[Finding], baseline: &Baseline) -> Vec<Violation> {
    let mut grouped: BTreeMap<(Rule, String), Vec<Finding>> = BTreeMap::new();
    for f in findings {
        grouped
            .entry((f.rule, f.file.clone()))
            .or_default()
            .push(f.clone());
    }
    let mut out = Vec::new();
    for ((rule, file), findings) in grouped {
        let allowed = if rule.baselined() {
            baseline
                .get(&(rule.name().to_owned(), file.clone()))
                .copied()
                .unwrap_or(0)
        } else {
            0
        };
        if findings.len() > allowed {
            out.push(Violation {
                rule,
                file,
                found: findings.len(),
                allowed,
                findings,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let src = "let a = 1; // HashMap here\n/* Instant::now()\nstill comment */ let b = 2;\n";
        let lines = strip(src);
        assert_eq!(lines[0], "let a = 1; ");
        assert_eq!(lines[1], "");
        assert_eq!(lines[2], " let b = 2;");
    }

    #[test]
    fn strips_string_literals_and_keeps_lifetimes() {
        let lines = strip("let s = \"Instant::now()\"; fn f<'a>(x: &'a str) {}\n");
        assert!(!lines[0].contains("Instant::now"));
        assert!(lines[0].contains("<'a>"));
    }

    #[test]
    fn strips_raw_strings_and_char_literals() {
        let lines =
            strip("let s = r#\"HashMap \"inner\" HashSet\"#; let c = '\\n'; let d = 'x';\n");
        assert!(!lines[0].contains("HashMap"));
        assert!(!lines[0].contains("HashSet"));
    }

    #[test]
    fn wallclock_flagged_in_netsim_only() {
        let src = "fn t() { let x = Instant::now(); }\n";
        let hit = scan_file("crates/netsim/src/sim.rs", src);
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].rule, Rule::Wallclock);
        assert_eq!(hit[0].line, 1);
        assert!(scan_file("crates/qos/src/model.rs", src).is_empty());
    }

    #[test]
    fn unordered_flagged_in_distributed_selection() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            scan_file("crates/selection/src/distributed.rs", src).len(),
            1
        );
        assert!(scan_file("crates/selection/src/local.rs", src).is_empty());
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); z.expect(\"msg\"); }\n}\nfn h() { w.expect(\"boom\"); }\n";
        let hits = scan_file("crates/qos/src/model.rs", src);
        let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 6]);
    }

    #[test]
    fn unwrap_or_and_expect_err_do_not_match() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.expect_err(\"e\"); }\n";
        assert!(scan_file("crates/qos/src/model.rs", src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "fn f() { x.unwrap(); } // lint:allow(panic-unwrap)\n";
        assert!(scan_file("crates/qos/src/model.rs", src).is_empty());
    }

    #[test]
    fn allow_comment_on_previous_line_suppresses() {
        let src = "// lint:allow(panic-unwrap)\nfn f() { x.unwrap(); }\n";
        assert!(scan_file("crates/qos/src/model.rs", src).is_empty());
        // ...but only the line immediately above: one line further up
        // does not reach.
        let far = "// lint:allow(panic-unwrap)\n\nfn f() { x.unwrap(); }\n";
        assert_eq!(scan_file("crates/qos/src/model.rs", far).len(), 1);
        // A mismatched rule name on the previous line suppresses
        // nothing.
        let wrong = "// lint:allow(determinism-wallclock)\nfn f() { x.unwrap(); }\n";
        assert_eq!(scan_file("crates/qos/src/model.rs", wrong).len(), 1);
    }

    #[test]
    fn bin_paths_are_out_of_panic_scope() {
        let src = "fn main() { run().unwrap(); }\n";
        assert!(scan_file("crates/analysis/src/bin/qasom-lint.rs", src).is_empty());
    }

    #[test]
    fn with_mut_flagged_in_daemon_only() {
        let src = "fn f(s: &SharedEnvironment) { s.with_mut(|e| e.epoch()); }\n";
        let hits = scan_file("crates/daemon/src/broker.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::DaemonWithMut);
        // Library callers outside the daemon stay free to use it...
        assert!(scan_file("crates/core/src/shared.rs", src).is_empty());
        // ...and daemon tests may exercise it.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn g(s: &S) { s.with_mut(|e| ()); }\n}\n";
        assert!(scan_file("crates/daemon/src/broker.rs", test_src).is_empty());
    }

    #[test]
    fn daemon_sources_are_in_determinism_scope() {
        let src = "fn t() { std::thread::sleep(d); }\n";
        let hits = scan_file("crates/daemon/src/tcp.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::Wallclock);
        // Of the bench crate only the byte-compared scenario registry
        // is in scope; the figure harness times things on purpose.
        let hits = scan_file("crates/bench/src/scenarios.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::Wallclock);
        assert!(scan_file("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn baseline_roundtrip_and_violations() {
        let findings = vec![
            Finding {
                rule: Rule::PanicUnwrap,
                file: "crates/qos/src/model.rs".into(),
                line: 3,
                excerpt: "x.unwrap()".into(),
            },
            Finding {
                rule: Rule::PanicUnwrap,
                file: "crates/qos/src/model.rs".into(),
                line: 9,
                excerpt: "y.unwrap()".into(),
            },
        ];
        let baseline = parse_baseline(&format_baseline(&findings));
        assert!(violations(&findings, &baseline).is_empty());

        // One fewer allowed: the file regresses.
        let tight = parse_baseline("panic-unwrap crates/qos/src/model.rs 1\n");
        let v = violations(&findings, &tight);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].found, 2);
        assert_eq!(v[0].allowed, 1);
    }

    #[test]
    fn determinism_findings_are_never_baselined() {
        let findings = vec![Finding {
            rule: Rule::Wallclock,
            file: "crates/netsim/src/sim.rs".into(),
            line: 1,
            excerpt: "Instant::now()".into(),
        }];
        assert!(format_baseline(&findings)
            .lines()
            .all(|l| l.starts_with('#')));
        let forged = parse_baseline("determinism-wallclock crates/netsim/src/sim.rs 5\n");
        assert_eq!(violations(&findings, &forged).len(), 1);
    }

    #[test]
    fn cfg_test_use_statement_does_not_open_a_region() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn f() { x.unwrap(); }\n";
        let hits = scan_file("crates/qos/src/model.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
    }
}
