//! QA1xx lock-discipline rules: a scope-aware abstract interpreter over
//! the [`crate::lexer`] token stream.
//!
//! The workspace's concurrency story (PR 5/PR 6) rests on a small set of
//! locks, one per file. This module declares them as a checked-in
//! manifest ([`MANIFEST`]) and enforces three rules over every file that
//! hosts one of the locks (plus everything under `crates/daemon/src/`):
//!
//! * **QA102 `write-under-read`** — `.write()` on a lock class while a
//!   `.read()` guard of the same class is live in scope self-deadlocks
//!   on `std::sync::RwLock` (the write blocks behind our own read).
//! * **QA103 `guard-across-send`** — holding any lock guard across a
//!   channel send / transport write stalls the receiver behind our
//!   critical section and invites lock-ordered deadlocks with the
//!   consumer thread.
//! * **QA104 `raw-lock-in-daemon`** — `crates/daemon` may not acquire
//!   raw `Mutex`/`RwLock`s (nor declare them): every daemon-side
//!   write-lock acquisition must go through the typed
//!   `SharedEnvironment` API (`serve_session`, `apply_churn`,
//!   `reload_ontology`) so it is accounted, bounded and visible to the
//!   `daemon.*` counters. This generalises PR 6's `daemon-with-mut`
//!   token rule.
//!
//! # Guard lifetime model
//!
//! Guards are tracked by brace depth, deliberately conservative in the
//! direction that avoids false positives:
//!
//! * a `let`-bound guard dies when the block that bound it closes, or at
//!   an explicit `drop(name)`;
//! * a temporary guard (not `let`-bound: `if let` / `match` scrutinees,
//!   `*self.lock() = ...` expression statements) dies at the `;` that
//!   ends its statement, or at the `}` that returns to its acquisition
//!   depth — this models Rust's scrutinee-temporary rule, so the
//!   double-checked `if let ... .read() ... { return } ... .write()`
//!   pattern does not trip QA102;
//! * `#[cfg(test)]` regions are skipped entirely.
//!
//! An acquisition is a `.read()` / `.write()` / `.lock()` call with
//! **empty** parentheses — `io::Read::read(&mut buf)` and
//! `io::Write::write(buf)` take arguments and never match. Receivers are
//! classified against the manifest by walking the field chain
//! (`self.inner`, `self.state`, a `self.read()` helper), scoped per
//! file so `self.inner` can mean the environment lock in `shared.rs` and
//! the metrics mutex in `recorder.rs` without ambiguity.

use crate::lexer::{lex, Token, TokenKind};
use crate::lint::{allow_on, Finding, Rule};

/// One lock class of the manifest.
#[derive(Debug, Clone, Copy)]
pub struct LockClass {
    /// Human-readable class name (used in finding excerpts and docs).
    pub name: &'static str,
    /// Workspace-relative files whose acquisitions belong to this class.
    pub files: &'static [&'static str],
    /// Receiver identifiers that select this class within those files
    /// (any identifier of the receiver field chain matches).
    pub receivers: &'static [&'static str],
}

/// The lock manifest: every lock in the workspace, outermost first
/// (a session takes the environment lock, then composes, emitting
/// events and metrics on the way). Each lives in
/// its own file and none is acquired lexically under another, so the
/// nesting itself is not something a per-file scan can check.
pub const MANIFEST: &[LockClass] = &[
    LockClass {
        name: "environment",
        files: &["crates/core/src/shared.rs"],
        receivers: &["inner", "self"],
    },
    LockClass {
        name: "event-buffer",
        files: &["crates/core/src/events.rs"],
        receivers: &["events", "self"],
    },
    LockClass {
        name: "recorder",
        files: &["crates/obs/src/recorder.rs"],
        receivers: &["inner", "self"],
    },
];

/// Standard-library handles whose `.lock()` is I/O line-buffering, not
/// synchronisation — exempt from every QA1xx rule.
const IO_WHITELIST: &[&str] = &["stdin", "stdout", "stderr"];

/// Methods that hand a frame/message to another thread; holding a lock
/// guard across one is QA103.
const SEND_METHODS: &[&str] = &["send", "write_all", "send_frame", "write_frame"];

/// Whether `rel` (workspace-relative, `/`-separated) hosts a manifest
/// lock class or is daemon code — i.e. whether the QA1xx rules scan it.
pub fn locks_scope(rel: &str) -> bool {
    MANIFEST.iter().any(|c| c.files.contains(&rel)) || rel.starts_with("crates/daemon/src/")
}

/// A live guard in the abstract interpretation.
struct Guard {
    /// Manifest index, if the receiver classified.
    class: Option<usize>,
    /// Whether the guard is exclusive (`.write()` / `.lock()`).
    exclusive: bool,
    /// Brace depth at acquisition.
    depth: i64,
    /// Temporary (not `let`-bound): dies at end of statement.
    temp: bool,
    /// Binder name for `drop(name)` tracking.
    var: Option<String>,
}

fn classify(rel: &str, chain: &[String]) -> Option<usize> {
    MANIFEST.iter().position(|c| {
        c.files.contains(&rel) && chain.iter().any(|id| c.receivers.contains(&id.as_str()))
    })
}

/// Walks the receiver field chain left of the `.` at `dot`, skipping
/// balanced `[...]` / `(...)` suffixes: `self.slots[slot_of(r)].read()`
/// yields `["self", "slots"]`.
fn receiver_chain(toks: &[Token], dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = dot;
    'outer: while j > 0 {
        let mut k = j - 1;
        while toks[k].is_punct(']') || toks[k].is_punct(')') {
            let (open, close) = if toks[k].is_punct(']') {
                ('[', ']')
            } else {
                ('(', ')')
            };
            let mut bal = 1usize;
            while bal > 0 {
                if k == 0 {
                    break 'outer;
                }
                k -= 1;
                if toks[k].is_punct(close) {
                    bal += 1;
                } else if toks[k].is_punct(open) {
                    bal -= 1;
                }
            }
            if k == 0 {
                break 'outer;
            }
            k -= 1;
        }
        match toks[k].ident() {
            Some(id) => chain.push(id.to_owned()),
            None => break,
        }
        if k == 0 || !toks[k - 1].is_punct('.') {
            break;
        }
        j = k - 1;
    }
    chain.reverse();
    chain
}

fn seq_matches(toks: &[Token], from: usize, seq: &[&str]) -> bool {
    seq.iter().enumerate().all(|(o, want)| {
        toks.get(from + o).is_some_and(|t| match &t.kind {
            TokenKind::Ident(s) => s == want,
            TokenKind::Punct(c) => want.len() == 1 && want.starts_with(*c),
        })
    })
}

fn excerpt_of(raw: &[&str], stripped: &[String], line: usize) -> String {
    let mut excerpt: String = raw
        .get(line - 1)
        .map(|l| l.trim().chars().take(120).collect())
        .unwrap_or_default();
    if excerpt.is_empty() {
        excerpt = stripped
            .get(line - 1)
            .map(|l| l.trim().chars().take(120).collect())
            .unwrap_or_default();
    }
    excerpt
}

/// Runs the QA1xx rules over one stripped file. `raw` carries the
/// original lines for excerpts and `lint:allow` comments (same line or
/// the line immediately above).
pub(crate) fn scan_locks(rel: &str, stripped: &[String], raw: &[&str]) -> Vec<Finding> {
    let daemon = rel.starts_with("crates/daemon/src/");
    let toks = lex(stripped);
    let n = toks.len();

    let mut findings: Vec<Finding> = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;
    // `#[cfg(test)]` region tracking, token-level.
    let mut test_pending = false;
    let mut in_test = false;
    let mut test_depth: i64 = 0;
    // Active `let` statements: (brace depth, binder name).
    let mut lets: Vec<(i64, Option<String>)> = Vec::new();

    let emit = |rule: Rule, line: usize, findings: &mut Vec<Finding>| {
        if !allow_on(raw, line, rule) {
            findings.push(Finding {
                rule,
                file: rel.to_owned(),
                line,
                excerpt: excerpt_of(raw, stripped, line),
            });
        }
    };

    let mut i = 0;
    while i < n {
        match &toks[i].kind {
            TokenKind::Punct('{') => {
                depth += 1;
                if test_pending && !in_test {
                    test_pending = false;
                    in_test = true;
                    test_depth = depth;
                }
                i += 1;
            }
            TokenKind::Punct('}') => {
                depth -= 1;
                // Block-scoped guards die; statement temporaries at the
                // re-entered depth die too (end of the `if let`/`match`
                // expression that owned them).
                guards.retain(|g| g.depth <= depth && !(g.temp && g.depth == depth));
                lets.retain(|(d, _)| *d <= depth);
                if in_test && depth < test_depth {
                    in_test = false;
                }
                i += 1;
            }
            TokenKind::Punct(';') => {
                guards.retain(|g| !(g.temp && g.depth >= depth));
                lets.retain(|(d, _)| *d != depth);
                // `#[cfg(test)] use ...;` — single-item gate, over.
                test_pending = false;
                i += 1;
            }
            TokenKind::Punct('#') => {
                if !in_test && seq_matches(&toks, i + 1, &["[", "cfg", "(", "test", ")", "]"]) {
                    test_pending = true;
                    i += 7;
                } else {
                    i += 1;
                }
            }
            TokenKind::Punct('.') if !in_test => {
                let method = toks.get(i + 1).and_then(|t| t.ident());
                let open = toks.get(i + 2).is_some_and(|t| t.is_punct('('));
                let empty = open && toks.get(i + 3).is_some_and(|t| t.is_punct(')'));
                match method {
                    Some(m @ ("read" | "write" | "lock")) if empty => {
                        let line = toks[i + 1].line;
                        let chain = receiver_chain(&toks, i);
                        if chain.iter().any(|c| IO_WHITELIST.contains(&c.as_str())) {
                            i += 4;
                            continue;
                        }
                        if daemon {
                            emit(Rule::RawLockInDaemon, line, &mut findings);
                        }
                        let class = classify(rel, &chain);
                        if m == "write"
                            && class.is_some()
                            && guards.iter().any(|g| g.class == class && !g.exclusive)
                        {
                            emit(Rule::WriteUnderRead, line, &mut findings);
                        }
                        let (temp, var) = match lets.last() {
                            Some((d, v)) if *d == depth => (false, v.clone()),
                            _ => (true, None),
                        };
                        guards.push(Guard {
                            class,
                            exclusive: m != "read",
                            depth,
                            temp,
                            var,
                        });
                        i += 4;
                    }
                    Some(m) if open && SEND_METHODS.contains(&m) => {
                        if !guards.is_empty() {
                            emit(Rule::GuardAcrossSend, toks[i + 1].line, &mut findings);
                        }
                        i += 2;
                    }
                    _ => i += 1,
                }
            }
            TokenKind::Ident(id) if !in_test => {
                match id.as_str() {
                    "let" => {
                        // `if let` / `while let` bind patterns over a
                        // scrutinee temporary, not a named guard.
                        let scrutinee = i > 0
                            && toks[i - 1]
                                .ident()
                                .is_some_and(|p| p == "if" || p == "while");
                        if !scrutinee {
                            let mut j = i + 1;
                            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                                j += 1;
                            }
                            // A binder only counts if followed by `:` or
                            // `=` — `let (a, b) = ...` patterns bind
                            // anonymously.
                            let var = toks
                                .get(j)
                                .and_then(|t| t.ident())
                                .filter(|_| {
                                    toks.get(j + 1)
                                        .is_some_and(|t| t.is_punct(':') || t.is_punct('='))
                                })
                                .map(str::to_owned);
                            lets.push((depth, var));
                        }
                        i += 1;
                    }
                    "drop" => {
                        if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                            if let Some(v) = toks
                                .get(i + 2)
                                .and_then(|t| t.ident())
                                .filter(|_| toks.get(i + 3).is_some_and(|t| t.is_punct(')')))
                            {
                                guards.retain(|g| g.var.as_deref() != Some(v));
                            }
                        }
                        i += 1;
                    }
                    "Mutex" | "RwLock" | "Condvar" if daemon => {
                        emit(Rule::RawLockInDaemon, toks[i].line, &mut findings);
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use crate::lint::{scan_file, Rule};

    fn lock_findings(rel: &str, src: &str) -> Vec<(Rule, usize)> {
        scan_file(rel, src)
            .into_iter()
            .filter(|f| {
                matches!(
                    f.rule,
                    Rule::WriteUnderRead | Rule::GuardAcrossSend | Rule::RawLockInDaemon
                )
            })
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn write_under_read_is_flagged_and_drop_clears_it() {
        let bad = "impl S {\n    fn bad(&self) {\n        let env = self.inner.read();\n        let mut w = self.inner.write();\n    }\n}\n";
        let hits = lock_findings("crates/core/src/shared.rs", bad);
        assert_eq!(hits, vec![(Rule::WriteUnderRead, 4)]);

        let good = "impl S {\n    fn good(&self) {\n        let env = self.inner.read();\n        drop(env);\n        let mut w = self.inner.write();\n    }\n}\n";
        assert!(lock_findings("crates/core/src/shared.rs", good).is_empty());

        // The same lock reached through the `read()` helper.
        let helper = "impl S {\n    fn bad(&self) {\n        let env = self.read();\n        let mut w = self.inner.write();\n    }\n}\n";
        let hits = lock_findings("crates/core/src/shared.rs", helper);
        assert_eq!(hits, vec![(Rule::WriteUnderRead, 4)]);
    }

    #[test]
    fn if_let_scrutinee_temp_does_not_trip_write_under_read() {
        // The double-checked pattern: temp read guard in the `if let`
        // scrutinee, then a write. Must be clean.
        let src = "impl S {\n    fn intern(&self) -> u32 {\n        if let Some(id) = self.inner.read().get(iri) {\n            return id;\n        }\n        let mut w = self.inner.write();\n        w.insert(iri)\n    }\n}\n";
        assert!(lock_findings("crates/core/src/shared.rs", src).is_empty());
    }

    #[test]
    fn expression_temp_dies_at_semicolon() {
        let src = "impl R {\n    fn reset(&self) {\n        *self.inner.lock() = Default::default();\n        let mut g = self.inner.lock();\n    }\n}\n";
        assert!(lock_findings("crates/obs/src/recorder.rs", src).is_empty());
    }

    #[test]
    fn guard_across_send_is_flagged() {
        let src = "impl S {\n    fn bad(&self, tx: &Sender<u64>) {\n        let env = self.inner.read();\n        tx.send(env.epoch());\n    }\n}\n";
        let hits = lock_findings("crates/core/src/shared.rs", src);
        assert_eq!(hits, vec![(Rule::GuardAcrossSend, 4)]);

        let good = "impl S {\n    fn good(&self, tx: &Sender<u64>) {\n        let epoch = { let env = self.inner.read(); env.epoch() };\n        tx.send(epoch);\n    }\n}\n";
        assert!(lock_findings("crates/core/src/shared.rs", good).is_empty());
    }

    #[test]
    fn raw_locks_in_daemon_are_flagged_but_stdio_is_exempt() {
        let src = "struct S { q: Mutex<u64> }\nfn f(s: &S) {\n    let g = s.q.lock();\n}\n";
        let hits = lock_findings("crates/daemon/src/state.rs", src);
        assert_eq!(
            hits,
            vec![(Rule::RawLockInDaemon, 1), (Rule::RawLockInDaemon, 3)]
        );

        let stdio = "fn main() {\n    let stdin = std::io::stdin();\n    for line in stdin.lock().lines() {}\n}\n";
        assert!(lock_findings("crates/daemon/src/bin/qasomd.rs", stdio).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(s: &S) {\n        let r = s.inner.read();\n        let w = s.inner.write();\n    }\n}\n";
        assert!(lock_findings("crates/core/src/shared.rs", src).is_empty());
    }

    #[test]
    fn io_read_write_with_args_never_match() {
        let src = "impl S {\n    fn pump(&self, r: &mut impl Read, tx: &Sender<Vec<u8>>) {\n        let n = r.read(&mut buf);\n        tx.send(buf);\n    }\n}\n";
        // `.read(&mut buf)` has arguments: no guard, so no QA103 either.
        assert!(lock_findings("crates/core/src/shared.rs", src).is_empty());
    }
}
