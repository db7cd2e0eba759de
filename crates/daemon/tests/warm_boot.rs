//! `qasomd --data-dir` end to end: the binary's cold boot journals the
//! provider market, `kill -9` loses none of it, and the warm boot that
//! follows serves the recovered registry instead of re-registering.
//! A clean shutdown (stdin closed) checkpoints, so the boot after it
//! replays no WAL at all.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};

const PROVIDERS: usize = 3000;

/// A running `qasomd` and the stderr lines it printed up to `serving on`.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    boot_log: Vec<String>,
}

fn start(dir: &Path, providers: usize) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qasomd"))
        .args(["--providers", &providers.to_string()])
        .args(["--addr", "127.0.0.1:0", "--data-dir"])
        .arg(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stdin = child.stdin.take().unwrap();
    let mut boot_log = Vec::new();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    while stderr.read_line(&mut line).unwrap() > 0 {
        let serving = line.contains("serving on");
        boot_log.push(line.trim_end().to_owned());
        line.clear();
        if serving {
            // `qasomd` keeps logging after `serving on`; drain the rest
            // so it never writes to a pipe nobody reads.
            std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
            return Daemon {
                child,
                stdin,
                boot_log,
            };
        }
    }
    let status = child.wait().unwrap();
    panic!("qasomd exited ({status}) before serving: {boot_log:?}");
}

/// The number printed just before `marker` on the boot-log line that
/// contains `line_marker`, or `None` when no line does.
fn logged(daemon: &Daemon, line_marker: &str, marker: &str) -> Option<u64> {
    let line = daemon
        .boot_log
        .iter()
        .find(|line| line.contains(line_marker))?;
    let end = line.find(marker).unwrap();
    let word = line[..end].rsplit([' ', '(']).next().unwrap();
    Some(word.parse().unwrap())
}

/// `(live services, WAL events replayed)` from the warm-restart line,
/// or `None` on a cold boot.
fn warm_restart(daemon: &Daemon) -> Option<(usize, u64)> {
    Some((
        logged(daemon, "warm restart", " live services")? as usize,
        logged(daemon, "warm restart", " WAL events replayed")?,
    ))
}

/// The provider count the `serving on` line reports.
fn serving(daemon: &Daemon) -> usize {
    logged(daemon, "serving on", " providers").unwrap() as usize
}

fn data_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qasomd-warm-boot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_killed_daemon_warm_boots_from_its_data_dir() {
    let dir = data_dir();

    let mut cold = start(&dir, PROVIDERS);
    assert_eq!(warm_restart(&cold), None, "{:?}", cold.boot_log);
    assert_eq!(serving(&cold), PROVIDERS);
    cold.child.kill().unwrap();
    cold.child.wait().unwrap();

    // The kill skipped the shutdown checkpoint: the WAL tail replays.
    // A warm boot serves what it recovered, whatever `--providers` says.
    let mut warm = start(&dir, PROVIDERS + 5);
    let (live, replayed) = warm_restart(&warm).expect("a warm restart");
    assert_eq!(live, PROVIDERS);
    assert_eq!(serving(&warm), live, "{:?}", warm.boot_log);
    assert!(replayed > 0, "{:?}", warm.boot_log);
    drop(warm.stdin);
    assert!(warm.child.wait().unwrap().success());

    // A clean shutdown checkpointed: snapshot only.
    let mut clean = start(&dir, 0);
    assert_eq!(warm_restart(&clean), Some((PROVIDERS, 0)));
    assert_eq!(serving(&clean), PROVIDERS, "{:?}", clean.boot_log);
    drop(clean.stdin);
    assert!(clean.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);

    // A cold boot asked for no providers deploys one, and says so.
    let mut empty = start(&dir, 0);
    assert_eq!(serving(&empty), 1, "{:?}", empty.boot_log);
    drop(empty.stdin);
    assert!(empty.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
