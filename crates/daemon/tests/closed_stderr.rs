//! `qasomd` outlives its log reader: with stderr a pipe whose read end
//! is already closed, every log line fails with `EPIPE`, and the daemon
//! must still boot, serve until stdin closes and exit cleanly.

use std::process::{Command, Stdio};

#[test]
fn qasomd_exits_cleanly_when_its_stderr_reader_is_gone() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_qasomd"))
        .args(["--addr", "127.0.0.1:0", "--providers", "8"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .unwrap();
    assert!(status.success(), "{status}");
}
