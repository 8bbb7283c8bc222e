//! A figure binary whose stdout reader is gone ends its output quietly:
//! exit 0 and nothing on stderr, where a bare `print!` panics with "failed
//! printing to stdout: Broken pipe" and exits 101.

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Command, Stdio};

#[test]
fn figure_into_a_closed_pipe_exits_0_quietly() {
    // The reader is dropped before the child starts, so its first write
    // already meets a closed pipe; nothing races it.
    let (writer, reader) = UnixStream::pair().expect("socket pair");
    drop(reader);
    let run = Command::new(env!("CARGO_BIN_EXE_fig03_chunked_rr"))
        .stdout(Stdio::from(OwnedFd::from(writer)))
        .stderr(Stdio::piped())
        .output()
        .expect("spawn fig03_chunked_rr");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert_eq!(stderr, "");
}
