//! A real `rmt3d serve` child for end-to-end tests, driven through the
//! binary's own client subcommands.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs the `rmt3d` binary to completion.
pub fn rmt3d(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rmt3d"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A daemon child bound to an ephemeral port; the address comes from
/// its startup banner so parallel tests never collide.
pub struct Daemon {
    pub child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts a daemon with its state, cache and runs under `root`.
    pub fn start(root: &Path) -> Daemon {
        let state = root.join("state");
        let cache = root.join("cache");
        let runs = root.join("runs");
        let mut child = Command::new(env!("CARGO_BIN_EXE_rmt3d"))
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--state-dir",
                state.to_str().unwrap(),
                "--out-dir",
                cache.to_str().unwrap(),
                "--runs-root",
                runs.to_str().unwrap(),
                "--jobs",
                "2",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let mut reader = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut addr = None;
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            if let Some(rest) = line.trim().strip_prefix("serve: listening on ") {
                addr = rest.split(',').next().map(str::to_string);
                break;
            }
            line.clear();
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon did not announce its address");
        };
        // Keep draining so daemon chatter never backs up the pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = reader.read_to_string(&mut sink);
        });
        Daemon { child, addr }
    }

    /// Drains the daemon through `shutdown` and waits for a clean exit.
    pub fn stop(mut self) {
        let out = rmt3d(&["shutdown", "--addr", &self.addr]);
        assert!(out.status.success(), "shutdown failed: {out:?}");
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match self.child.try_wait().expect("daemon waitable") {
                Some(status) => {
                    assert!(status.success(), "daemon exited {status}");
                    return;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("daemon did not drain within the deadline");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

impl Drop for Daemon {
    /// Kills and reaps a daemon that is still running, so a test that
    /// panics before `stop()` leaves no orphaned `rmt3d serve` behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
