//! The offline Perfetto path on the real binary: `trace-report
//! --chrome-out` replays a `simulate --trace-out` JSONL through the
//! same renderer `profile` uses live, so the two `.trace.json` files
//! must be byte-identical.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmt3d-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rmt3d"))
        .args(args)
        .output()
        .expect("rmt3d runs");
    assert!(
        out.status.success(),
        "rmt3d {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

#[test]
fn replayed_jsonl_renders_the_live_profile_trace() {
    let dir = tmp("trace-replay");
    let jsonl = dir.join("run.jsonl");
    let replayed = dir.join("replayed.trace.json");
    let scale = ["--model", "3d-2a", "--benchmark", "gzip"];
    let size = ["--instructions", "20000", "--sample-interval", "1000"];

    run(&[
        &["profile"][..],
        &scale,
        &size,
        &["--out-dir", path(&dir), "--no-ledger", "--quiet"],
    ]
    .concat());
    run(&[
        &["simulate"][..],
        &scale,
        &size,
        &["--trace-out", path(&jsonl), "--quiet"],
    ]
    .concat());
    let report = run(&[
        "trace-report",
        "--in",
        path(&jsonl),
        "--chrome-out",
        path(&replayed),
    ]);

    // The summary line is counted like any event kind.
    assert!(
        report
            .lines()
            .any(|l| l.split_whitespace().eq(["summary", "1"])),
        "{report}"
    );
    let live = std::fs::read(dir.join("3d-2a-gzip.trace.json")).expect("profile trace");
    let replayed = std::fs::read(&replayed).expect("replayed trace");
    assert!(live.len() > 1000, "profile trace is suspiciously short");
    assert!(
        live == replayed,
        "trace-report --chrome-out differs from the live profile trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
