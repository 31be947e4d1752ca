//! Argument validation on the real binary: bad invocations of every
//! subcommand must die at arg-parse time with a usage error — before
//! any simulation or trial runs, any directory is created, any journal
//! is touched or any daemon is contacted.

use std::process::Command;

/// Runs `rmt3d campaign` with the given extra args and returns
/// (success, stderr).
fn campaign(extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rmt3d"))
        .arg("campaign")
        .args(extra)
        .output()
        .expect("rmt3d runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_jobs_is_a_usage_error() {
    let (ok, stderr) = campaign(&["--jobs", "0"]);
    assert!(!ok, "--jobs 0 exited successfully");
    assert!(
        stderr.starts_with("error: --jobs must be at least 1\n"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage: rmt3d"),
        "usage not printed: {stderr}"
    );
}

#[test]
fn empty_site_list_is_a_usage_error() {
    for sites in ["", ",", " , ,"] {
        let (ok, stderr) = campaign(&["--sites", sites]);
        assert!(!ok, "--sites {sites:?} exited successfully");
        assert!(
            stderr.starts_with("error: fault site list is empty\n"),
            "--sites {sites:?} stderr: {stderr}"
        );
    }
}

#[test]
fn empty_benchmark_list_is_a_usage_error() {
    let (ok, stderr) = campaign(&["--benchmarks", ""]);
    assert!(!ok, "--benchmarks \"\" exited successfully");
    assert!(
        stderr.starts_with("error: benchmark list is empty\n"),
        "stderr: {stderr}"
    );
}

/// Bad invocations of every subcommand and the first stderr line each
/// prints. `RUNS` stands for a scratch runs root holding one run, `r1`.
const PINNED: &[(&[&str], &str)] = &[
    (&[], "usage: rmt3d <command>"),
    (&["bogus"], "error: unknown command: bogus"),
    (&["list", "--typo"], "error: unrecognized arguments: --typo"),
    (&["simulate"], "error: --model is required"),
    (
        &["simulate", "--model", "3d-2a"],
        "error: --benchmark is required",
    ),
    (
        &["simulate", "--model", "bogus", "--benchmark", "mcf"],
        "error: unknown model: bogus",
    ),
    (
        &["simulate", "--model", "3d-2a", "--benchmark", "bogus"],
        "error: unknown benchmark: bogus",
    ),
    (
        &[
            "simulate",
            "--model",
            "3d-2a",
            "--benchmark",
            "mcf",
            "--typo",
        ],
        "error: unrecognized arguments: --typo",
    ),
    (
        &[
            "simulate",
            "--model",
            "3d-2a",
            "--benchmark",
            "mcf",
            "--sample-interval",
            "x",
        ],
        "error: invalid value for --sample-interval: x",
    ),
    (&["thermal"], "error: --model is required"),
    (
        &[
            "thermal",
            "--model",
            "3d-2a",
            "--benchmark",
            "gzip",
            "--typo",
        ],
        "error: unrecognized arguments: --typo",
    ),
    (
        &[
            "thermal",
            "--model",
            "3d-2a",
            "--benchmark",
            "gzip",
            "--checker-watts",
            "x",
        ],
        "error: invalid value for --checker-watts: x",
    ),
    (&["experiment"], "error: experiment requires a name"),
    (&["experiment", "bogus"], "error: unknown experiment: bogus"),
    (
        &["experiment", "tables", "--jobs", "0"],
        "error: --jobs must be at least 1",
    ),
    (
        &["experiment", "tables", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    // Flags before the name: `2` is --jobs's value, not the name.
    (
        &["experiment", "--jobs", "2", "bogus"],
        "error: unknown experiment: bogus",
    ),
    (
        &["experiment", "--jobs", "0"],
        "error: experiment requires a name",
    ),
    (
        &["sweep", "--jobs", "0"],
        "error: --jobs must be at least 1",
    ),
    (
        &["sweep", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    (
        &["sweep", "--models", "bogus"],
        "error: unknown model: bogus",
    ),
    (&["sweep", "--out-dir"], "error: --out-dir requires a value"),
    (
        &["sweep", "--instructions", "0"],
        "error: \"instructions\" must be at least 1",
    ),
    (
        &["sweep", "--resume", "--no-cache"],
        "error: --resume and --no-cache are mutually exclusive",
    ),
    (
        &["sweep", "--stall-factor", "0.5"],
        "error: --stall-factor must be greater than 1",
    ),
    (
        &["sweep", "--stall-factor", "NaN", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    (
        &["campaign", "--jobs", "0"],
        "error: --jobs must be at least 1",
    ),
    (
        &["campaign", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    (
        &["campaign", "--sites", "bogus"],
        "error: unknown fault site: bogus",
    ),
    (
        &["campaign", "--sabotage", "bogus"],
        "error: unknown fault site 'bogus'",
    ),
    (
        &["campaign", "--stall-factor", "1"],
        "error: --stall-factor must be greater than 1",
    ),
    (&["profile"], "error: --model is required"),
    (
        &["profile", "--model", "3d-2a"],
        "error: --benchmark is required",
    ),
    (
        &[
            "profile",
            "--model",
            "3d-2a",
            "--benchmark",
            "gzip",
            "--typo",
        ],
        "error: unrecognized arguments: --typo",
    ),
    (&["trace-report"], "error: --in is required"),
    (
        &["trace-report", "--in", "x", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    (&["bench-gate"], "error: --baseline is required"),
    (
        &["bench-gate", "--baseline", "a"],
        "error: --current is required",
    ),
    (
        &["bench-gate", "--baseline", "a", "--current", "b", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    (
        &[
            "bench-gate",
            "--baseline",
            "a",
            "--current",
            "b",
            "--tolerance",
            "NaN",
        ],
        "error: --tolerance must be a percentage in [0, 1000)",
    ),
    (
        &["status", "--interval", "0"],
        "error: --interval must be at least 1 millisecond",
    ),
    (
        &["status", "--interval", "5"],
        "error: --interval requires --follow",
    ),
    (
        &["status", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    (
        &["status", "--runs-root", "RUNS", "--run", "nope"],
        "error: run 'nope' not found under RUNS (no manifest.json)",
    ),
    (
        &["report", "--runs-root", "RUNS", "--run", "r1"],
        "error: report currently supports only --html",
    ),
    (
        &["report", "--html", "--refresh", "0"],
        "error: --refresh must be at least 1 second",
    ),
    (
        &["report", "--runs-root", "RUNS", "--run", "r1", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    (
        &["serve", "--jobs", "0"],
        "error: --jobs must be at least 1",
    ),
    (
        &["serve", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    (
        &["submit", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    (
        &["submit", "--priority", "x"],
        "error: invalid value for --priority: x",
    ),
    // Axis flags are checked here, not by the daemon: port 1 is never
    // dialled.
    (
        &["submit", "--models", "bogus", "--addr", "127.0.0.1:1"],
        "error: unknown model: bogus",
    ),
    (
        &[
            "submit",
            "--kind",
            "campaign",
            "--sites",
            "bogus",
            "--addr",
            "127.0.0.1:1",
        ],
        "error: unknown fault site: bogus",
    ),
    (&["jobs", "--typo"], "error: unrecognized arguments: --typo"),
    (&["cancel"], "error: cancel requires a job id"),
    (&["cancel", "--addr"], "error: cancel requires a job id"),
    (
        &["stats", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
    (&["watch"], "error: watch requires a job id"),
    (&["watch", "--addr"], "error: --addr requires a value"),
    (
        &["top", "--interval", "0"],
        "error: --interval must be at least 1 millisecond",
    ),
    (
        &["top", "--interval", "5"],
        "error: --interval requires --watch",
    ),
    (&["top", "--typo"], "error: unrecognized arguments: --typo"),
    (
        &["shutdown", "--typo"],
        "error: unrecognized arguments: --typo",
    ),
];

/// Float flags that must be finite and in range. Unlike [`PINNED`],
/// these were accepted before the shared range rule (a `NaN` wattage
/// printed a `-inf C` peak).
const RANGE_CHECKED: &[(&[&str], &str)] = &[
    (
        &[
            "thermal",
            "--model",
            "3d-2a",
            "--benchmark",
            "gzip",
            "--checker-watts",
            "NaN",
        ],
        "error: --checker-watts must be a finite, non-negative wattage",
    ),
    (
        &[
            "thermal",
            "--model",
            "3d-2a",
            "--benchmark",
            "gzip",
            "--checker-watts",
            "inf",
        ],
        "error: --checker-watts must be a finite, non-negative wattage",
    ),
    (
        &[
            "thermal",
            "--model",
            "3d-2a",
            "--benchmark",
            "gzip",
            "--checker-watts",
            "-1",
        ],
        "error: --checker-watts must be a finite, non-negative wattage",
    ),
    (
        &["sweep", "--stall-factor", "inf"],
        "error: --stall-factor must be greater than 1",
    ),
];

#[test]
fn every_subcommand_pins_its_error_surface() {
    let runs = std::env::temp_dir().join(format!("rmt3d-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(runs.join("r1")).unwrap();
    std::fs::write(runs.join("r1").join("manifest.json"), "").unwrap();
    let runs_str = runs.to_str().unwrap();

    let mut wrong = Vec::new();
    for (args, expected) in PINNED.iter().chain(RANGE_CHECKED) {
        let args: Vec<&str> = args
            .iter()
            .map(|a| if *a == "RUNS" { runs_str } else { a })
            .collect();
        let out = Command::new(env!("CARGO_BIN_EXE_rmt3d"))
            .args(&args)
            .output()
            .expect("rmt3d runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or("");
        let expected = expected.replace("RUNS", runs_str);
        if out.status.code() != Some(1)
            || first != expected
            || !out.stdout.is_empty()
            || !stderr.contains("usage: rmt3d")
        {
            wrong.push(format!(
                "rmt3d {}: exit {:?}, first stderr line {first:?} (want {expected:?}), {} stdout bytes",
                args.join(" "),
                out.status.code(),
                out.stdout.len()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&runs);
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

#[test]
fn experiment_flags_may_precede_its_name() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_rmt3d"))
            .args(args)
            .output()
            .expect("rmt3d runs");
        assert!(out.status.success(), "rmt3d {}", args.join(" "));
        out.stdout
    };
    let flags_first = run(&["experiment", "--jobs", "2", "tables"]);
    assert!(!flags_first.is_empty());
    assert_eq!(flags_first, run(&["experiment", "tables", "--jobs", "2"]));
}
