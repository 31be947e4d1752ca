//! Host and run fingerprint, and the `/proc` readings the metrics use.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Available CPUs as the standard library sees them.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The engine `workload`'s simulations run on, on this host.
///
/// `simulate` (sweeps, Fig. 4, the daemon's jobs) resolves
/// `Engine::Auto` to the threaded leader/checker split when more than
/// one CPU is available. A campaign trial drives its system through
/// `RmtSystem::step` with a fault injector attached, which the threaded
/// engine refuses, so trials always run serially.
pub fn engine(workload: &str) -> &'static str {
    if workload == "campaign-journaled" {
        "serial (step loop, injector)"
    } else if cpus() > 1 {
        "auto:threaded"
    } else {
        "auto:serial"
    }
}

/// `release` or `debug`.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// A field of `/proc/self/status` in its own units (`VmHWM` is kB).
pub fn proc_status(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn first_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string(),
        _ => "unknown".to_string(),
    }
}

/// `rustc -V`.
pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}

/// The commit checked out at `root`, or `none` when `root` is not the
/// top of a git work tree (git is not asked to search parent
/// directories, which could name an unrelated repository).
pub fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".to_string();
    }
    first_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

/// FNV-1a over the sources the benchmark builds from (workspace
/// manifest and lock file, every crate, and the benchmark itself), by
/// sorted relative path, or `none` when `root` holds none of them. It
/// identifies the code where no git commit is available.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "rmtbench/Cargo.toml",
        "rmtbench/src",
    ] {
        let p = root.join(top);
        if p.is_dir() {
            collect_files(&p, &mut files);
        } else if p.is_file() {
            files.push(p);
        }
    }
    if files.is_empty() {
        return "none".to_string();
    }
    files.sort();
    let mut text = Vec::new();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        text.extend_from_slice(rel.to_string_lossy().as_bytes());
        text.push(0);
        text.extend_from_slice(&std::fs::read(&f).unwrap_or_default());
        text.push(0);
    }
    crate::digest::hash_hex(&text)
}

/// First `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Kernel host name.
pub fn host_name() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_follows_the_workload() {
        assert_eq!(engine("campaign-journaled"), "serial (step loop, injector)");
        let auto = if cpus() > 1 {
            "auto:threaded"
        } else {
            "auto:serial"
        };
        for w in ["sweep-cold", "thermal-fig4", "daemon-mixed"] {
            assert_eq!(engine(w), auto, "{w}");
        }
    }
}
