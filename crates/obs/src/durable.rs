//! Durable files: the one module that opens, appends to, syncs or
//! renames a state file (the root `clippy.toml` forbids those calls
//! elsewhere). Both primitives create missing parent directories and
//! return the underlying I/O error.
//!
//! - [`AppendLog`]: one line per `write(2)` on an `O_APPEND` file, so
//!   concurrent appenders never interleave inside a line, and a torn
//!   last line left by a crash is closed off on open, so the next
//!   record never glues onto it. Appends survive SIGKILL;
//!   [`AppendLog::sync`] makes them survive power loss too.
//! - [`write_atomic`]: temp file, fsync, rename, directory fsync.
//!   Readers see the old document or the new one, never a torn write.
#![allow(clippy::disallowed_methods)]

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An append-only line log.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
}

impl AppendLog {
    /// Opens (creating if missing) the log at `path` and
    /// newline-terminates a torn last line. The check holds an
    /// exclusive `flock` and every append a shared one: a line that
    /// crosses a page boundary can be seen half-written while its
    /// `write(2)` runs, and must not be mistaken for a torn one.
    pub fn open(path: &Path) -> io::Result<AppendLog> {
        create_parent(path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        file.lock()?;
        let terminated = terminate_torn_line(&mut file);
        file.unlock()?;
        terminated?;
        Ok(AppendLog { file })
    }

    /// Appends `line` and a newline in one `write(2)`.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.file.lock_shared()?;
        let written = self.file.write_all(&buf);
        self.file.unlock()?;
        written
    }

    /// Flushes every line appended so far to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Replaces the file at `path` with `text`: temp file in the same
/// directory, fsync, rename, directory fsync. The temp file is removed
/// if the rename fails.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let dir = create_parent(path)?;
    let tmp = temp_path(path);
    let written = File::create(&tmp).and_then(|mut f| {
        f.write_all(text.as_bytes())?;
        f.sync_all()
    });
    if let Err(e) = written.and_then(|()| fs::rename(&tmp, path)) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    File::open(dir)?.sync_all()
}

/// Creates `path`'s parent directory if missing and returns it.
fn create_parent(path: &Path) -> io::Result<&Path> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    Ok(dir)
}

/// A hidden temp-file path beside `path`, unique per process *and* per
/// call, so concurrent writers never share one; its extension differs
/// from `path`'s, so directory scans by extension skip it.
fn temp_path(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let base = path.file_name().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!(".{base}.tmp.{}.{seq}", std::process::id()))
}

/// Newline-terminates a torn last line, which replay skips as corrupt;
/// without this the next appended line would glue onto it and be lost
/// with it.
fn terminate_torn_line(file: &mut File) -> io::Result<()> {
    if file.seek(SeekFrom::End(0))? == 0 {
        return Ok(());
    }
    file.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    file.read_exact(&mut last)?;
    if last[0] != b'\n' {
        file.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rmt3d-durable-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn open_creates_parents_and_appends_whole_lines() {
        let dir = tempdir("open");
        let path = dir.join("a").join("b").join("log.jsonl");
        let mut log = AppendLog::open(&path).unwrap();
        log.append("{\"n\":1}").unwrap();
        log.append("{\"n\":2}").unwrap();
        log.sync().unwrap();
        drop(log);
        AppendLog::open(&path).unwrap().append("{\"n\":3}").unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash can stop an append at any byte. For every cut offset:
    /// reopen, append a marker, and every line that was complete
    /// before the cut must still be there, followed by the marker on a
    /// line of its own.
    #[test]
    fn every_truncation_keeps_complete_lines_and_the_next_append() {
        let dir = tempdir("truncate");
        let path = dir.join("log.jsonl");
        let lines: Vec<String> = (0..6)
            .map(|i| format!("{{\"seq\":{i},\"pad\":\"{}\"}}", "x".repeat(i * 3)))
            .collect();
        let mut log = AppendLog::open(&path).unwrap();
        for line in &lines {
            log.append(line).unwrap();
        }
        drop(log);
        let full = fs::read(&path).unwrap();
        const MARKER: &str = "{\"marker\":true}";
        for cut in 0..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            AppendLog::open(&path).unwrap().append(MARKER).unwrap();
            let text = fs::read_to_string(&path).unwrap();
            let got: Vec<&str> = text.lines().collect();
            let complete = full[..cut].iter().filter(|&&b| b == b'\n').count();
            assert_eq!(
                &got[..complete],
                &lines[..complete],
                "cut at byte {cut}: a complete line was lost"
            );
            assert_eq!(got.last(), Some(&MARKER), "cut at byte {cut}");
            // At most the torn stub sits between them.
            assert!(got.len() <= complete + 2, "cut at byte {cut}");
            assert!(text.ends_with('\n'), "cut at byte {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_content() {
        let dir = tempdir("atomic");
        let path = dir.join("doc.json");
        write_atomic(&path, "{\"a\":1}").unwrap();
        write_atomic(&path, "{\"a\":2}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"a\":2}");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["doc.json"], "temp files must not linger");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_removes_the_temp_file() {
        let dir = tempdir("rename-fails");
        // A non-empty directory in the way makes the rename fail.
        let path = dir.join("doc.json");
        fs::create_dir_all(path.join("occupied")).unwrap();
        assert!(write_atomic(&path, "{}").is_err());
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["doc.json"], "temp file must be cleaned up");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_paths_are_unique_hidden_and_sibling() {
        let p = Path::new("/x/y/status.json");
        let a = temp_path(p);
        let b = temp_path(p);
        assert_ne!(a, b);
        assert_eq!(a.parent(), p.parent());
        let name = a.file_name().unwrap().to_string_lossy();
        assert!(name.starts_with(".status.json.tmp."));
        assert_ne!(a.extension().and_then(|e| e.to_str()), Some("json"));
    }
}
