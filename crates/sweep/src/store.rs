//! On-disk content-addressed result cache.
//!
//! One file per job, named by the job's [`cache key`](crate::JobSpec::cache_key)
//! in hex, holding a single JSON line `{"key": <canonical>, "result": {…}}`.
//! The canonical configuration text is stored alongside the result and
//! re-verified on load, so a 64-bit hash collision degrades to a cache
//! miss instead of serving the wrong result. Writes go through
//! [`write_atomic`], so a sweep killed mid-write leaves no partial
//! entry and `--resume` picks up cleanly.
//!
//! The store also keeps observability state: in-memory hit/miss/verify
//! counters (snapshot via [`ResultStore::stats`]) and a usage index —
//! `index.json` in the cache directory, mapping each entry to its size,
//! last-used stamp, and hit count. The index drives size-bounded LRU
//! eviction ([`ResultStore::evict_to`]); it is advisory metadata —
//! losing or corrupting it costs nothing but the usage history (a
//! subsequent eviction then treats unindexed entries as least recently
//! used) — and it is excluded from [`ResultStore::len`] and entry
//! totals.

use crate::codec;
use crate::spec::JobSpec;
use rmt3d::PerfResult;
use rmt3d_obs::durable::write_atomic;
use rmt3d_obs::ledger::unix_now_ms;
use rmt3d_telemetry::json::{parse, write_json_string, JsonObject, JsonValue};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// File name of the usage index inside the cache directory. Not a
/// cache entry: excluded from [`ResultStore::len`] and
/// [`ResultStore::totals`].
pub const INDEX_FILE: &str = "index.json";

/// Snapshot of a store's lookup counters since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups satisfied from disk.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries rejected because the stored canonical key did not match
    /// the probing job (hash collision or corruption); counted *in
    /// addition* to the miss they degrade into.
    pub verify_failures: u64,
}

/// Per-entry usage metadata held in `index.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexEntry {
    /// Entry file size in bytes at last write.
    pub bytes: u64,
    /// Unix milliseconds of the last load or save that touched the
    /// entry (wall clock; advisory).
    pub last_used_unix_ms: u64,
    /// Loads served from this entry since it was first indexed.
    pub hits: u64,
}

/// What one [`ResultStore::evict_to`] pass removed and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionReport {
    /// Entry files deleted.
    pub evicted_entries: u64,
    /// Bytes those files held on disk.
    pub evicted_bytes: u64,
    /// Entry bytes still on disk after the pass.
    pub remaining_bytes: u64,
}

/// A directory of cached job results.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    verify_failures: Arc<AtomicU64>,
    index: Arc<Mutex<BTreeMap<String, IndexEntry>>>,
}

impl ResultStore {
    /// Opens (creating if necessary) a cache directory. An existing
    /// usage index is loaded; a missing or corrupt one starts empty.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn open(dir: &Path) -> io::Result<ResultStore> {
        fs::create_dir_all(dir)?;
        let index = fs::read_to_string(dir.join(INDEX_FILE))
            .ok()
            .and_then(|text| parse_index(&text))
            .unwrap_or_default();
        Ok(ResultStore {
            dir: dir.to_path_buf(),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            verify_failures: Arc::new(AtomicU64::new(0)),
            index: Arc::new(Mutex::new(index)),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for a job.
    pub fn entry_path(&self, job: &JobSpec) -> PathBuf {
        self.dir.join(entry_name(job))
    }

    /// Loads a cached result. Returns `None` on a missing entry, and
    /// treats corrupt, truncated, or colliding entries as misses (the
    /// job simply re-runs and overwrites them).
    pub fn load(&self, job: &JobSpec) -> Option<PerfResult> {
        let Ok(text) = fs::read_to_string(self.entry_path(job)) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let canonical = job.canonical();
        let verified = parse(text.trim())
            .ok()
            .filter(|v| v.get("key").and_then(JsonValue::as_str) == Some(canonical.as_str()));
        let Some(v) = verified else {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let decoded = v.get("result").and_then(|r| codec::decode(&render(r)).ok());
        match decoded {
            Some(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.touch(&entry_name(job), text.len() as u64, true);
                Some(result)
            }
            None => {
                self.verify_failures.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists a job's result with [`write_atomic`].
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit while writing.
    pub fn save(&self, job: &JobSpec, result: &PerfResult) -> io::Result<()> {
        let mut line = String::from("{\"key\":");
        write_json_string(&mut line, &job.canonical());
        line.push_str(",\"result\":");
        line.push_str(&codec::encode(result));
        line.push_str("}\n");
        write_atomic(&self.entry_path(job), &line)?;
        self.touch(&entry_name(job), line.len() as u64, false);
        Ok(())
    }

    /// Number of entries currently on disk (any `.json` file except the
    /// usage index).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory is unreadable.
    pub fn len(&self) -> io::Result<usize> {
        Ok(self.totals()?.0 as usize)
    }

    /// True when the store holds no entries.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory is unreadable.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Entry count and total entry bytes on disk, excluding the usage
    /// index and in-flight temp files.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory is unreadable.
    pub fn totals(&self) -> io::Result<(u64, u64)> {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "json")
                && path.file_name().is_some_and(|n| n != INDEX_FILE)
            {
                entries += 1;
                bytes += entry.metadata()?.len();
            }
        }
        Ok((entries, bytes))
    }

    /// Lookup counters accumulated since this store (or a clone sharing
    /// its state) was opened.
    pub fn stats(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
        }
    }

    /// Usage metadata for one entry file name, if indexed.
    pub fn index_entry(&self, name: &str) -> Option<IndexEntry> {
        self.index.lock().ok()?.get(name).copied()
    }

    /// Number of entries the in-memory usage index currently tracks.
    pub fn index_len(&self) -> usize {
        self.index.lock().map(|ix| ix.len()).unwrap_or(0)
    }

    /// Writes the usage index to `index.json` atomically. Best-effort
    /// callers may ignore the result: the index is advisory.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the write fails.
    pub fn flush_index(&self) -> io::Result<()> {
        let rendered = {
            let ix = self
                .index
                .lock()
                .map_err(|_| io::Error::other("index mutex poisoned"))?;
            let mut obj = JsonObject::new();
            for (name, e) in ix.iter() {
                let mut entry = JsonObject::new();
                entry
                    .u64("bytes", e.bytes)
                    .u64("last_used_unix_ms", e.last_used_unix_ms)
                    .u64("hits", e.hits);
                obj.raw(name, &entry.finish());
            }
            obj.finish()
        };
        write_atomic(&self.dir.join(INDEX_FILE), &rendered)
    }

    /// Evicts least-recently-used entries until the on-disk entry
    /// bytes fit in `max_bytes`, then flushes the pruned usage index.
    ///
    /// Recency comes from the usage index; an entry the index does not
    /// know (lost or corrupt `index.json`) is treated as least recently
    /// used and evicted first, with the file name as a deterministic
    /// tie-break. Lookup counters are untouched — a future load of an
    /// evicted entry is an ordinary miss. Index rows whose files have
    /// vanished are dropped as a side effect, so the index cannot grow
    /// without bound either.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory is
    /// unreadable, a delete fails, or the index flush fails.
    pub fn evict_to(&self, max_bytes: u64) -> io::Result<EvictionReport> {
        // Snapshot the disk, not the index: the disk is the truth.
        let mut on_disk: Vec<(String, u64)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "json")
                && path.file_name().is_some_and(|n| n != INDEX_FILE)
            {
                let name = entry.file_name().to_string_lossy().into_owned();
                on_disk.push((name, entry.metadata()?.len()));
            }
        }
        let mut total: u64 = on_disk.iter().map(|(_, b)| b).sum();
        let recency = |name: &str| {
            self.index
                .lock()
                .ok()
                .and_then(|ix| ix.get(name).map(|e| e.last_used_unix_ms))
                .unwrap_or(0)
        };
        let mut victims: Vec<(u64, String, u64)> = on_disk
            .into_iter()
            .map(|(name, bytes)| (recency(&name), name, bytes))
            .collect();
        victims.sort();
        let mut report = EvictionReport::default();
        let mut surviving: BTreeSet<String> = BTreeSet::new();
        for (_, name, bytes) in victims {
            if total > max_bytes {
                fs::remove_file(self.dir.join(&name))?;
                total -= bytes;
                report.evicted_entries += 1;
                report.evicted_bytes += bytes;
            } else {
                surviving.insert(name);
            }
        }
        report.remaining_bytes = total;
        let pruned = match self.index.lock() {
            Ok(mut ix) => {
                let before = ix.len();
                ix.retain(|name, _| surviving.contains(name));
                before != ix.len()
            }
            Err(_) => false,
        };
        if pruned || report.evicted_entries > 0 {
            self.flush_index()?;
        }
        Ok(report)
    }

    fn touch(&self, name: &str, bytes: u64, hit: bool) {
        if let Ok(mut ix) = self.index.lock() {
            let e = ix.entry(name.to_string()).or_default();
            e.bytes = bytes;
            e.last_used_unix_ms = unix_now_ms();
            if hit {
                e.hits += 1;
            }
        }
    }
}

fn entry_name(job: &JobSpec) -> String {
    format!("{:016x}.json", job.cache_key())
}

fn parse_index(text: &str) -> Option<BTreeMap<String, IndexEntry>> {
    let JsonValue::Obj(map) = parse(text.trim()).ok()? else {
        return None;
    };
    let mut out = BTreeMap::new();
    for (name, v) in map {
        let field = |k: &str| v.get(k).and_then(JsonValue::as_u64);
        out.insert(
            name,
            IndexEntry {
                bytes: field("bytes")?,
                last_used_unix_ms: field("last_used_unix_ms")?,
                hits: field("hits")?,
            },
        );
    }
    Some(out)
}

/// Re-renders a parsed JSON subtree to text so the result decoder can
/// consume it. Only the shapes the codec emits (objects, arrays,
/// numbers, strings) need to round-trip.
fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => format!("{n}"),
        JsonValue::Str(s) => {
            let mut out = String::new();
            write_json_string(&mut out, s);
            out
        }
        JsonValue::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", inner.join(","))
        }
        JsonValue::Obj(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, val)| {
                    let mut key = String::new();
                    write_json_string(&mut key, k);
                    format!("{key}:{}", render(val))
                })
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use rmt3d::{simulate, ProcessorModel, RunScale};
    use rmt3d_workload::Benchmark;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rmt3d-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn one_job() -> JobSpec {
        SweepSpec::new(
            &[ProcessorModel::TwoDA],
            &[Benchmark::Gzip],
            RunScale {
                warmup_instructions: 2_000,
                instructions: 20_000,
                thermal_grid: 25,
            },
        )
        .expand()
        .remove(0)
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmp("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        let job = one_job();
        assert!(store.load(&job).is_none(), "empty store misses");
        let r = simulate(&job.cfg, job.benchmark);
        store.save(&job, &r).unwrap();
        let back = store.load(&job).expect("hit after save");
        assert_eq!(codec::encode(&back), codec::encode(&r));
        assert_eq!(store.len().unwrap(), 1);
        assert_eq!(
            store.stats(),
            CacheCounters {
                hits: 1,
                misses: 1,
                verify_failures: 0
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rendered_strings_escape_control_characters() {
        let v = JsonValue::Str("a\tb\n\u{1}\"\\".into());
        let text = render(&v);
        assert!(!text.chars().any(char::is_control), "{text:?}");
        assert_eq!(parse(&text).expect("rendered JSON parses"), v);
    }

    #[test]
    fn concurrent_saves_of_one_entry_all_succeed() {
        let dir = tmp("concurrent");
        let store = ResultStore::open(&dir).unwrap();
        let job = one_job();
        let r = simulate(&job.cfg, job.benchmark);
        let writers = 8;
        let start = std::sync::Barrier::new(writers);
        std::thread::scope(|s| {
            for _ in 0..writers {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..20 {
                        store
                            .save(&job, &r)
                            .expect("every concurrent save succeeds");
                    }
                });
            }
        });
        let back = store.load(&job).expect("the entry decodes");
        assert_eq!(codec::encode(&back), codec::encode(&r));
        let files = fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 1, "one entry, no temp files left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_entries_miss() {
        let dir = tmp("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        let job = one_job();
        let r = simulate(&job.cfg, job.benchmark);
        store.save(&job, &r).unwrap();

        // Truncate the entry: must degrade to a miss, not an error.
        let path = store.entry_path(&job);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(store.load(&job).is_none());

        // Same file name, different canonical key: collision guard.
        let fake = text.replace("|bench=gzip|", "|bench=mcf|");
        fs::write(&path, fake).unwrap();
        assert!(store.load(&job).is_none());
        let stats = store.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.verify_failures, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn usage_index_tracks_size_and_hits_and_survives_reopen() {
        let dir = tmp("index");
        let store = ResultStore::open(&dir).unwrap();
        let job = one_job();
        let r = simulate(&job.cfg, job.benchmark);
        store.save(&job, &r).unwrap();
        store.load(&job).unwrap();
        store.load(&job).unwrap();

        let name = format!("{:016x}.json", job.cache_key());
        let e = store.index_entry(&name).expect("entry indexed");
        assert_eq!(e.hits, 2);
        assert!(e.bytes > 0);
        assert!(e.last_used_unix_ms > 0);
        let disk = fs::metadata(store.entry_path(&job)).unwrap().len();
        assert_eq!(e.bytes, disk, "indexed size matches the file");

        store.flush_index().unwrap();
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.index_entry(&name), Some(e), "index persisted");
        assert_eq!(reopened.index_len(), 1);

        // The index file itself is not a cache entry.
        assert_eq!(reopened.len().unwrap(), 1);
        let (entries, bytes) = reopened.totals().unwrap();
        assert_eq!(entries, 1);
        assert_eq!(bytes, disk);

        // A corrupt index is discarded, not fatal.
        fs::write(dir.join(INDEX_FILE), "{not json").unwrap();
        let again = ResultStore::open(&dir).unwrap();
        assert_eq!(again.index_len(), 0);
        assert!(again.load(&job).is_some(), "entries unaffected");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Four synthetic 100-byte entries whose index stamps make the
    /// eviction order fully deterministic.
    fn seeded_store(dir: &Path) -> ResultStore {
        for name in ["aaaa.json", "bbbb.json", "cccc.json", "dddd.json"] {
            fs::create_dir_all(dir).unwrap();
            fs::write(dir.join(name), vec![b'x'; 100]).unwrap();
        }
        // cccc is oldest, then aaaa, then dddd; bbbb is unindexed and
        // therefore treated as least recently used of all.
        fs::write(
            dir.join(INDEX_FILE),
            concat!(
                "{\"aaaa.json\":{\"bytes\":100,\"last_used_unix_ms\":200,\"hits\":1},",
                "\"cccc.json\":{\"bytes\":100,\"last_used_unix_ms\":100,\"hits\":9},",
                "\"dddd.json\":{\"bytes\":100,\"last_used_unix_ms\":300,\"hits\":0}}",
            ),
        )
        .unwrap();
        ResultStore::open(dir).unwrap()
    }

    #[test]
    fn eviction_removes_least_recently_used_first() {
        let dir = tmp("evict-order");
        let store = seeded_store(&dir);

        // 400 bytes on disk; fitting 250 must drop the two LRU entries:
        // unindexed bbbb first, then cccc (oldest stamp). Hit counts do
        // not matter — cccc's 9 hits don't save it.
        let report = store.evict_to(250).unwrap();
        assert_eq!(report.evicted_entries, 2);
        assert_eq!(report.evicted_bytes, 200);
        assert_eq!(report.remaining_bytes, 200);
        assert!(!dir.join("bbbb.json").exists());
        assert!(!dir.join("cccc.json").exists());
        assert!(dir.join("aaaa.json").exists());
        assert!(dir.join("dddd.json").exists());

        // The pruned index was flushed and holds only the survivors.
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.index_len(), 2);
        assert!(reopened.index_entry("cccc.json").is_none());
        assert!(reopened.index_entry("aaaa.json").is_some());

        // Already within budget: a second pass is a no-op.
        let report = store.evict_to(250).unwrap();
        assert_eq!(
            report,
            EvictionReport {
                evicted_entries: 0,
                evicted_bytes: 0,
                remaining_bytes: 200,
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_tolerates_corrupt_index() {
        let dir = tmp("evict-corrupt");
        seeded_store(&dir);
        fs::write(dir.join(INDEX_FILE), "not an index at all").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        // With no usable recency data every entry is equally evictable;
        // a zero budget must still clear the disk without erroring.
        let report = store.evict_to(0).unwrap();
        assert_eq!(report.evicted_entries, 4);
        assert_eq!(report.remaining_bytes, 0);
        assert_eq!(store.totals().unwrap(), (0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_keeps_counters_consistent() {
        let dir = tmp("evict-counters");
        let store = ResultStore::open(&dir).unwrap();
        let job = one_job();
        let r = simulate(&job.cfg, job.benchmark);
        store.save(&job, &r).unwrap();
        store.load(&job).unwrap();
        let before = store.stats();
        assert_eq!(before.hits, 1);

        let report = store.evict_to(0).unwrap();
        assert_eq!(report.evicted_entries, 1);
        // Eviction itself is not a lookup: counters are untouched...
        assert_eq!(store.stats(), before);
        // ...and a load of the evicted entry is an ordinary miss.
        assert!(store.load(&job).is_none());
        let after = store.stats();
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.verify_failures, before.verify_failures);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `evict_to` racing a concurrent writer: the store may evict or
    /// keep any entry caught mid-race, but it must never error, never
    /// corrupt `index.json`, and a quiescent eviction pass must never
    /// claim an in-budget, just-written entry.
    #[test]
    fn eviction_racing_a_writer_keeps_the_store_consistent() {
        let dir = tmp("evict-race");
        let store = ResultStore::open(&dir).unwrap();
        let jobs = SweepSpec::new(
            &ProcessorModel::ALL,
            &[Benchmark::Gzip, Benchmark::Mcf],
            RunScale {
                warmup_instructions: 2_000,
                instructions: 20_000,
                thermal_grid: 25,
            },
        )
        .expand();
        let result = simulate(&jobs[0].cfg, jobs[0].benchmark);

        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for _ in 0..12 {
                    for job in &jobs {
                        store.save(job, &result).unwrap();
                    }
                }
            });
            // Hammer evictions (including mid-rename snapshots) while
            // the writer keeps repopulating the same keys.
            for _ in 0..40 {
                store.evict_to(0).unwrap();
            }
            writer.join().unwrap();
        });

        // Quiescent tail: clear the disk, write one entry, run an
        // eviction pass with room for it — the entry must survive.
        store.evict_to(0).unwrap();
        store.save(&jobs[0], &result).unwrap();
        let report = store.evict_to(u64::MAX).unwrap();
        assert_eq!(report.evicted_entries, 0, "in-budget entry evicted");
        assert!(
            store.load(&jobs[0]).is_some(),
            "just-written entry lost after eviction pass"
        );

        // The usage index survived the crossfire: it still parses on a
        // fresh open and still tracks the surviving entry.
        store.flush_index().unwrap();
        let reopened = ResultStore::open(&dir).unwrap();
        assert!(reopened.load(&jobs[0]).is_some());
        assert_eq!(reopened.len().unwrap(), 1);
        let name = store
            .entry_path(&jobs[0])
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        assert!(
            reopened.index_entry(&name).is_some(),
            "index.json lost the surviving entry"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
