//! `status.json` must always be a complete, parseable document, no
//! matter when a reader samples it — that is the whole point of the
//! temp-file + rename write protocol. Hammer one path with concurrent
//! writers while readers poll, and require every successful read to
//! parse and carry a coherent run id.

use rmt3d_obs::durable::write_atomic;
use rmt3d_obs::RunStatus;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rmt3d-conc-{tag}-{}.json", std::process::id()))
}

#[test]
fn concurrent_writers_never_expose_a_torn_status() {
    let path = temp_path("torn");
    let _ = std::fs::remove_file(&path);
    let stop = Arc::new(AtomicBool::new(false));
    const WRITERS: usize = 4;
    const WRITES_PER_WRITER: usize = 200;

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let path = path.clone();
            scope.spawn(move || {
                for i in 0..WRITES_PER_WRITER {
                    let mut status = RunStatus::new(&format!("writer-{w}"), "sweep", 64);
                    status.done = i as u64;
                    // Long labels make torn writes likely to surface if
                    // the protocol were broken.
                    for j in 0..64 {
                        status.labels[j] = format!("cfg-{w}-{i}-{j}-{}", "x".repeat(50));
                    }
                    write_atomic(&path, &status.to_json()).unwrap();
                }
            });
        }
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let path = path.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // A reader may race the very first rename; only
                        // an existing file must parse.
                        let Ok(text) = std::fs::read_to_string(&path) else {
                            continue;
                        };
                        let status = RunStatus::from_json(&text)
                            .unwrap_or_else(|e| panic!("torn status.json ({e}): {text:.120}"));
                        assert!(status.run_id.starts_with("writer-"));
                        assert_eq!(status.labels.len(), 64);
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();
        // Writers run to completion while readers poll, then stop the
        // readers. (Scoped threads join writers implicitly, but the
        // stop flag must flip before the scope can end.)
        for _ in 0..WRITERS {} // writers joined by scope exit below
                               // Give readers work for as long as writers are alive: wait for
                               // the final document to show the last write.
        loop {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Ok(s) = RunStatus::from_json(&text) {
                    if s.done == (WRITES_PER_WRITER - 1) as u64 {
                        break;
                    }
                }
            }
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(reads > 0, "readers never observed the file");
    });

    // No temp droppings: the directory holds only the final document.
    let dir = path.parent().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            let stem = path.file_name().unwrap().to_string_lossy().into_owned();
            (name.contains(&stem) && name != stem).then_some(name)
        })
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_file(&path);
}
