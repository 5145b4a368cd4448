//! The spill bytes the engine reports are the bytes its spill files
//! occupy on disk. This binary holds one test so the process-wide
//! `dataflow.spill.bytes_written` counter moves only for this pipeline.

use std::fs;
use std::path::{Path, PathBuf};
use submod_dataflow::{MemoryBudget, Pipeline};

fn spill_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap().flatten() {
        if entry.path().is_dir() {
            out.extend(spill_files(&entry.path()));
        } else {
            out.push(entry.path());
        }
    }
    out
}

#[test]
fn reported_spill_bytes_are_the_bytes_on_disk() {
    let dir = std::env::temp_dir().join(format!("submod-spill-bytes-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let written = submod_obs::counter("dataflow.spill.bytes_written");
    let before = written.value();
    let pipeline = Pipeline::builder()
        .workers(2)
        .memory_budget(MemoryBudget::bytes(256))
        .spill_dir(&dir)
        .fusion(false)
        .build()
        .unwrap();
    // Variable-width records spill as length-prefixed frames, fixed-width
    // ones as raw columns.
    let framed = pipeline
        .from_vec((0u64..500).map(|i| (i, format!("value-{i}"))).collect::<Vec<_>>())
        .map(|x| x)
        .unwrap();
    let columnar = pipeline.from_vec((0u64..500).collect()).map(|x| x * 2).unwrap();

    let on_disk: u64 = spill_files(&dir).iter().map(|f| fs::metadata(f).unwrap().len()).sum();
    let metrics = pipeline.metrics();
    assert!(metrics.spill_files >= 2, "both collections must have spilled");
    assert_eq!(metrics.bytes_spilled, on_disk);
    assert_eq!(written.value() - before, on_disk);
    assert_eq!(framed.count().unwrap() + columnar.count().unwrap(), 1000);
    let _ = fs::remove_dir_all(&dir);
}
