//! Failure injection: the engine must surface I/O and codec corruption as
//! errors instead of silently corrupting results.

use std::fs;
use submod_dataflow::{DataflowError, MemoryBudget, Pipeline};

/// Creates a pipeline whose spill files live in a directory we control.
///
/// Most tests inject corruption between a transform and its read-back,
/// which requires the spill files to exist up front, so they put a
/// `materialize()` barrier after the transform. The deferred read path is
/// covered by `fused_chain_surfaces_spill_errors` below.
fn pipeline_with_spill_dir(tag: &str) -> (Pipeline, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("submod-failure-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let pipeline = Pipeline::builder()
        .workers(2)
        .memory_budget(MemoryBudget::bytes(256))
        .spill_dir(&dir)
        .build()
        .unwrap();
    (pipeline, dir)
}

/// Finds every spill file under the pipeline's unique spill directory.
fn spill_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap().flatten() {
        if entry.path().is_dir() {
            out.extend(spill_files(&entry.path()));
        } else if entry.path().extension().is_some_and(|e| e == "bin") {
            out.push(entry.path());
        }
    }
    out
}

#[test]
fn truncated_spill_file_is_reported() {
    let (pipeline, dir) = pipeline_with_spill_dir("truncate");
    let pc = pipeline.from_vec((0u64..2000).collect()).map(|x| x).unwrap().materialize().unwrap();
    let files = spill_files(&dir);
    assert!(!files.is_empty(), "tiny budget must have spilled");
    // Chop every spill file in half: reads must fail, not fabricate data.
    for f in &files {
        let data = fs::read(f).unwrap();
        fs::write(f, &data[..data.len() / 2]).unwrap();
    }
    let err = pc.collect().unwrap_err();
    assert!(matches!(err, DataflowError::Io { .. } | DataflowError::Codec { .. }), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_spill_content_is_reported() {
    let (pipeline, dir) = pipeline_with_spill_dir("garbage");
    let pc = pipeline
        .from_vec((0u64..2000).map(|i| (i, format!("value-{i}"))).collect::<Vec<_>>())
        .map(|x| x)
        .unwrap()
        .materialize()
        .unwrap();
    let files = spill_files(&dir);
    assert!(!files.is_empty());
    for f in &files {
        let len = fs::metadata(f).unwrap().len() as usize;
        // Keep the length, destroy the contents: framing reads a bogus
        // record length or the string codec hits invalid UTF-8.
        fs::write(f, vec![0xFFu8; len]).unwrap();
    }
    let err = pc.collect().unwrap_err();
    assert!(matches!(err, DataflowError::Io { .. } | DataflowError::Codec { .. }), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deleted_spill_file_is_reported() {
    let (pipeline, dir) = pipeline_with_spill_dir("delete");
    let pc =
        pipeline.from_vec((0u64..2000).collect()).map(|x| x + 1).unwrap().materialize().unwrap();
    for f in spill_files(&dir) {
        fs::remove_file(f).unwrap();
    }
    let err = pc.collect().unwrap_err();
    assert!(matches!(err, DataflowError::Io { .. }), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn errors_propagate_through_downstream_transforms() {
    let (pipeline, dir) = pipeline_with_spill_dir("downstream");
    let pc = pipeline.from_vec((0u64..2000).collect()).map(|x| x).unwrap().materialize().unwrap();
    for f in spill_files(&dir) {
        fs::remove_file(f).unwrap();
    }
    // A transform over the broken collection defers, so it reads nothing;
    // the barrier downstream of it fails (not just a collect of `pc`).
    assert!(pc.filter(|_| true).unwrap().count().is_err());
    assert!(pc.map(|x| x).unwrap().collect().is_err());
    let grouped = pc.map(|x| (x % 10, x)).and_then(|kv| kv.group_by_key());
    assert!(grouped.is_err());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fused_chain_surfaces_spill_errors() {
    // A deferred chain streams source shards at the barrier — corruption
    // of a spilled *source* must still surface as an error from the
    // barrier, not from the (deferred) transform calls.
    let (pipeline, dir) = pipeline_with_spill_dir("fused");
    let source = pipeline.generate(2000u64, |i| i).unwrap();
    let files = spill_files(&dir);
    assert!(!files.is_empty(), "tiny budget must have spilled the source");
    for f in &files {
        let data = fs::read(f).unwrap();
        fs::write(f, &data[..data.len() / 2]).unwrap();
    }
    // Deferred transforms succeed (nothing executes yet)...
    let chained = source.map(|x| x + 1).unwrap().filter(|&x| x > 0).unwrap();
    // ...but the barrier reads the truncated files and reports it.
    let err = chained.collect().unwrap_err();
    assert!(matches!(err, DataflowError::Io { .. } | DataflowError::Codec { .. }), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unaffected_pipelines_keep_working() {
    // Sanity: corruption of one pipeline's spill dir must not leak into an
    // independent pipeline.
    let (broken, dir) = pipeline_with_spill_dir("isolated");
    let broken_pc =
        broken.from_vec((0u64..2000).collect()).map(|x| x).unwrap().materialize().unwrap();
    for f in spill_files(&dir) {
        fs::remove_file(f).unwrap();
    }
    assert!(broken_pc.collect().is_err());

    let healthy = Pipeline::new(2).unwrap();
    let out = healthy.from_vec(vec![1u64, 2, 3]).map(|x| x * 2).unwrap().collect().unwrap();
    assert_eq!(out.len(), 3);
    let _ = fs::remove_dir_all(&dir);
}
