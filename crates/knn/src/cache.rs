//! Disk cache for similarity graphs, backed by the on-disk CSR store.
//!
//! The experiment harness sweeps hundreds of `(partitions, rounds, α)`
//! configurations over the *same* k-NN graph; rebuilding a 50 k-point exact
//! graph each time would dominate the run. The cache persists the graph
//! plus its aligned utility vector as one `submod_core::store` file keyed
//! by an experiment-chosen name, and loads it back **memory-mapped**: a
//! cache hit costs one validation sweep instead of a rebuild, the CSR
//! arrays stay out of the process heap, and every shard of a distributed
//! run shares the same read-only mapping.
//!
//! Files written by the pre-store cache format (magic `SUBMODG1`) fail
//! validation with [`submod_core::GraphError::BadMagic`] and are rebuilt
//! transparently by [`load_or_build`].

use crate::KnnError;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use submod_core::SimilarityGraph;

/// Returns the default cache directory (`target/graph-cache` under the
/// workspace, or the system temp dir as fallback).
pub fn default_cache_dir() -> PathBuf {
    let target = Path::new("target");
    if target.exists() {
        target.join("graph-cache")
    } else {
        std::env::temp_dir().join("submod-graph-cache")
    }
}

/// Saves a graph and its aligned utility vector under `path` as a store
/// file.
///
/// # Errors
///
/// Returns an error if the file cannot be written or the utilities do not
/// align with the graph (count mismatch or non-finite values).
pub fn save_graph(path: &Path, graph: &SimilarityGraph, utilities: &[f32]) -> Result<(), KnnError> {
    graph.write_store_with_utilities(path, utilities)?;
    Ok(())
}

/// Loads a graph and utility vector previously written by [`save_graph`],
/// memory-mapping the CSR arrays.
///
/// # Errors
///
/// Returns an error if the file is missing, truncated, corrupt, or fails
/// CSR validation (see [`submod_core::GraphError`]).
pub fn load_graph(path: &Path) -> Result<(SimilarityGraph, Vec<f32>), KnnError> {
    let (graph, utilities) = SimilarityGraph::open_store_with_utilities(path)?;
    Ok((graph, utilities))
}

/// Loads the cache at `path` or builds and saves it with `build`.
///
/// Both paths return the **mapped** graph: after a cache miss the freshly
/// built graph is written to disk and reopened through the store, so a run
/// behaves identically whether or not the cache already existed.
///
/// # Errors
///
/// Propagates build and I/O errors; a corrupt cache file is rebuilt rather
/// than failing.
pub fn load_or_build<F>(path: &Path, build: F) -> Result<(SimilarityGraph, Vec<f32>), KnnError>
where
    F: FnOnce() -> Result<(SimilarityGraph, Vec<f32>), KnnError>,
{
    if path.exists() {
        match load_graph(path) {
            Ok(loaded) => {
                submod_obs::counter!("knn.cache.hits").incr();
                return Ok(loaded);
            }
            Err(_) => {
                // Corrupt or stale: fall through and rebuild.
                let _ = fs::remove_file(path);
            }
        }
    }
    submod_obs::counter!("knn.cache.misses").incr();
    let (graph, utilities) = build()?;
    // Concurrent misses on one key (parallel tests) may have the file
    // mapped already; rewriting it in place would truncate their mapping
    // (SIGBUS), so each writes a private file and renames it into place.
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let n = WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp-{}-{n}", std::process::id()));
    save_graph(&tmp, &graph, &utilities)?;
    fs::rename(&tmp, path)
        .map_err(|e| KnnError::Io { context: "renaming a graph cache file", source: e.into() })?;
    load_graph(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use submod_core::GraphBuilder;

    fn sample_graph() -> (SimilarityGraph, Vec<f32>) {
        let mut b = GraphBuilder::new(4);
        b.add_undirected(0, 1, 0.5).unwrap();
        b.add_undirected(2, 3, 0.25).unwrap();
        b.add_undirected(0, 3, 0.75).unwrap();
        (b.build(), vec![0.1, 0.2, 0.3, 0.4])
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("submod-cache-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip() {
        let (graph, utilities) = sample_graph();
        let path = temp_path("roundtrip.bin");
        save_graph(&path, &graph, &utilities).unwrap();
        let (loaded_graph, loaded_utilities) = load_graph(&path).unwrap();
        assert_eq!(loaded_graph, graph);
        assert_eq!(loaded_utilities, utilities);
        assert!(loaded_graph.is_mapped(), "cache hits must be zero-copy mapped");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mismatched_utilities_rejected() {
        let (graph, _) = sample_graph();
        let path = temp_path("mismatch.bin");
        assert!(save_graph(&path, &graph, &[0.0; 2]).is_err());
    }

    #[test]
    fn corrupt_file_is_detected() {
        let path = temp_path("corrupt.bin");
        fs::write(&path, b"definitely not a graph").unwrap();
        assert!(load_graph(&path).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn pre_store_cache_format_is_rejected() {
        // The old cache format started with SUBMODG1; it must surface as a
        // typed store error (and therefore be rebuilt by load_or_build).
        let path = temp_path("old-format.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SUBMODG1");
        bytes.extend_from_slice(&[0u8; 64]);
        fs::write(&path, &bytes).unwrap();
        match load_graph(&path) {
            Err(KnnError::Store(submod_core::GraphError::BadMagic { found })) => {
                assert_eq!(&found, b"SUBMODG1");
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_or_build_builds_once() {
        let path = temp_path("build-once.bin");
        let _ = fs::remove_file(&path);
        let mut builds = 0;
        let (g1, _) = load_or_build(&path, || {
            builds += 1;
            Ok(sample_graph())
        })
        .unwrap();
        let (g2, _) = load_or_build(&path, || {
            builds += 1;
            Ok(sample_graph())
        })
        .unwrap();
        assert_eq!(builds, 1, "second call must hit the cache");
        assert_eq!(g1, g2);
        assert!(g1.is_mapped() && g2.is_mapped(), "both paths must return the mapped graph");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_rebuild_leaves_mapped_copies_intact() {
        let path = temp_path("rebuild.bin");
        let _ = fs::remove_file(&path);
        let (graph, utilities) = sample_graph();
        let mut b = GraphBuilder::new(4);
        b.add_undirected(0, 1, 0.9).unwrap();
        b.add_undirected(2, 3, 0.8).unwrap();
        b.add_undirected(0, 3, 0.7).unwrap();
        let other = b.build();
        let mut first = None;
        load_or_build(&path, || {
            // A concurrent miss on the same key finishes first and maps
            // its file before this one writes.
            first = Some(load_or_build(&path, || Ok((graph.clone(), utilities.clone()))).unwrap());
            Ok((other.clone(), utilities.clone()))
        })
        .unwrap();
        assert_eq!(first.unwrap().0, graph, "the mapped copy must keep its bytes");
        assert_eq!(load_graph(&path).unwrap().0, other);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_or_build_recovers_from_corruption() {
        let path = temp_path("recover.bin");
        fs::write(&path, b"garbage").unwrap();
        let (graph, _) = load_or_build(&path, || Ok(sample_graph())).unwrap();
        assert_eq!(graph.num_nodes(), 4);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(load_graph(&temp_path("missing.bin")).is_err());
    }
}
