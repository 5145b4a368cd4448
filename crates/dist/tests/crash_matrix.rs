//! Crash matrix: a journaled run killed at **every** record boundary —
//! and at torn mid-append offsets just past each boundary — must resume
//! to a bitwise-identical selection (same ids, same order, same
//! objective-value bits) as a run that never died. The matrix covers
//! the multi-round greedy on both drivers (in-memory and dataflow) and
//! the full pipeline, 1 and 8 pool threads, the owned and the mmap-backed
//! graph store, cross-driver resume (crash under one driver, resume under
//! the other), and — via a re-exec'd subprocess with
//! `SUBMOD_FAULTS=crash-round-N` — a real `process::abort()` at a round
//! boundary. The run header's fingerprints are pinned, so journals
//! written by earlier builds keep resuming.
//!
//! Resume against a journal written by a *different* configuration (or
//! a different algorithm, or a non-journal file) must be refused with a
//! typed error, never spliced into a wrong answer.

use std::fs;
use std::path::{Path, PathBuf};
use submod_core::{GraphBuilder, NodeId, PairwiseObjective, Selection, SimilarityGraph};
use submod_dataflow::Pipeline;
use submod_dist::{
    distributed_greedy, distributed_greedy_dataflow_journaled, distributed_greedy_journaled,
    select_subset, select_subset_journaled, BoundingConfig, DistGreedyConfig, PipelineConfig,
    SamplingStrategy,
};
use submod_exec::with_threads;
use submod_journal::HEADER_LEN;

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// A deterministic pseudo-random instance (splitmix-style weights).
fn instance(n: usize, seed: u64) -> (SimilarityGraph, PairwiseObjective) {
    let mut b = GraphBuilder::new(n);
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    for v in 0..n as u64 {
        for _ in 0..3 {
            let w = next() % n as u64;
            if w != v {
                let s = 0.05 + (next() % 900) as f32 / 1000.0;
                b.add_undirected(v, w, s).expect("edge");
            }
        }
    }
    let graph = b.build();
    let utilities: Vec<f32> = (0..n).map(|_| 0.1 + (next() % 900) as f32 / 1000.0).collect();
    let objective = PairwiseObjective::from_alpha(0.85, utilities).expect("objective");
    (graph, objective)
}

fn ground(n: usize) -> Vec<NodeId> {
    (0..n).map(NodeId::from_index).collect()
}

/// Writes `graph` to a temp store and reopens it memory-mapped.
fn mapped_copy(graph: &SimilarityGraph, name: &str) -> SimilarityGraph {
    let path = std::env::temp_dir().join(format!("submod-crash-{}-{name}.csr", std::process::id()));
    graph.write_store(&path).expect("write store");
    let mapped = SimilarityGraph::open_store(&path).expect("open store");
    let _ = std::fs::remove_file(&path); // the live mapping keeps it readable
    assert!(mapped.is_mapped());
    mapped
}

fn temp_journal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("submod-crash-{}-{name}.wal", std::process::id()))
}

/// Removes its file on drop so a failing assertion doesn't leak journals
/// into the temp directory.
struct FileGuard(PathBuf);

impl Drop for FileGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// Every prefix length at which the journal is a valid sequence of
/// complete frames: the bare header, then after each `[len][payload]
/// [checksum]` frame. Asserts the file itself ends on a boundary — a
/// journal that syncs at record boundaries never ends mid-frame unless
/// the process died mid-append.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    assert!(bytes.len() >= HEADER_LEN, "journal shorter than its header");
    let mut ends = vec![HEADER_LEN];
    let mut off = HEADER_LEN;
    while off + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        let end = off + 4 + len + 8;
        if end > bytes.len() {
            break;
        }
        ends.push(end);
        off = end;
    }
    assert_eq!(off, bytes.len(), "journal must end on a frame boundary");
    ends
}

/// Selected ids in order plus the objective value's exact bits.
type Fingerprint = (Vec<u64>, u64);

fn fingerprint(selection: &Selection) -> Fingerprint {
    (selection.selected().iter().map(|v| v.raw()).collect(), selection.objective_value().to_bits())
}

/// The kill-and-resume matrix for one journaled entry point: a baseline
/// run on a fresh journal, then for every boundary prefix — and a torn
/// tail five bytes past it — rewrite the journal, resume, and demand the
/// baseline fingerprint. The last boundary is the complete file, so a
/// "resume" of a finished run (a pure replay) is covered too.
fn crash_matrix(name: &str, min_frames: usize, run: impl Fn(&Path) -> Fingerprint) -> Fingerprint {
    let path = temp_journal(name);
    let _guard = FileGuard(path.clone());
    let _ = fs::remove_file(&path);
    let baseline = run(&path);
    let bytes = fs::read(&path).expect("read baseline journal");
    let boundaries = frame_boundaries(&bytes);
    assert!(
        boundaries.len() > min_frames,
        "{name}: expected more than {min_frames} frames, found {}",
        boundaries.len() - 1
    );
    for (i, &end) in boundaries.iter().enumerate() {
        fs::write(&path, &bytes[..end]).expect("truncate to boundary");
        let resumed = run(&path);
        assert_eq!(
            resumed,
            baseline,
            "{name}: resume from boundary {i} ({end} of {} bytes) diverged",
            bytes.len()
        );
        // A crash mid-append leaves a torn frame; replay must truncate it
        // and land back on this boundary.
        let torn = (end + 5).min(bytes.len());
        if torn > end {
            fs::write(&path, &bytes[..torn]).expect("write torn tail");
            let resumed = run(&path);
            assert_eq!(
                resumed, baseline,
                "{name}: resume from torn tail past boundary {i} diverged"
            );
        }
    }
    baseline
}

#[test]
fn multiround_in_memory_resumes_bitwise_identically() {
    let (graph, objective) = instance(90, 17);
    let g = ground(90);
    let config = DistGreedyConfig::new(4, 3).expect("config").seed(11).adaptive(true);
    // The journaled run must also match the plain (never-journaled) one.
    let plain = distributed_greedy(&graph, &objective, &g, 15, &config).expect("plain");
    for &threads in &THREAD_COUNTS {
        // RunStart + 3 rounds + RunComplete = 5 frames.
        let baseline = crash_matrix(&format!("mem-{threads}"), 4, |path| {
            with_threads(threads, || {
                let (report, _) =
                    distributed_greedy_journaled(&graph, &objective, &g, 15, &config, path)
                        .expect("journaled run");
                fingerprint(&report.selection)
            })
        });
        assert_eq!(baseline, fingerprint(&plain.selection), "journaling perturbed the selection");
    }
}

#[test]
fn multiround_dataflow_resumes_bitwise_identically() {
    let (graph, objective) = instance(90, 17);
    let g = ground(90);
    let config = DistGreedyConfig::new(4, 3).expect("config").seed(11).adaptive(true);
    for &threads in &THREAD_COUNTS {
        crash_matrix(&format!("df-{threads}"), 4, |path| {
            with_threads(threads, || {
                let pipeline = Pipeline::new(3).expect("pipeline");
                let (report, _) = distributed_greedy_dataflow_journaled(
                    &pipeline, &graph, &objective, &g, 15, &config, path,
                )
                .expect("journaled dataflow run");
                fingerprint(&report.selection)
            })
        });
    }
}

/// The journal fingerprint excludes the driver kind: a run may crash
/// under one driver and resume under the other, still bit-identical.
#[test]
fn crash_under_one_driver_resumes_under_the_other() {
    let (graph, objective) = instance(80, 23);
    let g = ground(80);
    let config = DistGreedyConfig::new(3, 3).expect("config").seed(5);
    let path = temp_journal("cross");
    let _guard = FileGuard(path.clone());
    let _ = fs::remove_file(&path);

    let (mem, _) =
        distributed_greedy_journaled(&graph, &objective, &g, 12, &config, &path).expect("baseline");
    let baseline = fingerprint(&mem.selection);
    let bytes = fs::read(&path).expect("read journal");
    for (i, &end) in frame_boundaries(&bytes).iter().enumerate() {
        fs::write(&path, &bytes[..end]).expect("truncate");
        let pipeline = Pipeline::new(2).expect("pipeline");
        let (df, _) = distributed_greedy_dataflow_journaled(
            &pipeline, &graph, &objective, &g, 12, &config, &path,
        )
        .expect("dataflow resume");
        assert_eq!(
            fingerprint(&df.selection),
            baseline,
            "in-memory crash at boundary {i} resumed under dataflow diverged"
        );
    }

    // The other direction: crash under dataflow, resume in memory.
    let _ = fs::remove_file(&path);
    let pipeline = Pipeline::new(2).expect("pipeline");
    let (df, _) = distributed_greedy_dataflow_journaled(
        &pipeline, &graph, &objective, &g, 12, &config, &path,
    )
    .expect("dataflow baseline");
    assert_eq!(fingerprint(&df.selection), baseline, "drivers must agree before the matrix");
    let bytes = fs::read(&path).expect("read journal");
    let boundaries = frame_boundaries(&bytes);
    for &end in &[boundaries[1], boundaries[boundaries.len() / 2]] {
        fs::write(&path, &bytes[..end]).expect("truncate");
        let (mem, _) = distributed_greedy_journaled(&graph, &objective, &g, 12, &config, &path)
            .expect("in-memory resume");
        assert_eq!(
            fingerprint(&mem.selection),
            baseline,
            "dataflow crash resumed in memory diverged"
        );
    }
}

#[test]
fn full_pipeline_resumes_bitwise_identically() {
    let (graph, objective) = instance(80, 31);
    for (tag, bounding) in [
        ("exact", BoundingConfig::exact()),
        ("approx", BoundingConfig::approximate(0.5, SamplingStrategy::Uniform, 3).expect("config")),
    ] {
        let config = PipelineConfig::with_bounding(
            bounding,
            DistGreedyConfig::new(3, 2).expect("config").seed(7),
        );
        let plain = select_subset(&graph, &objective, 14, &config).expect("plain pipeline");
        // RunStart + ≥1 bounding cycle + BoundingDone + greedy rounds +
        // RunComplete.
        let baseline = crash_matrix(&format!("pipeline-{tag}"), 4, |path| {
            let outcome =
                select_subset_journaled(&graph, &objective, 14, &config, path).expect("pipeline");
            fingerprint(&outcome.selection)
        });
        assert_eq!(baseline, fingerprint(&plain.selection), "journaling perturbed the pipeline");
    }
}

/// The whole matrix holds over the mmap-backed graph store, and the
/// mapped baseline equals the owned one.
#[test]
fn mapped_store_resumes_bitwise_identically() {
    let (graph, objective) = instance(90, 53);
    let mapped = mapped_copy(&graph, "journal");
    let g = ground(90);
    let config = DistGreedyConfig::new(4, 3).expect("config").seed(29).adaptive(true);
    let owned = crash_matrix("owned", 4, |path| {
        let (report, _) = distributed_greedy_journaled(&graph, &objective, &g, 12, &config, path)
            .expect("owned run");
        fingerprint(&report.selection)
    });
    let over_map = crash_matrix("mapped", 4, |path| {
        let (report, _) = distributed_greedy_journaled(&mapped, &objective, &g, 12, &config, path)
            .expect("mapped run");
        fingerprint(&report.selection)
    });
    assert_eq!(owned, over_map, "the mapped store diverged from the owned graph");
}

/// Resuming against the wrong journal is refused, never spliced.
#[test]
fn mismatched_resume_is_refused() {
    let (graph, objective) = instance(40, 3);
    let g = ground(40);
    let config = DistGreedyConfig::new(2, 2).expect("config").seed(1);
    let path = temp_journal("mismatch");
    let _guard = FileGuard(path.clone());
    let _ = fs::remove_file(&path);
    distributed_greedy_journaled(&graph, &objective, &g, 8, &config, &path).expect("baseline");

    // A different budget.
    let err = distributed_greedy_journaled(&graph, &objective, &g, 9, &config, &path)
        .expect_err("k changed");
    assert!(err.to_string().contains("different run configuration"), "got: {err}");
    // A different seed.
    let err =
        distributed_greedy_journaled(&graph, &objective, &g, 8, &config.clone().seed(2), &path)
            .expect_err("seed changed");
    assert!(err.to_string().contains("different run configuration"), "got: {err}");
    // A different algorithm against the same journal.
    let err = select_subset_journaled(
        &graph,
        &objective,
        8,
        &PipelineConfig::greedy_only(config.clone()),
        &path,
    )
    .expect_err("algorithm changed");
    assert!(err.to_string().contains("different run configuration"), "got: {err}");
    // The matching configuration still replays cleanly after all refusals.
    distributed_greedy_journaled(&graph, &objective, &g, 8, &config, &path)
        .expect("original configuration still resumes");

    // A file that is not a journal at all: typed error, file untouched.
    fs::write(&path, b"definitely not a journal").expect("write garbage");
    assert!(
        distributed_greedy_journaled(&graph, &objective, &g, 8, &config, &path).is_err(),
        "garbage accepted as a journal"
    );
    assert_eq!(fs::read(&path).expect("reread").as_slice(), b"definitely not a journal");
}

/// The run header is part of the on-disk format: a journal written by an
/// earlier build must still resume, so the algorithm tag and fingerprint
/// of one greedy and one pipeline configuration are pinned.
#[test]
fn run_start_fingerprints_are_pinned() {
    let (graph, objective) = instance(40, 3);
    let greedy = DistGreedyConfig::new(3, 2).expect("config").seed(5).adaptive(true);
    let pipeline = PipelineConfig::with_bounding(
        BoundingConfig::approximate(0.5, SamplingStrategy::Weighted, 3).expect("config"),
        greedy.clone(),
    );
    let path = temp_journal("pinned-header");
    let _guard = FileGuard(path.clone());
    let header = |path: &Path| match submod_journal::replay(path).expect("replay").records.first() {
        Some(&submod_journal::Record::RunStart { algorithm, fingerprint, .. }) => {
            (algorithm, fingerprint)
        }
        other => panic!("the journal does not start with a run header: {other:?}"),
    };

    let _ = fs::remove_file(&path);
    distributed_greedy_journaled(&graph, &objective, &ground(40), 8, &greedy, &path)
        .expect("greedy run");
    assert_eq!(header(&path), (1, 0xC933_CAA6_1E08_B50D));

    let _ = fs::remove_file(&path);
    select_subset_journaled(&graph, &objective, 8, &pipeline, &path).expect("pipeline run");
    assert_eq!(header(&path), (3, 0x567C_935C_00E8_ED46));
}

/// End-to-end: a subprocess under `SUBMOD_FAULTS=crash-round-2` really
/// aborts right after round 2's fsync; the journal it leaves behind ends
/// on a frame boundary with exactly RunStart + two round records, and a
/// resume completes bit-identically to a run that never crashed.
#[test]
fn injected_crash_round_abort_then_resume() {
    let path = std::env::var_os("CRASH_MATRIX_JOURNAL")
        .map(PathBuf::from)
        .unwrap_or_else(|| temp_journal("abort"));
    let (graph, objective) = instance(60, 71);
    let g = ground(60);
    let config = DistGreedyConfig::new(3, 4).expect("config").seed(13);

    if std::env::var_os("CRASH_MATRIX_CHILD").is_some() {
        // Child: this call must abort the process after round 2. If the
        // injection misfires the run completes, the child exits cleanly,
        // and the parent's !success assertion catches it.
        let _ = distributed_greedy_journaled(&graph, &objective, &g, 12, &config, &path);
        return;
    }

    let _guard = FileGuard(path.clone());
    let _ = fs::remove_file(&path);
    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(&exe)
        .args(["injected_crash_round_abort_then_resume", "--exact", "--test-threads=1"])
        .env("CRASH_MATRIX_CHILD", "1")
        .env("CRASH_MATRIX_JOURNAL", &path)
        .env("SUBMOD_FAULTS", "crash-round-2")
        .status()
        .expect("spawn crash child");
    assert!(!status.success(), "the child must die at the injected crash point");

    let bytes = fs::read(&path).expect("the aborted run left a journal");
    // frame_boundaries itself asserts the abort landed on a boundary.
    let frames = frame_boundaries(&bytes).len() - 1;
    assert_eq!(frames, 3, "expected RunStart + rounds 1 and 2, found {frames} frames");

    let (resumed, _) = distributed_greedy_journaled(&graph, &objective, &g, 12, &config, &path)
        .expect("resume after the abort");
    let clean_path = temp_journal("abort-clean");
    let _guard2 = FileGuard(clean_path.clone());
    let _ = fs::remove_file(&clean_path);
    let (clean, _) = distributed_greedy_journaled(&graph, &objective, &g, 12, &config, &clean_path)
        .expect("clean run");
    assert_eq!(
        fingerprint(&resumed.selection),
        fingerprint(&clean.selection),
        "resume after a real abort diverged from the never-crashed run"
    );
}
