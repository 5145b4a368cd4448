//! Deterministic fault-injection suite over the selection stack:
//!
//! - **transient-io** — every instrumented I/O site (journal appends,
//!   spill open/write/read, store opens) fails once and is retried with
//!   bounded backoff; the run completes with the exact same selection it
//!   would have produced fault-free, and the `faults.retries` counter
//!   proves the degradation was observed, not silent.
//! - **permanent-io** — a poisoned site surfaces as a *typed* error
//!   (`DistError`, marker in the chain), never a panic or a wrong answer.
//! - **mmap-open** — mapping failures degrade to the owned-buffer
//!   fallback, recorded in `store.mmap_open_fallbacks`, with bit-equal
//!   graph contents.
//! - **panic** — a seeded panic in an exec region unwinds carrying the
//!   injected marker and is containable by `catch_unwind`.
//! - RAII cleanup — a run killed by an injected fault (error *or* panic)
//!   leaks no spill files: its spill directory is empty afterwards.

use std::fs;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use submod_core::{GraphBuilder, NodeId, PairwiseObjective, SimilarityGraph};
use submod_dataflow::{MemoryBudget, Pipeline};
use submod_dist::{
    distributed_greedy, distributed_greedy_dataflow, distributed_greedy_dataflow_journaled,
    distributed_greedy_journaled, DistGreedyConfig,
};
use submod_obs::faults::{self, FaultMode, FaultPlan, INJECTED_MARKER};

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
    (graph, PairwiseObjective::from_alpha(0.85, utilities).expect("objective"))
}

fn ground(n: usize) -> Vec<NodeId> {
    (0..n).map(NodeId::from_index).collect()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("submod-faultinj-{}-{name}", std::process::id()))
}

fn fingerprint(selection: &submod_core::Selection) -> (Vec<u64>, u64) {
    (selection.selected().iter().map(|v| v.raw()).collect(), selection.objective_value().to_bits())
}

/// Every error in the chain, concatenated — injected faults carry
/// [`INJECTED_MARKER`] somewhere in there.
fn error_chain(err: &dyn std::error::Error) -> String {
    let mut out = err.to_string();
    let mut cursor = err.source();
    while let Some(inner) = cursor {
        out.push_str(" / ");
        out.push_str(&inner.to_string());
        cursor = inner.source();
    }
    out
}

#[test]
fn transient_io_is_retried_to_the_fault_free_answer() {
    let (graph, objective) = instance(70, 7);
    let g = ground(70);
    let config = DistGreedyConfig::new(3, 2).expect("config").seed(3);
    // The fault-free answer, computed under the inert plan (and the plan
    // lock, so a concurrent test's seeded panic cannot land here).
    let expected = {
        let _off = faults::override_plan(FaultPlan::off());
        fingerprint(
            &distributed_greedy(&graph, &objective, &g, 10, &config).expect("plain").selection,
        )
    };

    let retries_before = submod_obs::counter("faults.retries").value();
    let injected_before = submod_obs::counter("faults.injected").value();
    let _guard = faults::override_plan(FaultPlan {
        mode: FaultMode::TransientIo,
        seed: 0xFA17,
        rate: 1.0, // every first attempt at every site fails
    });

    // In-memory driver + journal: every append/sync is retried once.
    let journal = temp_path("transient.wal");
    let _ = fs::remove_file(&journal);
    let (report, _) = distributed_greedy_journaled(&graph, &objective, &g, 10, &config, &journal)
        .expect("transient faults must be survivable");
    assert_eq!(fingerprint(&report.selection), expected, "retries changed the selection");

    // Dataflow driver with a tiny budget: spill open/write/read all fault
    // and retry too.
    let pipeline = Pipeline::builder()
        .workers(2)
        .memory_budget(MemoryBudget::bytes(256))
        .build()
        .expect("pipeline");
    let journal_df = temp_path("transient-df.wal");
    let _ = fs::remove_file(&journal_df);
    let (df, _) = distributed_greedy_dataflow_journaled(
        &pipeline,
        &graph,
        &objective,
        &g,
        10,
        &config,
        &journal_df,
    )
    .expect("transient faults must be survivable under dataflow");
    assert_eq!(fingerprint(&df.selection), expected, "dataflow retries changed the selection");
    assert!(pipeline.metrics().spill_files > 0, "the tiny budget must actually spill");

    assert!(
        submod_obs::counter("faults.retries").value() > retries_before,
        "retries must be charged to the faults.retries counter"
    );
    assert!(
        submod_obs::counter("faults.injected").value() > injected_before,
        "injections must be charged to the faults.injected counter"
    );
    let _ = fs::remove_file(&journal);
    let _ = fs::remove_file(&journal_df);
}

#[test]
fn permanent_io_surfaces_as_a_typed_error() {
    let (graph, objective) = instance(50, 11);
    let g = ground(50);
    let config = DistGreedyConfig::new(2, 2).expect("config").seed(1);
    let _guard = faults::override_plan(FaultPlan {
        mode: FaultMode::PermanentIo,
        seed: 5,
        rate: 1.0, // the first gated site poisons immediately
    });

    // Journaled in-memory run: the journal write is the poisoned site.
    let journal = temp_path("permanent.wal");
    let _ = fs::remove_file(&journal);
    let err = distributed_greedy_journaled(&graph, &objective, &g, 8, &config, &journal)
        .expect_err("a poisoned journal must fail the run");
    assert!(
        error_chain(&err).contains(INJECTED_MARKER),
        "the injected fault must be visible in the error chain, got: {}",
        error_chain(&err)
    );

    // Dataflow run with spills: the spill site is the poisoned one.
    let pipeline = Pipeline::builder()
        .workers(2)
        .memory_budget(MemoryBudget::bytes(128))
        .build()
        .expect("pipeline");
    let err = distributed_greedy_dataflow(&pipeline, &graph, &objective, &g, 8, &config)
        .expect_err("a poisoned spill must fail the run");
    assert!(
        error_chain(&err).contains(INJECTED_MARKER),
        "the injected fault must be visible in the error chain, got: {}",
        error_chain(&err)
    );
    let _ = fs::remove_file(&journal);
}

#[test]
fn mmap_open_degrades_to_the_owned_fallback() {
    let (graph, _) = instance(50, 9);
    let store = temp_path("fallback.csr");
    graph.write_store(&store).expect("write store");

    let fallbacks_before = submod_obs::counter("store.mmap_open_fallbacks").value();
    let owned_before = submod_obs::counter("mman.owned_reads").value();
    let reopened = {
        let _guard = faults::override_plan(FaultPlan {
            mode: FaultMode::MmapOpen,
            seed: 0xFA17,
            rate: 0.02,
        });
        SimilarityGraph::open_store(&store).expect("the owned fallback must keep the open alive")
    };
    assert!(
        submod_obs::counter("store.mmap_open_fallbacks").value() > fallbacks_before,
        "the fallback must be recorded in store.mmap_open_fallbacks"
    );
    assert!(
        submod_obs::counter("mman.owned_reads").value() > owned_before,
        "the owned read must be recorded in mman.owned_reads"
    );

    // Degraded, not different: the CSR arrays are bit-equal.
    let (o1, n1, w1) = graph.csr_parts();
    let (o2, n2, w2) = reopened.csr_parts();
    assert_eq!(o1, o2);
    assert_eq!(n1, n2);
    assert_eq!(w1.len(), w2.len());
    for (a, b) in w1.iter().zip(w2.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "weight bits must survive the fallback");
    }
    let _ = fs::remove_file(&store);
}

#[test]
fn injected_panic_carries_the_marker_and_is_containable() {
    let (graph, objective) = instance(40, 13);
    let g = ground(40);
    let config = DistGreedyConfig::new(2, 1).expect("config").seed(2);
    let _guard = faults::override_plan(FaultPlan { mode: FaultMode::Panic, seed: 1, rate: 1.0 });

    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        distributed_greedy(&graph, &objective, &g, 6, &config)
    }));
    let payload = result.expect_err("rate 1.0 must panic in the first exec region");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains(INJECTED_MARKER),
        "the panic payload must carry the injected marker, got: {message}"
    );
}

/// A run killed by an injected fault — typed error or panic — leaks no
/// spill files: once the pipeline is dropped its spill directory is gone
/// from the base directory entirely.
#[test]
fn aborted_runs_leak_no_spill_files() {
    let (graph, objective) = instance(60, 21);
    let g = ground(60);
    let config = DistGreedyConfig::new(3, 2).expect("config").seed(4);

    // Error path: a poisoned spill site kills the run mid-spill.
    let base = temp_path("spill-raii-err");
    fs::create_dir_all(&base).expect("create base dir");
    {
        let pipeline = Pipeline::builder()
            .workers(2)
            .memory_budget(MemoryBudget::bytes(128))
            .spill_dir(&base)
            .build()
            .expect("pipeline");
        let _guard =
            faults::override_plan(FaultPlan { mode: FaultMode::PermanentIo, seed: 5, rate: 1.0 });
        let result = distributed_greedy_dataflow(&pipeline, &graph, &objective, &g, 10, &config);
        assert!(result.is_err(), "the poisoned spill must fail the run");
    }
    let leaked: Vec<_> = fs::read_dir(&base).expect("read base dir").collect();
    assert!(leaked.is_empty(), "error path leaked spill state: {leaked:?}");
    let _ = fs::remove_dir_all(&base);

    // Panic path: an injected panic unwinds through the running pipeline.
    let base = temp_path("spill-raii-panic");
    fs::create_dir_all(&base).expect("create base dir");
    {
        let pipeline = Pipeline::builder()
            .workers(2)
            .memory_budget(MemoryBudget::bytes(128))
            .spill_dir(&base)
            .build()
            .expect("pipeline");
        let _guard =
            faults::override_plan(FaultPlan { mode: FaultMode::Panic, seed: 1, rate: 1.0 });
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            distributed_greedy_dataflow(&pipeline, &graph, &objective, &g, 10, &config)
        }));
        assert!(result.is_err(), "rate 1.0 must panic inside the pipeline");
    }
    let leaked: Vec<_> = fs::read_dir(&base).expect("read base dir").collect();
    assert!(leaked.is_empty(), "panic path leaked spill state: {leaked:?}");
    let _ = fs::remove_dir_all(&base);
}

/// Journal activity is mirrored into the metrics registry: appends,
/// syncs, and replayed records all move their counters.
#[test]
fn journal_counters_are_mirrored_into_obs() {
    // Take the plan lock (with the inert plan) so concurrent fault tests
    // in this binary can't interleave their own journal writes.
    let _guard = faults::override_plan(FaultPlan::off());
    let (graph, objective) = instance(40, 33);
    let g = ground(40);
    let config = DistGreedyConfig::new(2, 2).expect("config").seed(6);
    let journal = temp_path("counters.wal");
    let _ = fs::remove_file(&journal);

    let written_before = submod_obs::counter("journal.records_written").value();
    let syncs_before = submod_obs::counter("journal.syncs").value();
    distributed_greedy_journaled(&graph, &objective, &g, 8, &config, &journal).expect("fresh run");
    // RunStart + 2 rounds + RunComplete.
    assert!(
        submod_obs::counter("journal.records_written").value() >= written_before + 4,
        "appends must be charged to journal.records_written"
    );
    assert!(
        submod_obs::counter("journal.syncs").value() >= syncs_before + 4,
        "boundary fsyncs must be charged to journal.syncs"
    );

    let replayed_before = submod_obs::counter("journal.records_replayed").value();
    distributed_greedy_journaled(&graph, &objective, &g, 8, &config, &journal).expect("replay");
    assert!(
        submod_obs::counter("journal.records_replayed").value() >= replayed_before + 4,
        "a resume must charge journal.records_replayed"
    );
    let _ = fs::remove_file(&journal);
}

/// The same guarantee for the partition-resident pass: a 900-byte budget
/// fits every partition of this run (≈ 10 rows × 48 B plus its shard
/// entries) and the scored table's shards, so the first spills of the run
/// are the runs of the resident pass's own `group_by_key` — and a fault
/// there, typed error or panic, still leaves the spill directory empty.
#[test]
fn faults_inside_the_resident_pass_leak_no_spill_files() {
    let (graph, objective) = instance(60, 21);
    let g = ground(60);
    let config = DistGreedyConfig::new(6, 2).expect("config").seed(4);
    // `[resident, batched]` phases run since `before`.
    let phases_since = |before: [u64; 2]| -> [u64; 2] {
        let names = ["greedy.phases_resident", "greedy.phases_batched"];
        std::array::from_fn(|i| submod_obs::counter(names[i]).value() - before[i])
    };
    let build = |base: &PathBuf| {
        fs::create_dir_all(base).expect("create base dir");
        Pipeline::builder()
            .workers(2)
            .memory_budget(MemoryBudget::bytes(900))
            .spill_dir(base)
            .build()
            .expect("pipeline")
    };
    let assert_empty = |base: &PathBuf, path: &str| {
        let leaked: Vec<_> = fs::read_dir(base).expect("read base dir").collect();
        assert!(leaked.is_empty(), "{path} leaked spill state: {leaked:?}");
        let _ = fs::remove_dir_all(base);
    };

    // Fault-free: both rounds run resident, and they do spill.
    let base = temp_path("resident-raii-clean");
    {
        let _guard = faults::override_plan(FaultPlan::off());
        let before = phases_since([0; 2]);
        let pipeline = build(&base);
        distributed_greedy_dataflow(&pipeline, &graph, &objective, &g, 10, &config).expect("run");
        assert_eq!(phases_since(before), [2, 0]);
        assert!(pipeline.metrics().spill_files > 0, "the resident pass must spill");
    }
    assert_empty(&base, "clean run");

    // Error path: the first spill — inside the first resident pass — is
    // poisoned.
    let base = temp_path("resident-raii-err");
    {
        let _guard =
            faults::override_plan(FaultPlan { mode: FaultMode::PermanentIo, seed: 5, rate: 1.0 });
        let before = phases_since([0; 2]);
        let pipeline = build(&base);
        let result = distributed_greedy_dataflow(&pipeline, &graph, &objective, &g, 10, &config);
        assert!(result.is_err(), "the poisoned spill must fail the run");
        assert_eq!(phases_since(before), [1, 0], "the run must die inside its first resident pass");
    }
    assert_empty(&base, "error path");

    // Panic path: sweep the seeded plan so the one panic lands in
    // different exec regions of the run, before and after a resident
    // pass has begun; wherever it unwinds from, nothing is left behind.
    let mut unwound_after_resident = 0;
    for seed in 0..16 {
        let base = temp_path(&format!("resident-raii-panic-{seed}"));
        {
            let _guard =
                faults::override_plan(FaultPlan { mode: FaultMode::Panic, seed, rate: 0.1 });
            let before = phases_since([0; 2]);
            let pipeline = build(&base);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                distributed_greedy_dataflow(&pipeline, &graph, &objective, &g, 10, &config)
            }));
            if result.is_err() && phases_since(before)[0] > 0 {
                unwound_after_resident += 1;
            }
        }
        assert_empty(&base, "panic path");
    }
    assert!(unwound_after_resident > 0, "no panic of the sweep landed in or after a resident pass");
}
