//! One workload, start to finish: repeated set-up, warm-up, the timed
//! repetitions, the output checks, and — when tracing is asked for — the
//! traced repetitions, the one-thread repetition, the layer probes and
//! the ledger computed from them.

use crate::adapter::{self, MetricsSnapshot, Res, SimilarityGraph, SpanEvent};
use crate::probes::{self, MachinePeaks};
use crate::procfs::{self, PeakWatch};
use crate::stats::{median, summarize, Summary};
use crate::trace::{self, Layer};
use crate::workloads::{self, Kind, Prepared, RepOut};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_TIMED_REPS: usize = 5;
/// Traced repetitions of a `--trace 1` run.
const TRACED_REPS: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub threads: usize,
    /// Where the workload may write; removed when the run ends.
    pub scratch: PathBuf,
    /// Where the chrome trace of the traced repetition goes.
    pub results: PathBuf,
}

/// Output checks, counted: `failed / attempted` is the failed share.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

pub struct Outcome {
    pub n: usize,
    pub edges: usize,
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Every timed repetition's wall clock, in run order.
    pub select_samples: Vec<f64>,
    /// `None` without `--trace 1`.
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
    pub checks: Checks,
    pub rss_exact: bool,
}

/// The graph a repetition selected on: its own, if it built or opened
/// one, or the one set-up holds.
fn graph_of<'a>(p: &'a Prepared, out: &'a RepOut) -> &'a SimilarityGraph {
    out.graph.as_ref().or(p.graph.as_ref()).expect("every workload selects on some graph")
}

fn files_under(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries.flatten().map(|e| if e.path().is_dir() { files_under(&e.path()) } else { 1 }).sum()
}

/// The repetitions of one run and the checks each must pass.
struct Reps<'a> {
    p: &'a Prepared,
    checks: Checks,
    /// The newest repetition's journal; older ones are deleted.
    journal: Option<PathBuf>,
}

impl Reps<'_> {
    /// Runs one repetition and checks it: budget met with distinct valid
    /// ids, reported value reproduced bit for bit, and ids, order, value
    /// and bounding outcome identical to `reference`'s.
    fn run(&mut self, label: &str, reference: Option<&RepOut>) -> Res<RepOut> {
        let p = self.p;
        let out = workloads::rep(p)?;
        let graph = graph_of(p, &out);
        for (pick, k) in out.picks.iter().zip(p.budgets()) {
            self.checks.check(pick.ids.len() == k, || {
                format!("{label}: selected {} points, budget {k}", pick.ids.len())
            });
            let mut sorted = pick.ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let valid =
                sorted.len() == pick.ids.len() && sorted.last().is_none_or(|&v| v < p.n as u64);
            self.checks.check(valid, || format!("{label}: ids repeat or exceed n = {}", p.n));
            let value = adapter::evaluate(graph, &p.objective, &pick.ids);
            self.checks.check(value.to_bits() == pick.value.to_bits(), || {
                format!("{label}: reported {} but the objective evaluates to {value}", pick.value)
            });
        }
        if let Some(reference) = reference {
            let same = out.picks == reference.picks && out.bounded == reference.bounded;
            self.checks.check(same, || format!("{label}: selection differs from the warm-up's"));
        }
        if let Some(stale) = std::mem::replace(&mut self.journal, out.journal.clone()) {
            let _ = std::fs::remove_file(stale);
        }
        Ok(out)
    }
}

pub fn run(opts: &Options, peaks: MachinePeaks) -> Res<Outcome> {
    std::fs::create_dir_all(&opts.scratch)?;
    let outcome = run_in_scratch(opts, peaks);
    let _ = std::fs::remove_dir_all(&opts.scratch);
    outcome
}

fn run_in_scratch(opts: &Options, peaks: MachinePeaks) -> Res<Outcome> {
    adapter::set_threads(opts.threads);
    adapter::set_tracing(false);

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..if opts.smoke { 1 } else { SETUP_REPS } {
        drop(prepared.take());
        let start = Instant::now();
        let p = workloads::setup(opts.kind, opts.smoke, opts.seed, &opts.scratch)?;
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up ran");
    let sizes = &p.sizes;

    // Peak RSS covers the warm-up and the first MIN_TIMED_REPS timed
    // repetitions — a fixed amount of work, so that a run given more
    // `--seconds` does not report more memory for the same code.
    let watch = PeakWatch::start();
    let rss_exact = watch.is_exact();
    let mut reps = Reps { p: &p, checks: Checks::default(), journal: None };
    let first = reps.run("warm-up", None)?;

    let mut secs = Vec::new();
    let mut rss_peak_kib = None;
    let timed = Instant::now();
    while secs.len() < MIN_TIMED_REPS || timed.elapsed().as_secs_f64() < opts.seconds {
        secs.push(reps.run(&format!("rep {}", secs.len() + 1), Some(&first))?.secs);
        if secs.len() == MIN_TIMED_REPS {
            rss_peak_kib = watch.peak_kib();
        }
    }
    watch.stop();
    let rss_peak_kib = rss_peak_kib.ok_or("no /proc/self/status: RSS cannot be measured")?;

    // The traced repetitions follow the timed ones directly, so the two
    // medians that make the tracing overhead see the same process state.
    let traced = if opts.trace { Some(Traced::measure(opts, &mut reps, &first)?) } else { None };

    // Quality against centralised greedy on the same instance and budget.
    let graph = graph_of(&p, &first);
    let k = p.budgets()[0];
    let start = Instant::now();
    let central = adapter::central_greedy(graph, &p.objective, k)?;
    let central_s = start.elapsed().as_secs_f64();
    let quality = first.picks[0].value / central.value;
    reps.checks.check(quality >= 0.9, || format!("quality_ratio {quality} is below 0.9"));

    // The dataflow drivers must select what the in-memory drivers select.
    let mut in_memory_greedy_s = None;
    if matches!(opts.kind, Kind::DfDefault | Kind::DfLtm) {
        let start = Instant::now();
        let in_memory = adapter::greedy_in_memory(
            graph,
            &p.objective,
            k,
            sizes.machines,
            sizes.rounds,
            p.seeds.phases.greedy,
        )?;
        in_memory_greedy_s = Some(start.elapsed().as_secs_f64());
        reps.checks.check(in_memory == first.picks[0], || {
            "dataflow greedy selects differently from the in-memory driver".to_string()
        });
        let bounded =
            adapter::bound_in_memory_driver(graph, &p.objective, k, p.seeds.phases.bounding)?;
        reps.checks.check(Some(&bounded) == first.bounded.as_ref(), || {
            "dataflow bounding decides differently from the in-memory driver".to_string()
        });
    }

    let mut end_to_end = BTreeMap::new();
    end_to_end.insert("setup_s", summarize(&setup_s));
    end_to_end.insert("select_s", summarize(&secs));
    end_to_end.insert("rss_peak_mib", summarize(&[rss_peak_kib as f64 / 1024.0]));
    end_to_end.insert("quality_ratio", summarize(&[quality]));

    let mut per_layer = None;
    if let Some(traced) = traced {
        // One repetition on one thread: the pool's speed-up, from outside.
        adapter::set_threads(1);
        let single = reps.run("1-thread rep", Some(&first));
        adapter::set_threads(opts.threads);
        let ledger = Ledger {
            opts,
            p: &p,
            graph,
            peaks,
            first_rep_s: first.secs,
            untraced_median_s: median(&secs),
            single_thread_s: single?.secs,
            rss_peak_bytes: rss_peak_kib as f64 * 1024.0,
            central_s,
            in_memory_greedy_s,
        };
        per_layer = Some(ledger.measure(&traced, &mut reps.checks)?);
    }

    if opts.kind == Kind::DfLtm {
        let path = reps.journal.as_ref().expect("the journaled workload leaves a journal");
        let replayed = adapter::replay_journal(path)?;
        reps.checks.check(
            replayed.starts_with_run_start
                && replayed.ends_with_run_complete
                && replayed.greedy_rounds == sizes.rounds
                && replayed.torn_bytes == 0,
            || {
                format!(
                    "journal replays {} records, {} greedy rounds of {}, {} torn bytes",
                    replayed.records, replayed.greedy_rounds, sizes.rounds, replayed.torn_bytes
                )
            },
        );
    }
    let leftover = files_under(&p.spill_dir());
    reps.checks
        .check(leftover == 0, || format!("{leftover} spill files left in the scratch directory"));

    Ok(Outcome {
        n: p.n,
        edges: adapter::num_edges(graph),
        end_to_end,
        select_samples: secs,
        per_layer,
        checks: reps.checks,
        rss_exact,
    })
}

/// The traced repetitions: wall clocks of all, and of the last one its
/// output, span stream, registry snapshot and the pool's CPU time.
struct Traced {
    secs: Vec<f64>,
    last: RepOut,
    events: Vec<SpanEvent>,
    snapshot: MetricsSnapshot,
    worker_busy_s: f64,
}

impl Traced {
    fn measure(opts: &Options, reps: &mut Reps, first: &RepOut) -> Res<Traced> {
        let mut secs = Vec::new();
        let mut last = None;
        for _ in 0..TRACED_REPS {
            // Zeroed before each, so every count is the last repetition's alone.
            adapter::reset_metrics();
            let _ = adapter::take_spans();
            let workers_before = procfs::worker_cpu_seconds();
            adapter::set_tracing(true);
            let out = reps.run("traced rep", Some(first));
            adapter::set_tracing(false);
            let out = out?;
            secs.push(out.secs);
            last = Some((out, procfs::worker_cpu_seconds() - workers_before));
        }
        let (last, worker_busy_s) = last.expect("TRACED_REPS is not zero");
        let events = adapter::take_spans();
        let snapshot = adapter::metrics_snapshot();
        std::fs::create_dir_all(&opts.results)?;
        std::fs::write(
            opts.results.join(format!("{}-seed{}.trace.json", opts.kind.name(), opts.seed)),
            adapter::chrome_trace_json(&events),
        )?;
        Ok(Traced { secs, last, events, snapshot, worker_busy_s })
    }
}

/// What the per-layer ledger is computed from, beyond the traced
/// repetitions and its own probes.
struct Ledger<'a> {
    opts: &'a Options,
    p: &'a Prepared,
    graph: &'a SimilarityGraph,
    peaks: MachinePeaks,
    first_rep_s: f64,
    untraced_median_s: f64,
    single_thread_s: f64,
    rss_peak_bytes: f64,
    central_s: f64,
    in_memory_greedy_s: Option<f64>,
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counters.get(name).copied().unwrap_or(0) as f64
}

fn gauge(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.gauges.get(name).copied().unwrap_or(0) as f64
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Seconds inside spans called `name` (never nested in one another in
/// this workspace).
fn span_seconds(events: &[SpanEvent], name: &str) -> f64 {
    events.iter().filter(|e| e.name == name).map(|e| e.dur_us as f64 / 1e6).sum()
}

impl Ledger<'_> {
    fn measure(&self, traced: &Traced, checks: &mut Checks) -> Res<BTreeMap<&'static str, f64>> {
        let (opts, p, sizes, graph) = (self.opts, self.p, &self.p.sizes, self.graph);
        let (snap, events) = (&traced.snapshot, &traced.events);
        let traced_s = traced.last.secs;
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

        let attribution =
            trace::attribute(events).ok_or("the traced repetition has no root span")?;
        checks.check(trace::sums_to_total(&attribution, traced_s, 0.01), || {
            format!(
                "self times sum to {} s, the traced repetition took {traced_s} s",
                attribution.total_self_s()
            )
        });
        m.insert("knn.self_s", attribution.layer_s(Layer::Knn));
        m.insert("core.self_s", attribution.layer_s(Layer::Core));
        m.insert("dataflow.self_s", attribution.layer_s(Layer::Dataflow));
        m.insert("dist.self_s", attribution.layer_s(Layer::Dist));
        m.insert("harness.unattributed_s", attribution.layer_s(Layer::Unattributed));
        m.insert("harness.first_rep_s", self.first_rep_s);
        m.insert("obs.trace_overhead_frac", median(&traced.secs) / self.untraced_median_s - 1.0);

        // kernels + knn
        let kernel = probes::kernels(&p.embeddings, self.peaks, p.seeds.probes, opts.smoke);
        m.insert("kernels.batch_top_k_gflops", kernel.gflops);
        m.insert("kernels.batch_top_k_gbps", kernel.gbps);
        m.insert("kernels.roofline_frac", kernel.roofline_frac);
        m.insert("kernels.rows_scanned", workloads::rows_scanned(snap) as f64);
        let knn = traced.last.knn.or(p.knn).expect("every workload builds a k-NN graph somewhere");
        m.insert("knn.build_s", knn.secs);
        m.insert("knn.queries_per_s", knn.queries as f64 / knn.secs);
        m.insert("knn.candidates_per_query", ratio(knn.rows_scanned as f64, knn.queries as f64));
        let knn_graph = p.base_graph.as_ref().unwrap_or(graph);
        let recall = probes::knn_recall(&p.embeddings, knn_graph, p.seeds.probes, opts.smoke)?;
        checks.check(recall >= sizes.recall_floor, || {
            format!("knn.recall_at_10 {recall} is below {}", sizes.recall_floor)
        });
        m.insert("knn.recall_at_10", recall);

        // exec
        let entries = counter(snap, "exec.region_entries");
        m.insert("exec.speedup", self.single_thread_s / self.untraced_median_s);
        m.insert("exec.region_entries", entries);
        m.insert(
            "exec.region_entry_us",
            ratio(counter(snap, "exec.region_entry_nanos"), entries) / 1e3,
        );
        m.insert("exec.steals", counter(snap, "exec.steals"));
        m.insert("exec.parks", counter(snap, "exec.parks"));
        m.insert("exec.task_overhead_ns", probes::exec_task_overhead_ns(opts.smoke));
        m.insert("exec.worker_busy_s", traced.worker_busy_s);

        // dataflow
        let fused_ops = snap.histograms.get("dataflow.fused_stage_ops");
        let stages_in_histogram: u64 = fused_ops.map_or(0, |h| h.counts.iter().sum());
        m.insert("dataflow.stages_fused", counter(snap, "dataflow.stages_fused"));
        m.insert(
            "dataflow.ops_per_stage",
            ratio(fused_ops.map_or(0, |h| h.sum) as f64, stages_in_histogram as f64),
        );
        let records = counter(snap, "dataflow.records_processed");
        m.insert("dataflow.records_processed", records);
        m.insert("dataflow.records_per_s", records / traced_s);
        m.insert("dataflow.records_shuffled", counter(snap, "dataflow.records_shuffled"));
        m.insert("dataflow.spill_mib", counter(snap, "dataflow.spill.bytes_written") / MIB);
        m.insert("dataflow.spill_read_mib", counter(snap, "dataflow.spill.bytes_read") / MIB);
        m.insert("dataflow.spill_files", counter(snap, "dataflow.spill.files"));
        m.insert("dataflow.combiner_flushes", counter(snap, "dataflow.combiner_flushes"));
        m.insert("dataflow.broadcast_mib", counter(snap, "dataflow.broadcast.bytes") / MIB);
        let worker_bytes_peak = traced.last.worker_bytes_peak as f64;
        m.insert("dataflow.worker_bytes_peak", worker_bytes_peak);
        let accounted = adapter::DATAFLOW_WORKERS as f64 * worker_bytes_peak
            + adapter::graph_bytes(graph) as f64;
        m.insert("dataflow.accounted_frac", accounted / self.rss_peak_bytes);
        let dataflow = probes::dataflow(&p.spill_dir(), p.seeds.probes, opts.smoke)?;
        m.insert("dataflow.probe_fused_mrec_s", dataflow.fused_mrec_s);
        m.insert("dataflow.probe_gbk_spill_mrec_s", dataflow.gbk_spill_mrec_s);
        m.insert("dataflow.probe_kth_ms", dataflow.kth_ms);

        // dist
        let greedy_s = span_seconds(events, "greedy.run");
        let steps = counter(snap, "greedy.steps");
        let bounded = traced.last.bounded.as_ref();
        m.insert("dist.bound_s", span_seconds(events, "bound.run"));
        m.insert("dist.bound_passes", counter(snap, "bounding.passes"));
        m.insert("dist.bound_decided_frac", bounded.map_or(0.0, |b| b.decided_frac));
        m.insert("dist.greedy_s", greedy_s);
        m.insert("dist.greedy_steps", steps);
        m.insert("dist.winners_per_step", ratio(counter(snap, "greedy.winners_collected"), steps));
        m.insert(
            "dist.driver_peak_bytes",
            gauge(snap, "bounding.peak_pass_bytes").max(gauge(snap, "greedy.peak_round_bytes")),
        );
        m.insert(
            "dist.df_over_mem",
            match self.in_memory_greedy_s {
                Some(in_memory_s) => greedy_s / in_memory_s,
                None => probes::df_over_mem(
                    graph,
                    &p.objective,
                    sizes.machines,
                    sizes.rounds,
                    p.seeds.phases.greedy,
                    &p.spill_dir(),
                    opts.smoke,
                )?,
            },
        );

        // journal
        m.insert("journal.records", counter(snap, "journal.records_written"));
        m.insert("journal.syncs", counter(snap, "journal.syncs"));
        m.insert("journal.bytes", counter(snap, "journal.bytes_written"));
        let journal = probes::journal(&opts.scratch.join("probe.wal"), p.budgets()[0])?;
        m.insert("journal.append_us", journal.append_us);
        m.insert("journal.replay_ms", journal.replay_ms);

        // core + mman: from the timed region where it opens a store,
        // from a probe on the workload's graph where it does not.
        m.insert("core.greedy_central_s", self.central_s);
        let probe_snapshot;
        let (store_path, write_s, open_s, mman) = match &p.store {
            Some(store) => {
                (store.path.clone(), store.write_s, span_seconds(events, "bench.open_store"), snap)
            }
            None => {
                let path = opts.scratch.join("probe.store");
                adapter::reset_metrics();
                let probe = probes::store(graph, &path)?;
                probe_snapshot = adapter::metrics_snapshot();
                (path, probe.write_s, probe.open_s, &probe_snapshot)
            }
        };
        m.insert("core.store_write_s", write_s);
        m.insert("core.store_open_s", open_s);
        m.insert("core.store_mib", std::fs::metadata(&store_path)?.len() as f64 / MIB);
        m.insert("mman.mapped_mib", counter(mman, "mman.mapped_bytes") / MIB);
        m.insert("mman.open_fallbacks", counter(mman, "store.mmap_open_fallbacks"));

        Ok(m)
    }
}
