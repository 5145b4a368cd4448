//! Workspace-wide observability: a lock-cheap metrics registry plus
//! scoped span timing, with chrome-trace and flat JSON/CSV exporters —
//! and **zero external dependencies** (the build environment is
//! vendored-only, so no `tracing` crate).
//!
//! # The two trace modes
//!
//! Every span is gated by `SUBMOD_TRACE`:
//!
//! | `SUBMOD_TRACE` | [`span`] | metrics registry |
//! |----------------|----------|------------------|
//! | `off` (default)| no-op    | recorded         |
//! | `spans`        | recorded | recorded         |
//!
//! Any other value means `off`.
//!
//! The gate is a *branch on a static*: one relaxed atomic load and a
//! compare, so the `off` path costs near-zero. The repo benchmark's
//! `obs.trace_overhead_frac` times the same selection under both modes in
//! one process; it is reported, not gated, because on a 2-vCPU runner it
//! swings more from run to run than a few-percent gate could tell apart.
//! A span site opens once per call, pass, stage or block, never per
//! record.
//!
//! # Metrics
//!
//! The registry is always live. A counter costs one relaxed atomic add,
//! and every recording site sits at *flush* granularity (once per pass,
//! spill file, batch call or block), never per record or row. The
//! registry is the source of truth behind the `BoundingStats` and
//! `GreedyStats` mirrors and the driver-memory figures `experiments ltm`
//! prints. [`snapshot`] returns sorted maps, [`metrics_json`] serializes
//! them and [`reset_metrics`] zeroes them between measured phases.
//! Identity facts are not tallies: a [`set_info`] entry (today
//! `kernels.backend`, set once at dispatch) survives every reset and
//! rides in every export, so a file says what its numbers were measured
//! on. Names are dot-separated by layer. Every name the library
//! registers has a row here, and the facade's `tests/repo_lints.rs`
//! fails on a name without a row or a row without a name:
//!
//! | Metric | Kind | Unit | Meaning |
//! |---|---|---|---|
//! | `bounding.dirty_nodes` | counter | nodes | undecided nodes the in-memory driver re-derived |
//! | `bounding.edges_walked` | counter | entries | adjacency entries walked to find and re-derive them |
//! | `bounding.pass_candidates` | histogram | points | candidates one bounding pass collected on the driver |
//! | `bounding.passes` | counter | passes | bounding passes run |
//! | `bounding.peak_candidates` | gauge | points | largest per-pass candidate collection |
//! | `bounding.peak_pass_bytes` | gauge | bytes | largest per-pass driver allocation |
//! | `bounding.peak_state_bytes` | gauge | bytes | largest persistent driver state |
//! | `dataflow.broadcast.bytes` | counter | bytes | bytes replicated to workers as side inputs |
//! | `dataflow.combiner_flushes` | counter | flushes | partial aggregates the keyed combiner flushed under the budget |
//! | `dataflow.external_merges` | counter | buckets | shuffle buckets grouped by external sort-merge |
//! | `dataflow.fused_stage_ops` | histogram | operators | operators chained in one executed fused stage |
//! | `dataflow.records_processed` | counter | records | records entering executed fused stages |
//! | `dataflow.records_shuffled` | counter | records | records moved by shuffles |
//! | `dataflow.spill.bytes_read` | counter | bytes | spill bytes streamed back |
//! | `dataflow.spill.bytes_written` | counter | bytes | spill bytes written |
//! | `dataflow.spill.file_bytes` | histogram | bytes | size of each spill file |
//! | `dataflow.spill.files` | counter | files | spill files written |
//! | `dataflow.stages_fused` | counter | stages | fused stages executed |
//! | `dataflow.worker_bytes_peak` | gauge | bytes | peak bytes one worker held, mirrored when pipeline metrics are read |
//! | `exec.region_entries` | counter | regions | parallel regions entered |
//! | `exec.region_entry_nanos` | counter | ns | time spent entering regions |
//! | `exec.region_spawns` | counter | threads | OS threads spawned by region entry (0 at steady state) |
//! | `faults.injected` | counter | faults | injected faults: I/O errors and the one panic |
//! | `faults.retries` | counter | retries | attempts `faults::check_io` made after an injected transient fault |
//! | `greedy.batch_scans` | counter | scans | engine scans of the batched greedy path |
//! | `greedy.bytes_broadcast` | gauge | bytes | largest bytes one greedy run broadcast |
//! | `greedy.edges_local` | counter | entries | adjacency entries the local shards keep |
//! | `greedy.edges_walked` | counter | entries | global adjacency entries read to build local shards |
//! | `greedy.overlay_bytes_peak` | gauge | bytes | largest winner overlay |
//! | `greedy.overlay_rewrites` | counter | rewrites | overlays folded into the scored table |
//! | `greedy.partition_footprint_peak` | gauge | bytes | largest partition footprint the fit check saw |
//! | `greedy.peak_round_bytes` | gauge | bytes | largest per-round driver collection |
//! | `greedy.peak_state_bytes` | gauge | bytes | largest persistent driver state |
//! | `greedy.peak_step_winners` | gauge | winners | largest winner collection of one step |
//! | `greedy.phases_batched` | counter | phases | phases run on the batched path |
//! | `greedy.phases_resident` | counter | phases | phases run partition-resident |
//! | `greedy.rounds` | counter | rounds | multi-round greedy rounds run |
//! | `greedy.scan_bytes_peak` | gauge | bytes | largest batch scan shipped to the driver |
//! | `greedy.steps` | counter | steps | greedy steps (one pop per machine that had one) |
//! | `greedy.winners_collected` | counter | rows | winner rows collected on the driver |
//! | `journal.bytes_written` | counter | bytes | framed bytes appended |
//! | `journal.records_replayed` | counter | records | records replay returned |
//! | `journal.records_written` | counter | records | records appended |
//! | `journal.syncs` | counter | fsyncs | commit points |
//! | `journal.torn_bytes` | counter | bytes | torn tail cut off by replay |
//! | `kernels.batch_top_k.calls` | counter | calls | dense batch top-k scans |
//! | `kernels.batch_top_k.row_scans` | counter | pairs | (query, row) pairs those scans scored |
//! | `kernels.gather_top_k.calls` | counter | calls | gathered-row top-k scans (IVF cells, widening) |
//! | `kernels.gather_top_k.candidates` | counter | pairs | (query, candidate) pairs those scans scored |
//! | `knn.build.points` | counter | points | points of the k-NN graphs built |
//! | `knn.search.blocks` | counter | blocks | query blocks of the graph builds |
//! | `knn.search.queries` | counter | queries | queries in those blocks |
//! | `mman.mapped_bytes` | counter | bytes | bytes mapped read-only |
//! | `mman.maps` | counter | mappings | files mapped |
//! | `mman.owned_bytes` | counter | bytes | bytes read into owned buffers instead |
//! | `mman.owned_reads` | counter | reads | files read into owned buffers |
//! | `process.rss_baseline_kib` | gauge | KiB | RSS at the last `mark_rss_baseline` |
//! | `process.rss_kib` | gauge | KiB | RSS at the last sample |
//! | `process.rss_peak_kib` | gauge | KiB | largest RSS sampled since the baseline |
//! | `store.mapped_bytes` | counter | bytes | graph-store bytes opened, mapped or read |
//! | `store.mmap_open_fallbacks` | counter | opens | store opens whose mapping failed and fell back to an owned read |
//! | `store.opens` | counter | opens | graph-store files opened and validated |
//! | `store.writes` | counter | files | graph-store files written |
//! | `store.written_bytes` | counter | bytes | graph-store bytes written |
//!
//! # Exporters
//!
//! Any `experiments` run with `SUBMOD_TRACE=spans` writes
//! `OUT/trace.json` (Chrome Trace Event Format: drop it into
//! <https://ui.perfetto.dev> or `chrome://tracing`) and
//! `OUT/metrics.json` on exit. `experiments profile` forces `spans` and
//! prints each phase's wall clock next to the registry's highlights. It
//! prints no per-span totals, since inclusive time counts nested and
//! parallel spans more than once; the repo benchmark's exclusive
//! per-layer ledger is the account of where time went.
//!
//! # Determinism
//!
//! A counter is one relaxed atomic that every thread adds to, and `u64`
//! addition is commutative, so a snapshot taken after a barrier is
//! bitwise-identical at any thread count and interleaving.
//! Snapshots iterate a `BTreeMap`, so export order is the metric-name
//! order — deterministic by construction. Spans only *time* work; no
//! control flow ever reads a span or a metric, so selections are
//! bitwise-identical in both modes. The facade's invariance harness pins
//! this, and asserts that tracing recorded nested spans, a
//! `dataflow.fused_stage` span and, over a mapped graph, `store.write`
//! and `store.open`.
//!
//! # Span nesting across pool workers
//!
//! [`span`] guards nest through a thread-local parent id.
//! `submod_exec` captures [`current_span`] when a parallel region opens
//! and replays it with [`with_parent`] on every thread that claims a
//! chunk, so a `knn.build` span on the driver thread is the parent of
//! every block's span whichever thread ran the block.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod format;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Trace mode
// ---------------------------------------------------------------------------

/// The tracing level, resolved from `SUBMOD_TRACE` (or [`set_mode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// No spans recorded. The hot-path cost is one atomic load + branch.
    Off,
    /// Every [`span`] recorded.
    Spans,
}

impl TraceMode {
    /// Parses the `SUBMOD_TRACE` value; unknown strings mean [`TraceMode::Off`].
    fn parse(s: &str) -> TraceMode {
        match s.trim().to_ascii_lowercase().as_str() {
            "spans" => TraceMode::Spans,
            _ => TraceMode::Off,
        }
    }
}

const MODE_UNINIT: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

#[cold]
fn init_mode() -> u8 {
    let resolved = match std::env::var("SUBMOD_TRACE") {
        Ok(v) => TraceMode::parse(&v),
        Err(_) => TraceMode::Off,
    };
    let raw = resolved as u8;
    // First writer wins against a concurrent `set_mode`.
    let _ = MODE.compare_exchange(MODE_UNINIT, raw, Ordering::Relaxed, Ordering::Relaxed);
    MODE.load(Ordering::Relaxed)
}

#[inline]
fn mode_raw() -> u8 {
    let raw = MODE.load(Ordering::Relaxed);
    if raw == MODE_UNINIT {
        return init_mode();
    }
    raw
}

/// The active trace mode (lazily resolved from `SUBMOD_TRACE`).
#[inline]
pub fn mode() -> TraceMode {
    if spans_enabled() {
        TraceMode::Spans
    } else {
        TraceMode::Off
    }
}

/// Overrides the trace mode programmatically (tests, benchmarks, and the
/// `experiments profile` subcommand, which forces `spans`).
pub fn set_mode(mode: TraceMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// Returns `true` when [`span`]s are recorded.
#[inline]
fn spans_enabled() -> bool {
    mode_raw() == TraceMode::Spans as u8
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A monotonically-increasing `u64` metric: one relaxed atomic.
///
/// Every recording site sits at flush granularity, so increments never
/// contend enough to need sharding; `u64` addition commutes, so the total
/// is independent of which thread added what.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds `n` (relaxed, wrapping).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The total so far.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write / running-max `u64` metric (peak bytes, RSS, depths).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Folds `v` into a running maximum.
    #[inline]
    pub fn fetch_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Histogram bucket count: powers of 4 from 1 to 4^15, plus overflow.
const HIST_BUCKETS: usize = 17;

/// Upper bound (inclusive) of histogram bucket `i`: `4^i`, last = ∞.
fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        4u64.pow(i as u32)
    }
}

/// A fixed-bucket histogram (bounds `4^i`), one atomic per bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: Counter,
}

impl Histogram {
    fn new() -> Self {
        Histogram { buckets: Default::default(), sum: Counter::new() }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        let mut idx = HIST_BUCKETS - 1;
        for i in 0..HIST_BUCKETS - 1 {
            if v <= bucket_bound(i) {
                idx = i;
                break;
            }
        }
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
    }

    /// Deterministic per-bucket counts (bounds from [`HistogramSnapshot`]).
    pub fn counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.reset();
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
    info: Mutex<BTreeMap<String, String>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Interns `name` and returns its counter. The lookup takes a mutex —
/// cache the handle at hot call sites (see the [`counter!`] macro).
pub fn counter(name: &str) -> &'static Counter {
    let mut map = registry().counters.lock().expect("counter registry");
    if let Some(c) = map.get(name) {
        return c;
    }
    let leaked: &'static Counter = Box::leak(Box::new(Counter::new()));
    map.insert(name.to_string(), leaked);
    leaked
}

/// Interns `name` and returns its gauge (mutex lookup — cache handles).
pub fn gauge(name: &str) -> &'static Gauge {
    let mut map = registry().gauges.lock().expect("gauge registry");
    if let Some(g) = map.get(name) {
        return g;
    }
    let leaked: &'static Gauge = Box::leak(Box::new(Gauge::default()));
    map.insert(name.to_string(), leaked);
    leaked
}

/// Interns `name` and returns its histogram (mutex lookup — cache handles).
pub fn histogram(name: &str) -> &'static Histogram {
    let mut map = registry().histograms.lock().expect("histogram registry");
    if let Some(h) = map.get(name) {
        return h;
    }
    let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    map.insert(name.to_string(), leaked);
    leaked
}

/// Records an identity fact about this process — which kernel backend
/// it dispatched to, say. Unlike a metric, an info entry is not a tally:
/// [`reset_metrics`] leaves it alone, and every export carries it
/// ([`MetricsSnapshot::info`], the `"info"` object of [`metrics_json`] and
/// `otherData` of [`chrome_trace_json`]), so whatever numbers a file
/// holds, it says what they were measured on.
pub fn set_info(name: &str, value: &str) {
    registry().info.lock().expect("info registry").insert(name.to_string(), value.to_string());
}

/// Caches a [`Counter`] handle per call site: the registry mutex is taken
/// once, every later hit is a single `OnceLock` load.
///
/// ```
/// submod_obs::counter!("doc.requests").incr();
/// ```
///
/// The name must be a string literal: the handle cached at the call site
/// belongs to the first name seen there, so a computed name would alias
/// every later name to it. Use [`counter()`](fn@counter) for those.
///
/// ```compile_fail
/// let name = String::from("doc.computed");
/// submod_obs::counter!(&name).incr();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// Caches a [`Gauge`] handle per call site; the name is a string literal
/// (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Caches a [`Histogram`] handle per call site; the name is a string
/// literal (see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::histogram($name))
    }};
}

/// One histogram in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds (`4^i`; the last is `u64::MAX` = ∞).
    pub bounds: Vec<u64>,
    /// Observation counts per bucket.
    pub counts: Vec<u64>,
    /// Sum of every recorded value.
    pub sum: u64,
}

/// A deterministic point-in-time view of the whole registry, ordered by
/// metric name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Identity facts set through [`set_info`]; survive [`reset_metrics`].
    pub info: BTreeMap<String, String>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Snapshots every registered metric. Deterministic given quiesced
/// writers: totals are order-independent and the maps are sorted.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("counter registry")
        .iter()
        .map(|(name, c)| (name.clone(), c.value()))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .expect("gauge registry")
        .iter()
        .map(|(name, g)| (name.clone(), g.value()))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("histogram registry")
        .iter()
        .map(|(name, h)| {
            (
                name.clone(),
                HistogramSnapshot {
                    bounds: (0..HIST_BUCKETS).map(bucket_bound).collect(),
                    counts: h.counts(),
                    sum: h.sum.value(),
                },
            )
        })
        .collect();
    let info = reg.info.lock().expect("info registry").clone();
    MetricsSnapshot { info, counters, gauges, histograms }
}

/// Zeroes every registered metric (handles stay valid) without touching
/// [`set_info`] entries or buffered spans — use between measured phases when the span stream
/// should keep accumulating toward one final trace export (the
/// `experiments ltm` budget sweeps do exactly this).
pub fn reset_metrics() {
    let reg = registry();
    for c in reg.counters.lock().expect("counter registry").values() {
        c.reset();
    }
    for g in reg.gauges.lock().expect("gauge registry").values() {
        g.set(0);
    }
    for h in reg.histograms.lock().expect("histogram registry").values() {
        h.reset();
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One finished span, in microseconds since the process trace epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (dot-separated, e.g. `knn.build`).
    pub name: &'static str,
    /// Unique span id (never 0).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Small sequential id of the recording thread.
    pub tid: u64,
    /// Start, µs since the trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct ThreadBuf {
    tid: u64,
    events: Mutex<Vec<SpanEvent>>,
}

/// Every thread's buffer, registered on first span so draining works
/// even while `submod_exec`'s process-lifetime workers stay parked (a
/// TLS destructor would never run for them).
fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_BUF: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

fn record_event(event: SpanEvent) {
    LOCAL_BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Mutex::new(Vec::new()),
            });
            buffers().lock().expect("span buffers").push(buf.clone());
            buf
        });
        let mut event = event;
        event.tid = buf.tid;
        buf.events.lock().expect("span buffer").push(event);
    });
}

/// RAII timing guard from [`span`]; records on drop.
#[must_use = "a span guard times its scope; dropping it immediately records nothing"]
pub struct SpanGuard {
    name: &'static str,
    id: u64,
    parent: u64,
    start: Option<Instant>,
}

impl SpanGuard {
    const INACTIVE: SpanGuard = SpanGuard { name: "", id: 0, parent: 0, start: None };

    /// The span's id (0 for an inactive guard).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        CURRENT_SPAN.set(self.parent);
        let start_us = start.duration_since(epoch()).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        record_event(SpanEvent {
            name: self.name,
            id: self.id,
            parent: self.parent,
            tid: 0,
            start_us,
            dur_us,
        });
    }
}

/// Opens a span (phases, passes, rounds, fused stages, k-NN blocks,
/// store opens — once per call, stage or block, never per record).
/// No-op unless `SUBMOD_TRACE=spans`.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard::INACTIVE;
    }
    let _ = epoch();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT_SPAN.replace(id);
    SpanGuard { name, id, parent, start: Some(Instant::now()) }
}

/// The innermost open span's id on this thread (0 = none / tracing off).
/// `submod_exec` captures this at task spawn.
#[inline]
pub fn current_span() -> u64 {
    if !spans_enabled() {
        return 0;
    }
    CURRENT_SPAN.with(Cell::get)
}

/// Runs `f` with `parent` as this thread's current span, so spans opened
/// inside nest under it — the worker half of cross-pool propagation.
/// `parent == 0` runs `f` untouched.
#[inline]
pub fn with_parent<R>(parent: u64, f: impl FnOnce() -> R) -> R {
    if parent == 0 {
        return f();
    }
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_SPAN.set(self.0);
        }
    }
    let prev = CURRENT_SPAN.replace(parent);
    let _restore = Restore(prev);
    f()
}

/// Drains every thread's buffered spans, sorted by (start, id).
pub fn take_spans() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for buf in buffers().lock().expect("span buffers").iter() {
        out.append(&mut buf.events.lock().expect("span buffer"));
    }
    out.sort_by_key(|e| (e.start_us, e.id));
    out
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Appends `"name":"value"` pairs, comma-separated, name-sorted.
fn push_json_strings(entries: &BTreeMap<String, String>, out: &mut String) {
    for (i, (name, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(name, out);
        out.push_str("\":\"");
        escape_json(value, out);
        out.push('"');
    }
}

/// Serializes spans as Chrome Trace Event Format JSON — loadable in
/// `chrome://tracing` and <https://ui.perfetto.dev> ("X" complete
/// events; parent ids ride in `args` for tooling). The header's
/// `otherData` object carries the process's [`set_info`] entries.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    push_json_strings(&registry().info.lock().expect("info registry"), &mut out);
    out.push_str("},\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(e.name, &mut out);
        out.push_str(&format!(
            "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            e.start_us, e.dur_us, e.tid, e.id, e.parent
        ));
    }
    out.push_str("]}");
    out
}

/// Drains buffered spans and writes them to `path` as chrome-trace JSON.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<Vec<SpanEvent>> {
    let events = take_spans();
    std::fs::write(path, chrome_trace_json(&events))?;
    Ok(events)
}

/// Serializes a metrics snapshot as flat JSON (name-sorted).
pub fn metrics_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"info\":{");
    push_json_strings(&snap.info, &mut out);
    out.push_str("},\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(name, &mut out);
        out.push_str(&format!("\":{v}"));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(name, &mut out);
        out.push_str(&format!("\":{v}"));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(name, &mut out);
        out.push_str("\":{\"sum\":");
        out.push_str(&h.sum.to_string());
        out.push_str(",\"counts\":[");
        for (j, c) in h.counts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

// ---------------------------------------------------------------------------
// Process RSS (the one place /proc/self/status is parsed)
// ---------------------------------------------------------------------------

/// Current resident-set size from `/proc/self/status`, in KiB (`None`
/// off Linux or if the field is missing).
fn current_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

/// Samples the process RSS into the registry: sets `process.rss_kib`,
/// folds `process.rss_peak_kib` as a running max. Returns the sample.
pub fn sample_rss() -> Option<u64> {
    let rss = current_rss_kib()?;
    gauge!("process.rss_kib").set(rss);
    gauge!("process.rss_peak_kib").fetch_max(rss);
    Some(rss)
}

/// Marks the current RSS as `process.rss_baseline_kib` and restarts the
/// peak from it, so `rss_peak_kib − rss_baseline_kib` is the growth of
/// the region that follows (the `ltm` steady-state meter).
pub fn mark_rss_baseline() -> Option<u64> {
    let rss = current_rss_kib()?;
    gauge!("process.rss_baseline_kib").set(rss);
    gauge!("process.rss_kib").set(rss);
    gauge!("process.rss_peak_kib").set(rss);
    Some(rss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    #[test]
    fn mode_parsing() {
        assert_eq!(TraceMode::parse("off"), TraceMode::Off);
        assert_eq!(TraceMode::parse("SPANS"), TraceMode::Spans);
        assert_eq!(TraceMode::parse(" full "), TraceMode::Off, "the retired level means off");
        assert_eq!(TraceMode::parse("garbage"), TraceMode::Off);
    }

    #[test]
    fn counters_merge_and_reset() {
        let c = counter("test.counters_merge");
        c.add(5);
        c.incr();
        assert_eq!(c.value(), 6);
        assert!(std::ptr::eq(c, counter("test.counters_merge")), "interned handle is stable");
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = gauge("test.gauge_set_max");
        g.set(10);
        g.fetch_max(7);
        assert_eq!(g.value(), 10);
        g.fetch_max(12);
        assert_eq!(g.value(), 12);
    }

    #[test]
    fn histogram_buckets_values() {
        let h = histogram("test.hist_buckets");
        h.record(1); // bucket 0 (≤ 1)
        h.record(3); // bucket 1 (≤ 4)
        h.record(5); // bucket 2 (≤ 16)
        h.record(u64::MAX); // overflow bucket
        let counts = h.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[HIST_BUCKETS - 1], 1);
        assert_eq!(h.sum.value(), 9u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn snapshot_is_name_sorted() {
        counter("test.snap.b").incr();
        counter("test.snap.a").incr();
        let snap = snapshot();
        let names: Vec<&String> =
            snap.counters.keys().filter(|k| k.starts_with("test.snap.")).collect();
        assert_eq!(names, ["test.snap.a", "test.snap.b"]);
    }

    /// Serializes the tests that set the global trace mode or drain the
    /// global span buffers; run in parallel, one would switch tracing off
    /// or take the other's spans mid-assertion.
    static TRACE_STATE: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_record_and_nest_when_enabled() {
        let _serial = TRACE_STATE.lock().unwrap_or_else(PoisonError::into_inner);
        set_mode(TraceMode::Spans);
        let _ = take_spans();
        {
            let outer = span("test.outer");
            let outer_id = outer.id();
            assert_eq!(current_span(), outer_id);
            {
                let _inner = span("test.inner");
                assert_ne!(current_span(), outer_id);
            }
            assert_eq!(current_span(), outer_id);
        }
        assert_eq!(current_span(), 0);
        let events = take_spans();
        let inner = events.iter().find(|e| e.name == "test.inner").expect("inner recorded");
        let outer = events.iter().find(|e| e.name == "test.outer").expect("outer recorded");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.dur_us >= inner.dur_us);
        set_mode(TraceMode::Off);
        assert_eq!(span("test.off").id(), 0);
        assert!(take_spans().is_empty());
    }

    #[test]
    fn with_parent_propagates_and_restores() {
        let _serial = TRACE_STATE.lock().unwrap_or_else(PoisonError::into_inner);
        set_mode(TraceMode::Spans);
        let _ = take_spans();
        let parent_id;
        {
            let parent = span("test.parent");
            parent_id = parent.id();
            with_parent(parent_id + 1000, || {
                assert_eq!(CURRENT_SPAN.with(Cell::get), parent_id + 1000);
            });
            assert_eq!(current_span(), parent_id);
        }
        // parent == 0 is the identity.
        assert_eq!(with_parent(0, || 42), 42);
        let _ = take_spans();
        set_mode(TraceMode::Off);
    }

    #[test]
    fn chrome_trace_shape() {
        let events = vec![
            SpanEvent { name: "a.b", id: 1, parent: 0, tid: 1, start_us: 10, dur_us: 5 },
            SpanEvent { name: "c\"d", id: 2, parent: 1, tid: 2, start_us: 11, dur_us: 1 },
        ];
        set_info("test.trace.\"host\"", "a\\b");
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"otherData\":{"));
        assert!(json.contains("\"test.trace.\\\"host\\\"\":\"a\\\\b\""));
        assert!(json.contains("},\"traceEvents\":[{"));
        assert!(json.contains("\"name\":\"a.b\""));
        assert!(json.contains("\\\"")); // quote escaped
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"parent\":1"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn metrics_exports_are_well_formed() {
        set_info("test.export.i", "avx2");
        counter("test.export.c").add(3);
        gauge("test.export.g").set(7);
        histogram("test.export.h").record(2);
        let snap = snapshot();
        assert_eq!(snap.info["test.export.i"], "avx2");
        let json = metrics_json(&snap);
        assert!(json.starts_with("{\"info\":{"));
        assert!(json.contains("\"test.export.i\":\"avx2\""));
        assert!(json.contains("\"test.export.c\":3"));
        assert!(json.contains("\"test.export.g\":7"));
        assert!(json.contains("\"test.export.h\""));
    }

    #[test]
    fn rss_sampling_populates_gauges() {
        if mark_rss_baseline().is_none() {
            return; // not on Linux
        }
        let _big = vec![0u8; 4 << 20];
        sample_rss().expect("rss readable");
        let snap = snapshot();
        assert!(snap.gauges["process.rss_kib"] > 0);
        assert!(snap.gauges["process.rss_peak_kib"] >= snap.gauges["process.rss_baseline_kib"]);
    }
}
