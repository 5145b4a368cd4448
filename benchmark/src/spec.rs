//! The names the benchmark prints, in one place. `BENCHMARK.json` at the
//! repository root lists the same workloads and metrics; a test holds the
//! two together.

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "embed-knn",
        why: "the paper's full path from embeddings: kernels, knn and exec do nearly all the work; dataflow, journal and the store idle",
    },
    WorkloadSpec {
        name: "graph-mem",
        why: "Table 4's in-memory algorithms on a perturbed graph: core CSR walk and priority queue, in-memory dist backends, exec; kernels and dataflow idle",
    },
    WorkloadSpec {
        name: "graph-df-default",
        why: "the dataflow driver as configured by default: thousands of tiny engine passes, so plan, closure, region-entry and allocator overhead dominate; no spill",
    },
    WorkloadSpec {
        name: "graph-df-ltm",
        why: "the larger-than-memory deployment: mmap store, 32 KiB worker budget, batched winners, WAL; few large passes through codec, spill, shuffle and kth_largest",
    },
];

pub const END_TO_END: [MetricSpec; 4] = [
    metric("setup_s", "s", "lower"),
    metric("select_s", "s", "lower"),
    metric("rss_peak_mib", "MiB", "lower"),
    metric("quality_ratio", "ratio", "higher"),
];

pub const PER_LAYER: [MetricSpec; 56] = [
    metric("kernels.batch_top_k_gflops", "GFLOP/s", "higher"),
    metric("kernels.batch_top_k_gbps", "GB/s", "higher"),
    metric("kernels.roofline_frac", "ratio", "higher"),
    metric("kernels.rows_scanned", "count", "lower"),
    metric("knn.build_s", "s", "lower"),
    metric("knn.queries_per_s", "1/s", "higher"),
    metric("knn.candidates_per_query", "count", "lower"),
    metric("knn.recall_at_10", "ratio", "higher"),
    metric("knn.self_s", "s", "lower"),
    metric("exec.speedup", "ratio", "higher"),
    metric("exec.region_entries", "count", "lower"),
    metric("exec.region_entry_us", "us", "lower"),
    metric("exec.steals", "count", "lower"),
    metric("exec.parks", "count", "lower"),
    metric("exec.task_overhead_ns", "ns", "lower"),
    metric("exec.worker_busy_s", "s", "higher"),
    metric("core.greedy_central_s", "s", "lower"),
    metric("core.store_write_s", "s", "lower"),
    metric("core.store_open_s", "s", "lower"),
    metric("core.store_mib", "MiB", "lower"),
    metric("core.self_s", "s", "lower"),
    metric("mman.mapped_mib", "MiB", "higher"),
    metric("mman.open_fallbacks", "count", "lower"),
    metric("dataflow.stages_fused", "count", "lower"),
    metric("dataflow.ops_per_stage", "count", "lower"),
    metric("dataflow.records_processed", "count", "lower"),
    metric("dataflow.records_per_s", "1/s", "higher"),
    metric("dataflow.records_shuffled", "count", "lower"),
    metric("dataflow.spill_mib", "MiB", "lower"),
    metric("dataflow.spill_read_mib", "MiB", "lower"),
    metric("dataflow.spill_files", "count", "lower"),
    metric("dataflow.combiner_flushes", "count", "lower"),
    metric("dataflow.broadcast_mib", "MiB", "lower"),
    metric("dataflow.worker_bytes_peak", "bytes", "lower"),
    metric("dataflow.accounted_frac", "ratio", "higher"),
    metric("dataflow.self_s", "s", "lower"),
    metric("dataflow.probe_fused_mrec_s", "Mrec/s", "higher"),
    metric("dataflow.probe_gbk_spill_mrec_s", "Mrec/s", "higher"),
    metric("dataflow.probe_kth_ms", "ms", "lower"),
    metric("dist.bound_s", "s", "lower"),
    metric("dist.bound_passes", "count", "lower"),
    metric("dist.bound_decided_frac", "ratio", "higher"),
    metric("dist.greedy_s", "s", "lower"),
    metric("dist.greedy_steps", "count", "lower"),
    metric("dist.winners_per_step", "ratio", "higher"),
    metric("dist.driver_peak_bytes", "bytes", "lower"),
    metric("dist.df_over_mem", "ratio", "lower"),
    metric("dist.self_s", "s", "lower"),
    metric("journal.records", "count", "lower"),
    metric("journal.syncs", "count", "lower"),
    metric("journal.bytes", "bytes", "lower"),
    metric("journal.append_us", "us", "lower"),
    metric("journal.replay_ms", "ms", "lower"),
    metric("obs.trace_overhead_frac", "ratio", "lower"),
    metric("harness.first_rep_s", "s", "lower"),
    metric("harness.unattributed_s", "s", "lower"),
];

/// Metrics that depend only on the inputs and the code, never on timing
/// or scheduling: two runs of one commit on one seed must print the same
/// value, digit for digit. `repeat.sh` fails when one of them differs.
pub const EXACT_REPEAT: [&str; 22] = [
    "quality_ratio",
    "kernels.rows_scanned",
    "knn.candidates_per_query",
    "knn.recall_at_10",
    "core.store_mib",
    "mman.mapped_mib",
    "mman.open_fallbacks",
    "dataflow.stages_fused",
    "dataflow.ops_per_stage",
    "dataflow.records_processed",
    "dataflow.records_shuffled",
    "dataflow.spill_mib",
    "dataflow.spill_read_mib",
    "dataflow.spill_files",
    "dataflow.combiner_flushes",
    "dataflow.broadcast_mib",
    "dist.bound_passes",
    "dist.bound_decided_frac",
    "dist.greedy_steps",
    "dist.winners_per_step",
    "journal.records",
    "journal.syncs",
];

/// Environment knobs of the workspace. The benchmark refuses to run when
/// one is set, so two runs can never differ by an inherited setting.
pub const FORBIDDEN_ENV: [&str; 7] = [
    "SUBMOD_KERNELS",
    "SUBMOD_FUSION",
    "SUBMOD_SPILL_COMPRESS",
    "SUBMOD_FAULTS",
    "SUBMOD_TRACE",
    "SUBMOD_GRAPH_STORE",
    "EXEC_NUM_THREADS",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "metric name {}", m.name);
            assert!(unit_ok(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(matches!(m.better, "lower" | "higher"), "better of {}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(!name_ok("bad name") && !name_ok("") && !name_ok("-x") && !name_ok("a/b"));
        assert!(!unit_ok("a unit") && !unit_ok("seventeen-chars-x"));
    }

    #[test]
    fn exact_repeat_metrics_exist() {
        for name in EXACT_REPEAT {
            assert!(
                END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
                "{name} is not a metric"
            );
        }
    }

    fn listed<'a>(doc: &'a Json, key: &str) -> Vec<&'a Json> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .collect()
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.entries().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let workloads = listed(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "why"), spec.why);
            assert_eq!(entry.entries().unwrap().len(), 2);
        }

        let end_to_end = listed(&doc, "end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, spec) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert_eq!(field(entry, "better"), spec.better);
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", spec.name);
            assert_eq!(entry.entries().unwrap().len(), 4);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));

        let per_layer = listed(&doc, "per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, spec) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert_eq!(field(entry, "better"), spec.better);
            assert_eq!(entry.entries().unwrap().len(), 3);
        }

        let seconds = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
        assert_eq!(seconds, crate::DEFAULT_SECONDS as f64);
        assert_eq!(listed(&doc, "paths").len(), 1);
        assert_eq!(listed(&doc, "paths")[0].as_str(), Some("benchmark"));
    }
}
