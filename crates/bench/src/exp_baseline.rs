//! Baseline comparison (§2 / §3 systems claims): GreeDi / RandGreeDi's
//! centralized-merge memory grows with the machine count, while the
//! multi-round algorithm's per-machine footprint stays one partition.
//! Also reproduces §3's DRAM arithmetic for the priority-queue state.

use crate::common::{cell_seed, BenchCtx};
use crate::output::{print_table, write_artifact};
use submod_core::{greedy_select, NodeId};
use submod_dist::{distributed_greedy, greedi, DistGreedyConfig, PartitionStyle};

/// Runs the baseline comparison on the CIFAR-like dataset.
pub fn baselines(ctx: &BenchCtx) {
    println!("baselines: GreeDi / RandGreeDi vs multi-round distributed greedy");
    let instance = ctx.cifar();
    let objective = instance.objective(0.9).expect("objective");
    let k = instance.len() / 10;
    let ground: Vec<NodeId> = (0..instance.len()).map(NodeId::from_index).collect();
    let centralized =
        greedy_select(&instance.graph, &objective, k).expect("greedy").objective_value();

    let mut rows = Vec::new();
    let mut csv = String::from("algorithm,machines,score_pct,merge_points,merge_kib\n");
    for &machines in &[2usize, 4, 8, 16] {
        for (name, style) in
            [("GreeDi", PartitionStyle::Arbitrary), ("RandGreeDi", PartitionStyle::Random)]
        {
            let report =
                greedi(&instance.graph, &objective, k, machines, style, 11).expect("greedi");
            let pct = report.selection.objective_value() / centralized * 100.0;
            rows.push(vec![
                name.to_string(),
                machines.to_string(),
                format!("{pct:.2} %"),
                report.merge.union_size.to_string(),
                format!("{} KiB", report.merge.merge_memory_bytes / 1024),
            ]);
            csv.push_str(&format!(
                "{name},{machines},{pct:.3},{},{}\n",
                report.merge.union_size,
                report.merge.merge_memory_bytes / 1024
            ));
        }
        // The multi-round algorithm: per-machine footprint = one partition.
        let config = DistGreedyConfig::new(machines, 8)
            .expect("config")
            .adaptive(true)
            .seed(cell_seed(machines, 8, 0.9, k));
        let report = distributed_greedy(&instance.graph, &objective, &ground, k, &config)
            .expect("distributed");
        let pct = report.selection.objective_value() / centralized * 100.0;
        // Hash keying balances partitions binomially: n/m in expectation,
        // not a hard ceiling.
        let partition_points = instance.len().div_ceil(machines);
        let partition_kib = partition_points as u64 * (16 + 10 * 16) / 1024;
        rows.push(vec![
            "multi-round (8r, adaptive)".to_string(),
            machines.to_string(),
            format!("{pct:.2} %"),
            format!("~{partition_points}/machine"),
            format!("{partition_kib} KiB"),
        ]);
        csv.push_str(&format!(
            "multi-round,{machines},{pct:.3},{partition_points},{partition_kib}\n"
        ));
    }
    print_table(
        "quality and single-machine memory (merge column: points one machine must hold)",
        &["algorithm", "machines", "score", "merge holds", "memory"],
        &rows,
    );
    write_artifact(&ctx.out_dir, "baselines_greedi.csv", &csv);

    // §3's DRAM arithmetic at the paper's scale, reproduced exactly:
    // 5 B keys+values (16 B) + 10 neighbors (8 B id + 8 B distance).
    let five_b = 5_000_000_000u64;
    let bytes = five_b * 16 + five_b * 10 * 16;
    println!(
        "\n§3 check: 5 B-point priority queue + 10-NN lists = {:.0} GB (paper: 880 GB)",
        bytes as f64 / 1e9
    );
}
