//! Table 3: worst-case partitioning ablation (§6.4) — the centralized
//! solution is adversarially placed into a single partition in round 1.

use crate::common::BenchCtx;
use crate::output::{print_table, write_artifact};
use submod_core::{greedy_select, NodeId, ScoreNormalizer};
use submod_dist::{distributed_greedy, DistGreedyConfig};

/// Runs Table 3 on the CIFAR-like dataset: 10 partitions, 10 % subset,
/// random vs adversarial first-round assignment, non-adaptive and
/// adaptive, rounds ∈ {1, 8, 16, 32}.
pub fn table3(ctx: &BenchCtx) {
    println!("table 3: worst-case partitioning ablation (10 partitions, 10 % subset)");
    let instance = ctx.cifar();
    let objective = instance.objective(0.9).expect("objective");
    let k = instance.len() / 10;
    let ground: Vec<NodeId> = (0..instance.len()).map(NodeId::from_index).collect();
    let central = greedy_select(&instance.graph, &objective, k).expect("greedy");
    let centralized = central.objective_value();
    let rounds_axis: &[usize] = if ctx.quick { &[1, 8] } else { &[1, 8, 16, 32] };

    // Collect every raw score first so the normalization group matches the
    // paper's convention.
    let mut raw: Vec<(bool, bool, usize, f64)> = Vec::new(); // (adversarial, adaptive, rounds, score)
    for &adversarial in &[false, true] {
        for &adaptive in &[false, true] {
            for &rounds in rounds_axis {
                let mut config = DistGreedyConfig::new(10, rounds)
                    .expect("config")
                    .adaptive(adaptive)
                    .seed(17 + rounds as u64);
                if adversarial {
                    config = config.adversarial_first_round(central.selected().to_vec());
                }
                let score = distributed_greedy(&instance.graph, &objective, &ground, k, &config)
                    .expect("distributed")
                    .selection
                    .objective_value();
                raw.push((adversarial, adaptive, rounds, score));
            }
        }
    }
    let normalizer =
        ScoreNormalizer::new(centralized, &raw.iter().map(|&(_, _, _, s)| s).collect::<Vec<_>>());

    let lookup = |adversarial: bool, adaptive: bool, rounds: usize| -> f64 {
        raw.iter()
            .find(|&&(a, d, r, _)| a == adversarial && d == adaptive && r == rounds)
            .map(|&(_, _, _, s)| normalizer.normalize(s))
            .unwrap_or(f64::NAN)
    };

    let mut rows = Vec::new();
    let mut csv = String::from("partitioning,rounds,nonadaptive_pct,adaptive_pct\n");
    for &(label, adversarial) in
        &[("random partitioning", false), ("solution in one partition", true)]
    {
        for &rounds in rounds_axis {
            let na = lookup(adversarial, false, rounds);
            let ad = lookup(adversarial, true, rounds);
            rows.push(vec![
                label.to_string(),
                rounds.to_string(),
                format!("{na:.0} %"),
                format!("{ad:.0} %"),
            ]);
            csv.push_str(&format!("{label},{rounds},{na:.2},{ad:.2}\n"));
        }
    }
    print_table(
        "normalized scores (non-adaptive / adaptive)",
        &["partitioning", "rounds", "non-adaptive", "adaptive"],
        &rows,
    );
    write_artifact(&ctx.out_dir, "table3_worstcase.csv", &csv);

    // Paper's headline: the multi-round penalty for worst-case
    // partitioning is only a few points.
    if rounds_axis.contains(&32) {
        let gap_1 = lookup(false, false, 1) - lookup(true, false, 1);
        let gap_32 = lookup(false, false, 32) - lookup(true, false, 32);
        println!(
            "\nworst-case penalty: {gap_1:.0} points at 1 round vs {gap_32:.0} points at 32 rounds \
             (paper: 17 → 2-3 points)"
        );
    }
}
