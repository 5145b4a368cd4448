//! End-to-end integration tests: the full §6 workflow on synthetic
//! instances, asserting the paper's qualitative claims.

use submod_select::prelude::*;

fn instance() -> SelectionInstance {
    build_instance(&DatasetConfig::tiny().with_seed(1234)).expect("instance")
}

#[test]
fn full_workflow_produces_high_quality_subsets() {
    let instance = instance();
    let k = instance.len() / 10;
    let objective = instance.objective(0.9).unwrap();
    let central = greedy_select(&instance.graph, &objective, k).unwrap();

    let config = PipelineConfig::with_bounding(
        BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 5).unwrap(),
        DistGreedyConfig::new(8, 8).unwrap().adaptive(true).seed(3),
    );
    let outcome = select_subset(&instance.graph, &objective, k, &config).unwrap();
    assert_eq!(outcome.selection.len(), k);
    let ratio = outcome.selection.objective_value() / central.objective_value();
    assert!(ratio > 0.9, "pipeline quality ratio {ratio} below 90 %");
}

#[test]
fn more_rounds_close_the_partition_gap() {
    // Fig. 3 shape: score(1 round) ≤ score(many rounds) ≤ centralized.
    let instance = instance();
    let k = instance.len() / 10;
    let objective = instance.objective(0.9).unwrap();
    let central = greedy_select(&instance.graph, &objective, k).unwrap().objective_value();

    let avg_score = |rounds: usize| -> f64 {
        (0..3)
            .map(|seed| {
                let cfg = PipelineConfig::greedy_only(
                    DistGreedyConfig::new(8, rounds).unwrap().seed(seed),
                );
                select_subset(&instance.graph, &objective, k, &cfg)
                    .unwrap()
                    .selection
                    .objective_value()
            })
            .sum::<f64>()
            / 3.0
    };
    let one = avg_score(1);
    let many = avg_score(8);
    assert!(many >= one, "8 rounds ({many}) must not lose to 1 round ({one})");
    assert!(many <= central * 1.001, "distributed cannot beat centralized by much");
    assert!(many / central > 0.95, "8 rounds should be near-centralized: {}", many / central);
}

#[test]
fn normalized_scores_match_paper_convention() {
    let instance = instance();
    let k = instance.len() / 10;
    let objective = instance.objective(0.5).unwrap();
    let central = greedy_select(&instance.graph, &objective, k).unwrap().objective_value();

    let mut observed = Vec::new();
    for (machines, rounds) in [(2usize, 1usize), (8, 1), (8, 4)] {
        let cfg =
            PipelineConfig::greedy_only(DistGreedyConfig::new(machines, rounds).unwrap().seed(1));
        observed.push(
            select_subset(&instance.graph, &objective, k, &cfg)
                .unwrap()
                .selection
                .objective_value(),
        );
    }
    let normalizer = ScoreNormalizer::new(central, &observed);
    for &score in &observed {
        let pct = normalizer.normalize(score);
        assert!((0.0..=115.0).contains(&pct), "normalized score {pct} out of range");
    }
    assert_eq!(normalizer.normalize(central), 100.0);
    assert_eq!(normalizer.normalize(normalizer.worst()), 0.0);
}

#[test]
fn greedi_union_grows_with_machines_while_multiround_stays_flat() {
    // The motivating systems claim (§2): GreeDi's merge machine must hold
    // m·k points, the multi-round algorithm never more than one partition.
    let instance = instance();
    let k = instance.len() / 10;
    let objective = instance.objective(0.9).unwrap();

    let small = greedi(&instance.graph, &objective, k, 2, PartitionStyle::Random, 1).unwrap();
    let large = greedi(&instance.graph, &objective, k, 16, PartitionStyle::Random, 1).unwrap();
    assert!(large.merge.union_size > small.merge.union_size);
    assert!(large.merge.union_size > k * 8, "16-machine union should approach 16·k");
}

#[test]
fn bounding_behaviour_depends_on_alpha() {
    // §6.2: bounding decides points for α = 0.9, nothing for α ∈ {0.1, 0.5}.
    let instance = instance();
    let k = instance.len() / 10;
    for (alpha, expect_decisions) in [(0.9, true), (0.5, false), (0.1, false)] {
        let objective = instance.objective(alpha).unwrap();
        let outcome =
            bound_in_memory(&instance.graph, &objective, k, &BoundingConfig::exact()).unwrap();
        let decided = outcome.included.len() + outcome.excluded_count;
        if expect_decisions {
            assert!(decided > 0, "alpha=0.9 exact bounding should decide something");
        } else {
            assert_eq!(decided, 0, "alpha={alpha} exact bounding should be indecisive");
        }
    }
}

#[test]
fn subset_members_come_from_the_ground_set_without_duplicates() {
    let instance = instance();
    let k = instance.len() / 5;
    let objective = instance.objective(0.9).unwrap();
    let config = PipelineConfig::with_bounding(
        BoundingConfig::approximate(0.7, SamplingStrategy::Weighted, 2).unwrap(),
        DistGreedyConfig::new(4, 2).unwrap().seed(1),
    );
    let outcome = select_subset(&instance.graph, &objective, k, &config).unwrap();
    let mut ids: Vec<u64> = outcome.selection.selected().iter().map(|n| n.raw()).collect();
    let len_before = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), len_before, "duplicates in final subset");
    assert!(ids.iter().all(|&id| (id as usize) < instance.len()));
}

#[test]
fn selection_value_matches_independent_scoring() {
    let instance = instance();
    let k = instance.len() / 10;
    let objective = instance.objective(0.9).unwrap();
    let config = PipelineConfig::greedy_only(DistGreedyConfig::new(4, 4).unwrap());
    let outcome = select_subset(&instance.graph, &objective, k, &config).unwrap();
    // Rescore as the telescoping sum of marginal gains in pick order, a
    // different computation from the `evaluate` call the driver made.
    let mut members = NodeSet::new(instance.len());
    let mut rescored = 0.0;
    for &v in outcome.selection.selected() {
        rescored += objective.marginal_gain(&instance.graph, &members, v);
        members.insert(v);
    }
    let reported = outcome.selection.objective_value();
    assert!(
        (reported - rescored).abs() <= 1e-9 * reported.abs().max(1.0),
        "{reported} vs {rescored}"
    );
}
