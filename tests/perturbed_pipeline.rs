//! End-to-end selection on the perturbed (billion-scale-analogue)
//! dataset: the §6.3 workflow as an integration test.

use submod_select::prelude::*;

fn perturbed() -> (SimilarityGraph, Vec<f32>, PerturbedDataset) {
    let base =
        build_instance(&DatasetConfig::tiny().with_points_per_class(15).with_seed(63)).unwrap();
    let perturbed = PerturbedDataset::new(&base, 1_000, 0.02, 8).unwrap();
    let (graph, utilities) = perturbed.materialize(4).unwrap();
    (graph, utilities, perturbed)
}

#[test]
fn materialized_slice_supports_full_pipeline() {
    let (graph, utilities, virtual_set) = perturbed();
    assert_eq!(graph.num_nodes(), 300 * 4);
    assert_eq!(virtual_set.total_points(), 300 * 1_000);
    let objective = PairwiseObjective::from_alpha(0.9, utilities).unwrap();
    let k = graph.num_nodes() / 10;

    let config = PipelineConfig::with_bounding(
        BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 5).unwrap(),
        DistGreedyConfig::new(16, 2).unwrap().adaptive(true).seed(1),
    );
    let outcome = select_subset(&graph, &objective, k, &config).unwrap();
    assert_eq!(outcome.selection.len(), k);
    let bounding = outcome.bounding.unwrap();
    assert!(
        bounding.decision_fraction(graph.num_nodes()) > 0.3,
        "perturbed data is near-duplicate-heavy; bounding should decide a lot, got {:.2}",
        bounding.decision_fraction(graph.num_nodes())
    );
}

#[test]
fn rounds_improve_scores_on_perturbed_data() {
    // §6.3's observation, as a hard assertion on averages.
    let (graph, utilities, _) = perturbed();
    let objective = PairwiseObjective::from_alpha(0.9, utilities).unwrap();
    let ground: Vec<NodeId> = (0..graph.num_nodes()).map(NodeId::from_index).collect();
    let k = graph.num_nodes() / 10;
    let avg = |rounds: usize| -> f64 {
        (0..3)
            .map(|seed| {
                let config = DistGreedyConfig::new(16, rounds).unwrap().seed(seed).adaptive(false);
                distributed_greedy(&graph, &objective, &ground, k, &config)
                    .unwrap()
                    .selection
                    .objective_value()
            })
            .sum::<f64>()
            / 3.0
    };
    let one = avg(1);
    let eight = avg(8);
    assert!(eight >= one, "8 rounds ({eight}) must not lose to 1 round ({one})");
}

#[test]
fn virtual_and_materialized_utilities_agree() {
    // The materialized slice is the virtual view bit for bit: every
    // utility, and every row as `neighbors(i)` keeps it with `w > 0`,
    // weight bits included. f = 2 and 3 wrap the sibling ring onto itself.
    for seed in [64, 65] {
        let base = build_instance(&DatasetConfig::tiny().with_points_per_class(10).with_seed(seed))
            .unwrap();
        let full = PerturbedDataset::new(&base, 100, 0.02, 9).unwrap();
        for f in [1, 2, 3, 4, 5, 10] {
            let (graph, utilities) = full.materialize(f).unwrap();
            let scaled = PerturbedDataset::new(&base, f, 0.02, 9).unwrap();
            assert_eq!(graph.num_nodes() as u64, scaled.total_points());
            for i in 0..scaled.total_points() {
                assert_eq!(
                    utilities[i as usize].to_bits(),
                    scaled.utility(i).to_bits(),
                    "utility {i} at f = {f}, base seed {seed}"
                );
                let virtual_row: Vec<(u64, u32)> = scaled
                    .neighbors(i)
                    .into_iter()
                    .filter(|&(_, w)| w > 0.0)
                    .map(|(id, w)| (id, w.to_bits()))
                    .collect();
                let row: Vec<(u64, u32)> =
                    graph.edges(NodeId::new(i)).map(|(nb, w)| (nb.raw(), w.to_bits())).collect();
                assert_eq!(row, virtual_row, "row {i} at f = {f}, base seed {seed}");
            }
        }
    }
}

#[test]
fn streaming_statistics_match_direct_iteration() {
    let (_, _, virtual_set) = perturbed();
    let pipeline = Pipeline::new(4).unwrap();
    let sample = 5_000u64;
    let v = virtual_set.clone();
    let streamed = pipeline.generate(sample, move |i| v.utility(i * 7) as f64).unwrap();
    let streamed_sum = streamed.sum().unwrap();
    let direct_sum: f64 = (0..sample).map(|i| virtual_set.utility(i * 7) as f64).sum();
    assert!((streamed_sum - direct_sum).abs() < 1e-6 * direct_sum.abs().max(1.0));
}
