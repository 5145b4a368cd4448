//! Cross-strategy integration tests: the centralized reference, GreeDi
//! and the multi-round greedy on one instance, with the quality ordering
//! the paper's arguments predict.

use submod_select::prelude::*;

fn instance() -> SelectionInstance {
    build_instance(&DatasetConfig::tiny().with_points_per_class(30).with_seed(2024))
        .expect("instance")
}

#[test]
fn all_strategies_produce_valid_subsets() {
    let instance = instance();
    let k = instance.len() / 10;
    let objective = instance.objective(0.9).unwrap();
    let ground: Vec<NodeId> = (0..instance.len()).map(NodeId::from_index).collect();

    let central = greedy_select(&instance.graph, &objective, k).unwrap();
    let gd = greedi(&instance.graph, &objective, k, 4, PartitionStyle::Random, 1).unwrap();
    let multi = distributed_greedy(
        &instance.graph,
        &objective,
        &ground,
        k,
        &DistGreedyConfig::new(4, 4).unwrap().seed(1),
    )
    .unwrap();

    // Every strategy returns a duplicate-free subset of the right size.
    for (name, sel) in [
        ("central", central.selected()),
        ("greedi", gd.selection.selected()),
        ("multiround", multi.selection.selected()),
    ] {
        assert_eq!(sel.len(), k, "{name} size");
        let mut ids: Vec<u64> = sel.iter().map(|n| n.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), k, "{name} duplicates");
    }

    // Quality ordering: every approximation stays within 15 % of central.
    let central_value = central.objective_value();
    for (name, value) in [
        ("greedi", gd.selection.objective_value()),
        ("multiround", multi.selection.objective_value()),
    ] {
        assert!(
            value > central_value * 0.85,
            "{name} quality {value} too far below centralized {central_value}"
        );
    }
}

#[test]
fn dataflow_greedy_matches_in_memory_bitwise() {
    let instance = instance();
    let k = instance.len() / 10;
    let objective = instance.objective(0.9).unwrap();
    let ground: Vec<NodeId> = (0..instance.len()).map(NodeId::from_index).collect();
    let config = DistGreedyConfig::new(4, 3).unwrap().seed(5);

    let mem = distributed_greedy(&instance.graph, &objective, &ground, k, &config).unwrap();
    let pipeline = Pipeline::new(4).unwrap();
    let df = submod_dist::distributed_greedy_dataflow(
        &pipeline,
        &instance.graph,
        &objective,
        &ground,
        k,
        &config,
    )
    .unwrap();
    assert_eq!(df.selection.len(), k);
    // Since PR 5 the drivers share keying and step arithmetic: the
    // dataflow selection is the in-memory selection, bit for bit.
    assert_eq!(df.selection.selected(), mem.selection.selected());
    assert_eq!(df.selection.objective_value().to_bits(), mem.selection.objective_value().to_bits());
    assert_eq!(df.rounds, mem.rounds);
}

#[test]
fn geometric_schedule_is_competitive() {
    let instance = instance();
    let k = instance.len() / 10;
    let objective = instance.objective(0.9).unwrap();
    let ground: Vec<NodeId> = (0..instance.len()).map(NodeId::from_index).collect();

    let linear = distributed_greedy(
        &instance.graph,
        &objective,
        &ground,
        k,
        &DistGreedyConfig::new(8, 4).unwrap().seed(9),
    )
    .unwrap();
    let geometric = distributed_greedy(
        &instance.graph,
        &objective,
        &ground,
        k,
        &DistGreedyConfig::new(8, 4).unwrap().schedule(DeltaSchedule::Geometric).seed(9),
    )
    .unwrap();
    assert_eq!(geometric.selection.len(), k);
    let ratio = geometric.selection.objective_value() / linear.selection.objective_value();
    assert!(ratio > 0.85, "geometric schedule quality ratio {ratio}");
    // Geometric shrinks harder in round 1.
    assert!(geometric.rounds[0].target <= linear.rounds[0].target);
}

#[test]
fn bounding_reduces_greedy_workload() {
    // The §6.2 systems payoff: after approximate bounding, the greedy
    // phase processes a much smaller ground set.
    let instance = instance();
    let k = instance.len() / 10;
    let objective = instance.objective(0.9).unwrap();
    let outcome = bound_in_memory(
        &instance.graph,
        &objective,
        k,
        &BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 4).unwrap(),
    )
    .unwrap();
    assert!(
        outcome.remaining.len() < instance.len() / 2,
        "bounding should at least halve the ground set ({} of {})",
        outcome.remaining.len(),
        instance.len()
    );
}
