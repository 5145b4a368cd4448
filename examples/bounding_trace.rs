//! Reproduces the paper's **Figure 1**: a walkthrough of distributed
//! bounding finding a 50 % subset of 6 data points.
//!
//! Prints the minimum/maximum utilities of every point and the grow /
//! shrink decisions, pass by pass.
//!
//! ```text
//! cargo run --release --example bounding_trace
//! ```

use submod_select::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Six points: two similar pairs (0,1) and (2,3) plus two loners (4,5),
    // echoing Figure 1's layout.
    let mut builder = GraphBuilder::new(6);
    builder.add_undirected(0, 1, 0.8)?;
    builder.add_undirected(2, 3, 0.7)?;
    builder.add_undirected(1, 2, 0.3)?;
    let graph = builder.build();
    let utilities = vec![0.9, 0.6, 0.8, 0.5, 0.75, 0.1];
    let objective = PairwiseObjective::from_alpha(0.7, utilities.clone())?;
    let k = 3;

    println!("ground set: 6 points, target: 50 % subset (k = {k}), alpha = 0.7\n");
    println!("initial bounds (U_min considers all neighbors, U_max only selected ones):");
    println!("{:>6} {:>9} {:>9} {:>9}", "point", "utility", "U_min", "U_max");
    for v in 0..6u64 {
        let vid = NodeId::new(v);
        let umin = objective.utility(vid) - objective.ratio() * graph.weighted_degree(vid);
        let umax = objective.utility(vid);
        println!("{v:>6} {:>9.3} {umin:>9.3} {umax:>9.3}", objective.utility(vid));
    }

    let outcome = bound_in_memory(&graph, &objective, k, &BoundingConfig::exact())?;
    println!("\nexact bounding result:");
    println!("  grow passes:   {}", outcome.grow_rounds);
    println!("  shrink passes: {}", outcome.shrink_rounds);
    println!("  included: {:?}", outcome.included.iter().map(|n| n.raw()).collect::<Vec<_>>());
    println!("  remaining: {:?}", outcome.remaining.iter().map(|n| n.raw()).collect::<Vec<_>>());
    println!("  excluded: {} point(s)", outcome.excluded_count);

    // The same run on the dataflow engine keeps the bound table
    // engine-resident: the driver only ever sees the candidate lists.
    let pipeline = Pipeline::new(2)?;
    let df_outcome = bound_dataflow(&pipeline, &graph, &objective, k, &BoundingConfig::exact())?;
    // Only the driver-side stats differ between the drivers.
    let df_decisions = BoundingOutcome { stats: outcome.stats, ..df_outcome.clone() };
    assert_eq!(outcome, df_decisions, "drivers must agree bit for bit");
    println!("\ndriver-side memory (per-pass peak):");
    println!("  in-memory driver : {} bytes (full bound table)", outcome.stats.peak_pass_bytes);
    println!("  dataflow driver  : {} bytes (candidates only)", df_outcome.stats.peak_pass_bytes);

    if !outcome.is_complete() {
        println!("\nbounding left {} point(s) undecided;", outcome.k_remaining);
        println!("completing with the distributed greedy algorithm:");
        let config =
            PipelineConfig::with_bounding(BoundingConfig::exact(), DistGreedyConfig::new(2, 2)?);
        let full = select_subset(&graph, &objective, k, &config)?;
        println!(
            "  final subset: {:?}  f(S) = {:.4}",
            full.selection.selected().iter().map(|n| n.raw()).collect::<Vec<_>>(),
            full.selection.objective_value()
        );
    }

    // Compare against the centralized reference.
    let central = greedy_select(&graph, &objective, k)?;
    println!(
        "\ncentralized greedy picks {:?} with f(S) = {:.4}",
        central.selected().iter().map(|n| n.raw()).collect::<Vec<_>>(),
        central.objective_value()
    );
    Ok(())
}
