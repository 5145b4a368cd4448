//! The end-to-end selection pipeline (paper Algorithm 6): approximate
//! bounding decides what it can, the multi-round distributed greedy fills
//! the remaining budget over the undecided points, and the completed
//! subset is scored on the full graph.

use crate::journal::RunJournal;
use crate::{BoundingConfig, BoundingOutcome, DistError, DistGreedyConfig, Driver};
use submod_core::{
    validate_instance, CoreError, NodeId, NodeSet, PairwiseObjective, Selection, SimilarityGraph,
};

/// Configuration of [`select_subset`]: an optional bounding phase plus the
/// distributed greedy phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineConfig {
    pub(crate) bounding: Option<BoundingConfig>,
    pub(crate) greedy: DistGreedyConfig,
}

impl PipelineConfig {
    /// Bounding followed by distributed greedy — the paper's full system.
    pub fn with_bounding(bounding: BoundingConfig, greedy: DistGreedyConfig) -> Self {
        PipelineConfig { bounding: Some(bounding), greedy }
    }

    /// Distributed greedy over the whole ground set, no bounding.
    pub fn greedy_only(greedy: DistGreedyConfig) -> Self {
        PipelineConfig { bounding: None, greedy }
    }

    /// The bounding configuration, if any.
    pub fn bounding(&self) -> Option<&BoundingConfig> {
        self.bounding.as_ref()
    }

    /// The greedy configuration.
    pub fn greedy(&self) -> &DistGreedyConfig {
        &self.greedy
    }
}

/// The result of a full pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineOutcome {
    /// The final `k`-point selection, scored on the full graph.
    pub selection: Selection,
    /// The bounding phase's outcome when one ran.
    pub bounding: Option<BoundingOutcome>,
}

/// Runs the configured pipeline: bounding (if any) → distributed greedy
/// over the undecided points → completion. Always returns exactly `k`
/// distinct points.
///
/// # Errors
///
/// Returns an error if the objective does not match the graph or `k`
/// exceeds the ground set.
pub fn select_subset(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    config: &PipelineConfig,
) -> Result<PipelineOutcome, DistError> {
    run(graph, objective, k, config, None)
}

/// The one pipeline run, journaled when a journal is given: the bounding
/// cycles and the greedy rounds then commit to the same journal.
pub(crate) fn run(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    config: &PipelineConfig,
    mut journal: Option<&mut RunJournal>,
) -> Result<PipelineOutcome, DistError> {
    let bounding = match &config.bounding {
        Some(bounding_config) => Some(crate::bounding::run(
            Driver::InMemory,
            graph,
            objective,
            k,
            bounding_config,
            journal.as_deref_mut(),
        )?),
        None => None,
    };
    complete(graph, objective, k, bounding, &config.greedy, journal)
}

/// Completes a (possibly partial) bounding outcome into a full `k`-point
/// selection with the distributed greedy algorithm, seeded by
/// `greedy`'s own seed.
///
/// Points the bounding phase already included are fixed; the greedy phase
/// runs over the undecided points with the *residual* objective — each
/// undecided point's utility is discounted by its similarity to the fixed
/// points, exactly the telescoped priorities of Algorithm 2 — so the two
/// phases compose without double counting.
///
/// Passing `bounding: None` runs the greedy phase over the whole ground
/// set.
///
/// # Errors
///
/// Returns an error if the objective does not match the graph, `k`
/// exceeds the ground set, or the bounding outcome is not one a bounding
/// run of this graph can produce: an id out of range, an id included
/// twice, or an id both included and remaining.
pub fn complete_selection(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    bounding: Option<BoundingOutcome>,
    greedy: &DistGreedyConfig,
) -> Result<PipelineOutcome, DistError> {
    complete(graph, objective, k, bounding, greedy, None)
}

/// Checks that `outcome`'s included ids are in range, distinct, and
/// disjoint from its remaining ids. Remaining ids reach the greedy
/// phase, which range-checks them.
fn check_outcome(n: usize, outcome: &BoundingOutcome) -> Result<(), DistError> {
    let mut included = NodeSet::new(n);
    for &v in &outcome.included {
        if v.index() >= n {
            return Err(CoreError::NodeOutOfBounds { node: v.raw(), num_nodes: n }.into());
        }
        if !included.insert(v) {
            return Err(DistError::config(format!("bounding outcome includes node {v} twice")));
        }
    }
    match outcome.remaining.iter().find(|&&v| included.contains(v)) {
        Some(v) => Err(DistError::config(format!(
            "bounding outcome lists node {v} as both included and remaining"
        ))),
        None => Ok(()),
    }
}

fn complete(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    bounding: Option<BoundingOutcome>,
    greedy: &DistGreedyConfig,
    journal: Option<&mut RunJournal>,
) -> Result<PipelineOutcome, DistError> {
    validate_instance(graph, objective, k)?;
    if let Some(outcome) = &bounding {
        check_outcome(graph.num_nodes(), outcome)?;
    }

    let (included, ground, k_remaining) = match &bounding {
        Some(outcome) => {
            (outcome.included.clone(), outcome.remaining.clone(), outcome.k_remaining.min(k))
        }
        None => (Vec::new(), (0..graph.num_nodes()).map(NodeId::from_index).collect::<Vec<_>>(), k),
    };

    let mut chosen = included;
    chosen.truncate(k);
    if k_remaining > 0 && !ground.is_empty() {
        // Residual utilities: discount each point by its fixed neighbors.
        let residual = if chosen.is_empty() {
            objective.clone()
        } else {
            let fixed = NodeSet::from_members(graph.num_nodes(), chosen.iter().copied());
            let ratio = objective.ratio();
            let utilities: Vec<f32> = (0..graph.num_nodes())
                .map(|i| {
                    let v = NodeId::from_index(i);
                    let mut penalty = 0.0f64;
                    for (w, s) in graph.edges(v) {
                        if fixed.contains(w) {
                            penalty += f64::from(s);
                        }
                    }
                    (objective.utility(v) - ratio * penalty) as f32
                })
                .collect();
            PairwiseObjective::new(objective.alpha(), objective.beta(), utilities)?
        };
        let budget = k_remaining.min(ground.len());
        let report = crate::multiround::run(
            Driver::InMemory,
            graph,
            &residual,
            &ground,
            budget,
            greedy,
            journal,
        )?;
        chosen.extend(report.selection.selected());
    }

    // Safety net for degenerate bounding outcomes: fill any open budget
    // from the whole ground set by utility.
    let everyone: Vec<NodeId> = (0..graph.num_nodes()).map(NodeId::from_index).collect();
    crate::multiround::fill_by_utility(graph, objective, &mut chosen, &everyone, k);

    let value = objective.evaluate(graph, &chosen);
    Ok(PipelineOutcome { selection: Selection::new(chosen, Vec::new(), value), bounding })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplingStrategy;
    use submod_core::{greedy_select, GraphBuilder};

    fn instance(n: usize) -> (SimilarityGraph, PairwiseObjective) {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u64 {
            b.add_undirected(v, (v + 1) % n as u64, 0.5).unwrap();
            b.add_undirected(v, (v + 4) % n as u64, 0.25).unwrap();
        }
        let graph = b.build();
        let utilities: Vec<f32> = (0..n).map(|i| 0.2 + ((i * 13) % 50) as f32 / 50.0).collect();
        (graph, PairwiseObjective::from_alpha(0.9, utilities).unwrap())
    }

    #[test]
    fn greedy_only_returns_k_points() {
        let (graph, objective) = instance(50);
        let config = PipelineConfig::greedy_only(DistGreedyConfig::new(4, 2).unwrap());
        let outcome = select_subset(&graph, &objective, 10, &config).unwrap();
        assert_eq!(outcome.selection.len(), 10);
        assert!(outcome.bounding.is_none());
    }

    #[test]
    fn bounding_pipeline_returns_k_points_and_outcome() {
        let (graph, objective) = instance(50);
        for bounding in [
            BoundingConfig::exact(),
            BoundingConfig::approximate(0.5, SamplingStrategy::Uniform, 3).unwrap(),
        ] {
            let config = PipelineConfig::with_bounding(
                bounding,
                DistGreedyConfig::new(3, 2).unwrap().seed(1),
            );
            let outcome = select_subset(&graph, &objective, 12, &config).unwrap();
            assert_eq!(outcome.selection.len(), 12);
            let info = outcome.bounding.as_ref().expect("bounding ran");
            // Every bounding inclusion survives into the final subset.
            for v in &info.included {
                assert!(outcome.selection.selected().contains(v));
            }
            // No duplicates.
            let mut ids: Vec<u64> = outcome.selection.selected().iter().map(|v| v.raw()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 12);
        }
    }

    #[test]
    fn single_machine_completion_tracks_centralized() {
        let (graph, objective) = instance(60);
        let central = greedy_select(&graph, &objective, 12).unwrap().objective_value();
        let config = PipelineConfig::with_bounding(
            BoundingConfig::exact(),
            DistGreedyConfig::new(1, 1).unwrap().seed(1),
        );
        let outcome = select_subset(&graph, &objective, 12, &config).unwrap();
        let ratio = outcome.selection.objective_value() / central;
        assert!(ratio > 0.95, "exact bounding + centralized completion ratio {ratio}");
    }

    #[test]
    fn complete_selection_without_bounding_matches_greedy_only() {
        let (graph, objective) = instance(40);
        let greedy = DistGreedyConfig::new(2, 2).unwrap().seed(7);
        let via_complete = complete_selection(&graph, &objective, 8, None, &greedy).unwrap();
        let via_select =
            select_subset(&graph, &objective, 8, &PipelineConfig::greedy_only(greedy)).unwrap();
        assert_eq!(via_complete.selection.selected(), via_select.selection.selected());
    }

    #[test]
    fn accessors_expose_parts() {
        let greedy = DistGreedyConfig::new(2, 1).unwrap();
        let config = PipelineConfig::with_bounding(BoundingConfig::exact(), greedy.clone());
        assert!(config.bounding().is_some());
        assert_eq!(config.greedy(), &greedy);
        assert!(PipelineConfig::greedy_only(greedy).bounding().is_none());
    }

    #[test]
    fn validation_errors() {
        let (graph, objective) = instance(10);
        let config = PipelineConfig::greedy_only(DistGreedyConfig::new(2, 1).unwrap());
        assert!(select_subset(&graph, &objective, 11, &config).is_err());
    }

    /// `complete_selection` takes a caller-built outcome: an included id
    /// out of range, included twice, or also remaining is refused, where
    /// it used to panic or return duplicate points.
    #[test]
    fn complete_selection_rejects_inconsistent_outcomes() {
        let (graph, objective) = instance(8);
        let greedy = DistGreedyConfig::new(2, 2).unwrap().seed(3);
        let outcome = |included: &[u64], remaining: &[u64]| BoundingOutcome {
            included: included.iter().map(|&v| NodeId::new(v)).collect(),
            excluded_count: 0,
            remaining: remaining.iter().map(|&v| NodeId::new(v)).collect(),
            grow_rounds: 1,
            shrink_rounds: 1,
            k_remaining: 3 - included.len(),
            stats: crate::BoundingStats::default(),
        };
        let run = |bounding| complete_selection(&graph, &objective, 3, Some(bounding), &greedy);
        let others: Vec<u64> = (2..8).collect();
        assert!(matches!(
            run(outcome(&[15], &others)),
            Err(DistError::Core(CoreError::NodeOutOfBounds { node: 15, num_nodes: 8 }))
        ));
        assert!(matches!(run(outcome(&[1, 1], &others)), Err(DistError::InvalidConfig { .. })));
        assert!(matches!(run(outcome(&[2], &[0, 1, 2, 3])), Err(DistError::InvalidConfig { .. })));
        // The same outcomes made consistent complete to 3 distinct points.
        for bounding in [outcome(&[1], &others), outcome(&[2], &[0, 1, 3])] {
            let mut ids = run(bounding).unwrap().selection.selected().to_vec();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 3);
        }
    }
}
