use crate::NodeId;

/// The result of a subset-selection run.
///
/// Stores the selected points in selection order, the marginal gain realized
/// at each step, and the final objective value. Selection order matters: for
/// the greedy algorithms the prefix of length `j` is itself the greedy
/// solution of budget `j`.
///
/// ```
/// use submod_core::{NodeId, Selection};
///
/// let sel = Selection::new(vec![NodeId::new(2), NodeId::new(0)], vec![1.5, 0.5], 2.0);
/// assert_eq!(sel.len(), 2);
/// assert_eq!(sel.objective_value(), 2.0);
/// assert_eq!(sel.selected()[0], NodeId::new(2));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Selection {
    selected: Vec<NodeId>,
    /// Marginal gain realized at each selection step (may be empty when
    /// the producing algorithm does not track per-step gains).
    pub(crate) gains: Vec<f64>,
    objective_value: f64,
}

impl Selection {
    /// Creates a selection from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `gains` is non-empty and differs in length from `selected`.
    pub fn new(selected: Vec<NodeId>, gains: Vec<f64>, objective_value: f64) -> Self {
        assert!(
            gains.is_empty() || gains.len() == selected.len(),
            "per-step gains must align with selected points"
        );
        Selection { selected, gains, objective_value }
    }

    /// Selected node ids in selection order.
    #[inline]
    pub fn selected(&self) -> &[NodeId] {
        &self.selected
    }

    /// Final objective value `f(S)` as accounted by the producing algorithm.
    #[inline]
    pub fn objective_value(&self) -> f64 {
        self.objective_value
    }

    /// Number of selected points.
    #[inline]
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// Returns `true` if nothing was selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u64]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn accessors_return_parts() {
        let sel = Selection::new(ids(&[5, 3]), vec![2.0, 1.0], 3.0);
        assert_eq!(sel.selected(), &ids(&[5, 3])[..]);
        assert_eq!(sel.gains, [2.0, 1.0]);
        assert_eq!(sel.objective_value(), 3.0);
        assert!(!sel.is_empty());
    }

    #[test]
    fn empty_selection() {
        let sel = Selection::default();
        assert!(sel.is_empty());
        assert_eq!(sel.len(), 0);
        assert_eq!(sel.objective_value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_gains_panic() {
        let _ = Selection::new(ids(&[1]), vec![1.0, 2.0], 0.0);
    }
}
