//! Exclusive ("self") time per layer from one repetition's span stream.
//!
//! A span's self time is its duration minus the part its children on the
//! same thread cover. Spans on one thread nest, so the self times of the
//! driver thread's spans under the repetition's root add up to the root's
//! duration: every second of the repetition is charged to exactly one
//! layer, or to the harness when no library span covers it. Spans on pool
//! threads run while the driver waits inside one of its own spans; they
//! are charged to no layer, or the driver's wall clock would be counted
//! twice (the pool's work is metered as CPU time instead, `procfs.rs`).

use crate::adapter::SpanEvent;
use std::collections::HashMap;

/// Name of the harness span around one whole repetition.
pub const ROOT_SPAN: &str = "bench.rep";

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    Knn,
    Dataflow,
    Dist,
    Core,
    /// Harness spans no library span covers, and spans of no known layer.
    Unattributed,
}

/// The layer a span's self time is charged to, from its name.
pub fn layer_of(name: &str) -> Layer {
    if name.starts_with("knn.") {
        Layer::Knn
    } else if name.starts_with("dataflow.") {
        Layer::Dataflow
    } else if name.starts_with("bound.") || name.starts_with("greedy.") {
        Layer::Dist
    } else if name.starts_with("store.")
        || name == "bench.open_store"
        || name == "bench.write_store"
    {
        Layer::Core
    } else {
        Layer::Unattributed
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attribution {
    /// Duration of the root span.
    pub root_s: f64,
    /// Self time on the driver thread by layer, [`Layer::Unattributed`]
    /// included.
    pub self_s: HashMap<Layer, f64>,
}

impl Attribution {
    pub fn layer_s(&self, layer: Layer) -> f64 {
        self.self_s.get(&layer).copied().unwrap_or(0.0)
    }

    /// Sum of every layer's self time; equals `root_s` up to the
    /// microsecond truncation of each span.
    pub fn total_self_s(&self) -> f64 {
        self.self_s.values().sum()
    }
}

/// Attributes the last [`ROOT_SPAN`] in `events`. `None` if there is none.
pub fn attribute(events: &[SpanEvent]) -> Option<Attribution> {
    let root = events.iter().rev().find(|e| e.name == ROOT_SPAN)?;
    let window = root.start_us..=root.start_us + root.dur_us;
    let inside: Vec<&SpanEvent> = events.iter().filter(|e| window.contains(&e.start_us)).collect();
    let tid_of: HashMap<u64, u64> = inside.iter().map(|e| (e.id, e.tid)).collect();

    // What each span's same-thread children cover.
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for e in &inside {
        if tid_of.get(&e.parent) == Some(&e.tid) {
            *covered.entry(e.parent).or_default() += e.dur_us;
        }
    }

    let mut out = Attribution { root_s: root.dur_us as f64 / 1e6, ..Attribution::default() };
    for e in &inside {
        if e.tid == root.tid {
            let own = e.dur_us.saturating_sub(covered.get(&e.id).copied().unwrap_or(0));
            *out.self_s.entry(layer_of(e.name)).or_default() += own as f64 / 1e6;
        }
    }
    Some(out)
}

/// `true` when the layers' self times add up to `wall_s` within
/// `tolerance` (a share of `wall_s`).
pub fn sums_to_total(attribution: &Attribution, wall_s: f64, tolerance: f64) -> bool {
    (attribution.total_self_s() - wall_s).abs() <= tolerance * wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, id: u64, parent: u64, tid: u64, start: u64, dur: u64) -> SpanEvent {
        SpanEvent { name, id, parent, tid, start_us: start, dur_us: dur }
    }

    /// root 0..1000 on thread 1
    /// ├ knn.build      100..400   (nested child knn.search 150..250, same thread)
    /// ├ greedy.run     400..900   (sibling; child dataflow.group_by_key 500..700;
    /// │                            cross-thread child dataflow.fused on thread 2)
    /// └ 200 µs of the root covered by nothing
    fn tree() -> Vec<SpanEvent> {
        vec![
            ev("bench.rep", 1, 0, 1, 0, 1000),
            ev("knn.build", 2, 1, 1, 100, 300),
            ev("knn.search", 3, 2, 1, 150, 100),
            ev("greedy.run", 4, 1, 1, 400, 500),
            ev("dataflow.group_by_key", 5, 4, 1, 500, 200),
            ev("dataflow.fused", 6, 4, 2, 520, 150),
        ]
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let a = attribute(&tree()).unwrap();
        assert_eq!(a.root_s, 1000e-6);
        // knn.build 300 - 100 own, plus the nested child's 100.
        assert!((a.layer_s(Layer::Knn) - 300e-6).abs() < 1e-12);
        // greedy.run keeps the time its cross-thread child overlaps.
        assert!((a.layer_s(Layer::Dist) - 300e-6).abs() < 1e-12);
        assert!((a.layer_s(Layer::Dataflow) - 200e-6).abs() < 1e-12);
        assert!((a.layer_s(Layer::Unattributed) - 200e-6).abs() < 1e-12);
        assert_eq!(a.layer_s(Layer::Core), 0.0);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let a = attribute(&tree()).unwrap();
        assert!((a.total_self_s() - a.root_s).abs() < 1e-12);
        assert!(sums_to_total(&a, 1000e-6, 0.01));
        assert!(sums_to_total(&a, 1008e-6, 0.01));
        assert!(!sums_to_total(&a, 1100e-6, 0.01));
    }

    #[test]
    fn spans_before_the_root_are_ignored_and_the_last_root_wins() {
        let mut events = vec![ev("bench.rep", 90, 0, 1, 0, 10), ev("knn.build", 91, 90, 1, 2, 5)];
        events.extend(tree().into_iter().map(|mut e| {
            e.start_us += 5000;
            e
        }));
        let a = attribute(&events).unwrap();
        assert_eq!(a.root_s, 1000e-6);
        assert!((a.layer_s(Layer::Knn) - 300e-6).abs() < 1e-12);
    }

    #[test]
    fn no_root_no_attribution() {
        assert_eq!(attribute(&[ev("knn.build", 1, 0, 1, 0, 10)]), None);
    }

    #[test]
    fn names_map_to_layers() {
        assert_eq!(layer_of("knn.build"), Layer::Knn);
        assert_eq!(layer_of("dataflow.kth_largest"), Layer::Dataflow);
        assert_eq!(layer_of("bound.pass.grow"), Layer::Dist);
        assert_eq!(layer_of("greedy.round"), Layer::Dist);
        assert_eq!(layer_of("store.open"), Layer::Core);
        assert_eq!(layer_of("bench.open_store"), Layer::Core);
        assert_eq!(layer_of("bench.select"), Layer::Unattributed);
        assert_eq!(layer_of("data.build_instance"), Layer::Unattributed);
    }
}
