//! Deterministic-total suite: concurrent counter/histogram increments at
//! 1/2/8 threads must produce identical snapshots regardless of thread
//! count or interleaving — each counter and histogram bucket is one
//! atomic, and `u64` addition commutes, so the totals are exact.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use proptest::prelude::*;

/// Unique metric names per proptest case (the registry is process-global
/// and proptest reruns cases, so names must not collide across cases).
fn fresh_name(prefix: &str) -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    format!("{prefix}.{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Splits `values` round-robin over `threads` threads, each adding its
/// slice to the counter and recording it into the histogram, then
/// returns (counter total, histogram counts, histogram sum).
fn run_at(
    threads: usize,
    values: &[u64],
    counter_name: &str,
    hist_name: &str,
) -> (u64, Vec<u64>, u64) {
    let counter = submod_obs::counter(counter_name);
    let hist = submod_obs::histogram(hist_name);
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for v in values.iter().skip(t).step_by(threads) {
                    counter.add(*v);
                    hist.record(*v);
                }
            });
        }
    });
    (counter.value(), hist.counts(), submod_obs::snapshot().histograms[hist_name].sum)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The merged totals at 2 and 8 threads equal the single-threaded
    /// ground truth, value for value and bucket for bucket.
    #[test]
    fn concurrent_merge_is_thread_count_invariant(
        values in proptest::collection::vec(0u64..1u64 << 40, 1..200),
    ) {
        let base = fresh_name("t.merge");
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            let got = run_at(
                threads,
                &values,
                &format!("{base}.c{threads}"),
                &format!("{base}.h{threads}"),
            );
            match &reference {
                None => {
                    let expected: u64 = values.iter().sum();
                    prop_assert_eq!(got.0, expected);
                    prop_assert_eq!(got.2, expected);
                    reference = Some(got);
                }
                Some(r) => prop_assert_eq!(&got, r),
            }
        }
    }

    /// Snapshots expose exactly the merged values under sorted names.
    #[test]
    fn snapshot_reflects_concurrent_increments(
        values in proptest::collection::vec(1u64..1u64 << 20, 1..64),
    ) {
        let name = fresh_name("t.snap");
        run_at(8, &values, &name, &format!("{name}.h"));
        let snap = submod_obs::snapshot();
        let expected: u64 = values.iter().sum();
        prop_assert_eq!(snap.counters[&name], expected);
        prop_assert_eq!(snap.histograms[&format!("{name}.h")].sum, expected);
        let total_count: u64 = snap.histograms[&format!("{name}.h")].counts.iter().sum();
        prop_assert_eq!(total_count, values.len() as u64);
    }
}

/// Gauges fold maxima deterministically under contention.
#[test]
fn gauge_max_is_deterministic_across_threads() {
    let gauge = submod_obs::gauge("t.gauge.max8");
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            scope.spawn(move || {
                for i in 0..1000u64 {
                    gauge.fetch_max(t * 1000 + i);
                }
            });
        }
    });
    assert_eq!(gauge.value(), 7999);
}
