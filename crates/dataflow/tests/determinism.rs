//! Thread-count invariance: every engine operation must produce
//! bitwise-identical output at 1, 2, and 8 pool threads. This is the
//! property that lets the distributed drivers in `submod_dist` promise
//! outcome equality with their in-memory references regardless of how
//! the pool is sized.

use submod_dataflow::{MemoryBudget, Pipeline};
use submod_exec::with_threads;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `f` under each thread count and asserts all results are equal
/// (raw, un-sorted — order is part of the contract).
fn assert_invariant<R: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> R) {
    let reference = with_threads(THREAD_COUNTS[0], &f);
    for &threads in &THREAD_COUNTS[1..] {
        let got = with_threads(threads, &f);
        assert_eq!(got, reference, "{what} changed at {threads} threads");
    }
}

#[test]
fn transforms_are_thread_count_invariant() {
    assert_invariant("map/filter/flat_map", || {
        let p = Pipeline::new(4).unwrap();
        let pc = p.from_vec((0u64..2000).collect());
        pc.map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .unwrap()
            .filter(|x| x % 3 != 0)
            .unwrap()
            .flat_map(|x| [(x, 1u64), (x >> 7, 2)])
            .unwrap()
            .collect()
            .unwrap()
    });
}

#[test]
fn group_by_key_is_thread_count_invariant() {
    assert_invariant("group_by_key (in-memory buckets)", || {
        let p = Pipeline::new(4).unwrap();
        let records: Vec<(u64, u64)> = (0..3000).map(|i| (i % 17, i)).collect();
        p.from_vec(records).group_by_key().unwrap().collect().unwrap()
    });
}

#[test]
fn external_shuffle_is_thread_count_invariant() {
    assert_invariant("group_by_key (external sort-merge)", || {
        let p =
            Pipeline::builder().workers(3).memory_budget(MemoryBudget::bytes(512)).build().unwrap();
        let records: Vec<(u64, u64)> = (0..5000).map(|i| (i % 11, i)).collect();
        p.from_vec(records).group_by_key().unwrap().collect().unwrap()
    });
}

#[test]
fn float_aggregations_are_bitwise_invariant() {
    assert_invariant("sum/kth_largest bits", || {
        let p = Pipeline::new(4).unwrap();
        let values: Vec<f64> = (0..2500).map(|i| ((i * 37) as f64).sin() * 1e3).collect();
        let pc = p.from_vec(values);
        (
            pc.sum().unwrap().to_bits(),
            pc.kth_largest(1).unwrap().to_bits(),
            pc.kth_largest(700).unwrap().to_bits(),
            pc.kth_largest(2500).unwrap().to_bits(),
        )
    });
}

#[test]
fn co_group_2_is_thread_count_invariant() {
    assert_invariant("co_group_2", || {
        let p = Pipeline::new(4).unwrap();
        let a = p.from_vec((0u64..600).map(|i| (i % 19, i)).collect::<Vec<_>>());
        let b = p.from_vec((0u64..400).map(|i| (i % 19, i as f32)).collect::<Vec<_>>());
        a.co_group_2(&b).unwrap().collect().unwrap()
    });
}

#[test]
fn generate_is_thread_count_invariant() {
    assert_invariant("generate", || {
        let p = Pipeline::new(5).unwrap();
        p.generate(4000, |i| i.wrapping_mul(31).wrapping_add(7)).unwrap().collect().unwrap()
    });
}

#[test]
fn aggregate_per_key_is_thread_count_invariant() {
    assert_invariant("aggregate_per_key (in-memory tables)", || {
        let p = Pipeline::new(4).unwrap();
        let records: Vec<(u64, f64)> = (0..3000).map(|i| (i % 23, (i as f64).sin())).collect();
        let out = p
            .from_vec(records)
            .aggregate_per_key(0.0f64, |a, v| a + v, |a, b| a + b)
            .unwrap()
            .collect()
            .unwrap();
        // Compare the float bits: the fold order itself must be stable.
        out.into_iter().map(|(k, v)| (k, v.to_bits())).collect::<Vec<_>>()
    });
    assert_invariant("aggregate_per_key (budget flushes)", || {
        let p =
            Pipeline::builder().workers(3).memory_budget(MemoryBudget::bytes(256)).build().unwrap();
        let records: Vec<(u64, f64)> = (0..4000).map(|i| (i % 97, (i as f64).cos())).collect();
        let out = p
            .from_vec(records)
            .aggregate_per_key(0.0f64, |a, v| a + v, |a, b| a + b)
            .unwrap()
            .collect()
            .unwrap();
        out.into_iter().map(|(k, v)| (k, v.to_bits())).collect::<Vec<_>>()
    });
}

#[test]
fn broadcast_joins_are_thread_count_invariant() {
    assert_invariant("broadcast side-input filter", || {
        let p = Pipeline::new(4).unwrap();
        let members = p.broadcast_set(3000, (0u64..3000).filter(|x| x % 7 == 0));
        p.from_vec((0u64..3000).collect())
            .filter(move |x| members.contains(*x))
            .unwrap()
            .collect()
            .unwrap()
    });
}
