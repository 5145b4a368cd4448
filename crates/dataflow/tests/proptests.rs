//! Property-based tests for the dataflow engine: codec roundtrips and
//! transform correctness against in-memory references, with and without
//! memory pressure.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use submod_dataflow::{MemoryBudget, PCollection, Pipeline, Record};

// The operators of a random chain (`op % 4` picks one; `salt` is the
// operator's position), shared by the deferred, eager and `Vec` versions.
fn scramble(x: u64, salt: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ salt
}
fn keep(x: u64, salt: u64) -> bool {
    x % 3 != salt % 3
}
fn fan_out(x: u64) -> Vec<u64> {
    if x.is_multiple_of(5) {
        vec![x, x ^ 0xABCD]
    } else {
        vec![x]
    }
}
fn flip(x: u64, salt: u64) -> u64 {
    x ^ (0x5A5A + salt)
}

/// Applies the chain's operator `op` at position `salt`, deferred.
fn apply_op(current: &PCollection<u64>, salt: u64, op: u32) -> PCollection<u64> {
    match op % 4 {
        0 => current.map(move |x| scramble(x, salt)),
        1 => current.filter(move |&x| keep(x, salt)),
        2 => current.flat_map(fan_out),
        _ => current.map(move |x| flip(x, salt)),
    }
    .unwrap()
}

/// Applies a random chain of deferred operators (`map`, `filter`,
/// `flat_map`), which fuse into one pass per shard.
fn apply_chain(source: &PCollection<u64>, ops: &[u32]) -> PCollection<u64> {
    ops.iter()
        .enumerate()
        .fold(source.clone(), |current, (i, &op)| apply_op(&current, i as u64, op))
}

/// The same chain run eagerly: a `materialize()` barrier after every
/// operator, so each operator is its own pass.
fn apply_chain_eager(source: &PCollection<u64>, ops: &[u32]) -> PCollection<u64> {
    ops.iter().enumerate().fold(source.clone(), |current, (i, &op)| {
        apply_op(&current, i as u64, op).materialize().unwrap()
    })
}

/// The same chain as a plain iterator chain over the input.
fn apply_chain_vec(data: &[u64], ops: &[u32]) -> Vec<u64> {
    let mut current = data.to_vec();
    for (i, &op) in ops.iter().enumerate() {
        let salt = i as u64;
        current = match op % 4 {
            0 => current.into_iter().map(|x| scramble(x, salt)).collect(),
            1 => current.into_iter().filter(|&x| keep(x, salt)).collect(),
            2 => current.into_iter().flat_map(fan_out).collect(),
            _ => current.into_iter().map(|x| flip(x, salt)).collect(),
        };
    }
    current
}

fn roundtrip<T: Record + PartialEq + std::fmt::Debug>(value: &T) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    let mut slice = buf.as_slice();
    let decoded = T::decode(&mut slice).expect("decode");
    prop_assert_eq!(&decoded, value);
    prop_assert!(slice.is_empty(), "left {} bytes", slice.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn codec_roundtrips_primitives(
        a in any::<u64>(), b in any::<i64>(), c in any::<f32>(), d in any::<bool>(),
    ) {
        prop_assume!(!c.is_nan());
        roundtrip(&a)?;
        roundtrip(&b)?;
        roundtrip(&c)?;
        roundtrip(&d)?;
        roundtrip(&(a, b, c, d))?;
    }

    #[test]
    fn codec_roundtrips_containers(
        v in proptest::collection::vec((any::<u64>(), 0.0f32..1.0), 0..50),
        s in "[a-zA-Z0-9 ]{0,40}",
        o in proptest::option::of(any::<u32>()),
    ) {
        roundtrip(&v)?;
        roundtrip(&s)?;
        roundtrip(&o)?;
        roundtrip(&(s.clone(), v.clone()))?;
    }

    /// Concatenated encodings decode back record by record — the framing
    /// the shuffle relies on.
    #[test]
    fn codec_sequences_decode_in_order(records in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..40)) {
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut slice = buf.as_slice();
        for r in &records {
            let decoded = <(u64, u32)>::decode(&mut slice).expect("decode");
            prop_assert_eq!(&decoded, r);
        }
        prop_assert!(slice.is_empty());
    }

    /// map/filter/count agree with the iterator reference for any input
    /// and any worker count.
    #[test]
    fn transforms_match_iterator_reference(
        data in proptest::collection::vec(any::<u64>(), 0..500),
        workers in 1usize..8,
    ) {
        let pipeline = Pipeline::new(workers).unwrap();
        let pc = pipeline.from_vec(data.clone());
        let mapped: Vec<u64> = {
            let mut v = pc.map(|x| x ^ 0xFF).unwrap().collect().unwrap();
            v.sort_unstable();
            v
        };
        let mut expected: Vec<u64> = data.iter().map(|x| x ^ 0xFF).collect();
        expected.sort_unstable();
        prop_assert_eq!(mapped, expected);

        let kept = pc.filter(|x| x % 3 == 0).unwrap().count().unwrap();
        prop_assert_eq!(kept, data.iter().filter(|x| **x % 3 == 0).count() as u64);
    }

    /// group_by_key equals the HashMap reference for arbitrary data, with
    /// and without a crushing memory budget.
    #[test]
    fn group_by_key_matches_reference(
        data in proptest::collection::vec((0u64..40, any::<u32>()), 0..400),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let mut builder = Pipeline::builder().workers(workers);
        if tiny_budget {
            builder = builder.memory_budget(MemoryBudget::bytes(512));
        }
        let pipeline = builder.build().unwrap();
        let grouped = pipeline.from_vec(data.clone()).group_by_key().unwrap();
        let ours: HashMap<u64, Vec<u32>> = grouped
            .collect()
            .unwrap()
            .into_iter()
            .map(|(k, mut v)| { v.sort_unstable(); (k, v) })
            .collect();
        let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
        for (k, v) in data {
            reference.entry(k).or_default().push(v);
        }
        for v in reference.values_mut() {
            v.sort_unstable();
        }
        prop_assert_eq!(ours, reference);
    }

    /// kth_largest equals the sort-based reference for every valid k.
    #[test]
    fn kth_largest_matches_sort(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let pipeline = Pipeline::new(3).unwrap();
        let pc = pipeline.from_vec(values.clone());
        let mut sorted = values;
        sorted.sort_by(|a, b| b.total_cmp(a));
        for k in [1usize, sorted.len() / 2 + 1, sorted.len()] {
            let got = pc.kth_largest(k as u64).unwrap();
            prop_assert_eq!(got, sorted[k - 1], "k = {}", k);
        }
    }

    /// Adversarial kth_largest: values drawn from a tiny pool so the
    /// collection is saturated with duplicates (ties are where a
    /// bisection can come off the rails), checked at **every** index —
    /// both ends included — against the in-memory sort, across worker
    /// counts and under a spilling budget.
    #[test]
    fn kth_largest_with_heavy_duplicates_matches_sort(
        picks in proptest::collection::vec(0usize..4, 1..120),
        pool in proptest::collection::vec(-1e3f64..1e3, 4..5),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let values: Vec<f64> = picks.iter().map(|&i| pool[i]).collect();
        let mut builder = Pipeline::builder().workers(workers);
        if tiny_budget {
            builder = builder.memory_budget(MemoryBudget::bytes(128));
        }
        let pipeline = builder.build().unwrap();
        // Route through a map so the records land in budget-checked sinks.
        let pc = pipeline.from_vec(values.clone()).map(|x| x).unwrap();
        let mut sorted = values;
        sorted.sort_by(|a, b| b.total_cmp(a));
        for k in 1..=sorted.len() {
            let got = pc.kth_largest(k as u64).unwrap();
            prop_assert_eq!(got.to_bits(), sorted[k - 1].to_bits(), "k = {}", k);
        }
    }

    /// All-equal collections: every order statistic is that value, bit
    /// for bit.
    #[test]
    fn kth_largest_all_equal(value in -1e9f64..1e9, len in 1usize..60) {
        let pipeline = Pipeline::new(4).unwrap();
        let pc = pipeline.from_vec(vec![value; len]);
        for k in [1, len.div_ceil(2), len] {
            prop_assert_eq!(pc.kth_largest(k as u64).unwrap().to_bits(), value.to_bits());
        }
    }

    /// aggregate_per_key(sum) equals the HashMap reference under any
    /// sharding and budget.
    #[test]
    fn aggregate_per_key_matches_reference(
        data in proptest::collection::vec((0u64..25, 0u64..1000), 0..300),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let mut builder = Pipeline::builder().workers(workers);
        if tiny_budget {
            builder = builder.memory_budget(MemoryBudget::bytes(256));
        }
        let pipeline = builder.build().unwrap();
        let mut ours: Vec<(u64, u64)> = pipeline
            .from_vec(data.clone())
            .aggregate_per_key(0u64, |a, v| a + v, |a, b| a + b)
            .unwrap()
            .collect()
            .unwrap();
        ours.sort_unstable();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for (k, v) in data {
            *reference.entry(k).or_default() += v;
        }
        let mut expected: Vec<(u64, u64)> = reference.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(ours, expected);
    }

    /// Extreme-value order statistics (negative zero, subnormals, the
    /// f64 extremes) come back bit for bit at every index.
    #[test]
    fn kth_largest_extreme_values_match_sort(workers in 1usize..6) {
        let values =
            vec![-0.0f64, 0.0, f64::MIN_POSITIVE / 2.0, f64::MAX, f64::MIN, 1.0, -1.0, 0.0];
        let pipeline = Pipeline::new(workers).unwrap();
        let pc = pipeline.from_vec(values.clone());
        let mut sorted = values;
        sorted.sort_by(|a, b| b.total_cmp(a));
        for k in 1..=sorted.len() {
            let got = pc.kth_largest(k as u64).unwrap();
            prop_assert_eq!(got.to_bits(), sorted[k - 1].to_bits(), "k = {}", k);
        }
    }

    /// Operator fusion is invisible: any random deferred chain yields the
    /// same records, bit for bit and in order, as the chain run one eager
    /// pass per operator and as a plain iterator chain, under any worker
    /// count and with or without a spilling budget.
    #[test]
    fn fused_chains_match_eager_and_vec_references(
        data in proptest::collection::vec(any::<u64>(), 0..300),
        ops in proptest::collection::vec(0u32..4, 1..8),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let mut builder = Pipeline::builder().workers(workers);
        if tiny_budget {
            builder = builder.memory_budget(MemoryBudget::bytes(256));
        }
        let pipeline = builder.build().unwrap();
        let source = pipeline.from_vec(data.clone());
        let fused = apply_chain(&source, &ops).collect().unwrap();
        if !data.is_empty() {
            prop_assert!(pipeline.metrics().stages_fused > 0, "chain did not fuse");
        }
        prop_assert_eq!(&fused, &apply_chain_eager(&source, &ops).collect().unwrap());
        prop_assert_eq!(&fused, &apply_chain_vec(&data, &ops));
    }

    /// Fused chains feed shuffles with the exact same contents the eager
    /// chain produces: group_by_key downstream of a random chain matches
    /// group for group, value order included, and holds the values the
    /// iterator chain puts under each key.
    #[test]
    fn fused_chains_preserve_shuffle_contents(
        data in proptest::collection::vec(any::<u64>(), 0..250),
        ops in proptest::collection::vec(0u32..4, 1..6),
        workers in 1usize..5,
    ) {
        let pipeline = Pipeline::new(workers).unwrap();
        let source = pipeline.from_vec(data.clone());
        let grouped = |chained: PCollection<u64>| {
            let mut groups =
                chained.map(|x| (x % 8, x)).unwrap().group_by_key().unwrap().collect().unwrap();
            groups.sort_by_key(|&(k, _)| k);
            groups
        };
        let fused = grouped(apply_chain(&source, &ops));
        prop_assert_eq!(&fused, &grouped(apply_chain_eager(&source, &ops)));
        let mut reference: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for x in apply_chain_vec(&data, &ops) {
            reference.entry(x % 8).or_default().push(x);
        }
        let mut fused: BTreeMap<u64, Vec<u64>> = fused.into_iter().collect();
        for values in fused.values_mut().chain(reference.values_mut()) {
            values.sort_unstable();
        }
        prop_assert_eq!(fused, reference);
    }
}
