//! Property-based tests for the dataflow engine: codec roundtrips and
//! transform correctness against in-memory references, with and without
//! memory pressure.

use proptest::prelude::*;
use std::collections::HashMap;
use submod_dataflow::{Either2, MemoryBudget, PCollection, Pipeline, Record};

/// Applies a random operator chain (maps, filters, flat_maps — all
/// deferrable) to a collection; the same chain must produce bitwise
/// identical results whether the stages fuse or run eagerly.
fn apply_chain(source: &PCollection<u64>, ops: &[u32]) -> PCollection<u64> {
    let mut current = source.clone();
    for (i, &op) in ops.iter().enumerate() {
        let salt = i as u64;
        current = match op % 4 {
            0 => current.map(move |x| x.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ salt).unwrap(),
            1 => current.filter(move |&x| x % 3 != salt % 3).unwrap(),
            2 => current
                .flat_map(move |x| if x % 5 == 0 { vec![x, x ^ 0xABCD] } else { vec![x] })
                .unwrap(),
            _ => current.map(move |x| x ^ (0x5A5A + salt)).unwrap(),
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

    #[test]
    fn codec_roundtrips_eithers(x in any::<u64>(), y in 0.0f64..1.0) {
        roundtrip(&Either2::<u64, f64>::Left(x))?;
        roundtrip(&Either2::<u64, f64>::Right(y))?;
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

    /// argmax_per_key equals the fold reference (same comparator) for
    /// arbitrary data, any worker count, with and without a crushing
    /// budget.
    #[test]
    fn argmax_per_key_matches_reference(
        data in proptest::collection::vec((0u64..12, 0u64..60, -1e6f64..1e6), 1..300),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let records: Vec<(u64, (u64, f64))> =
            data.into_iter().map(|(k, id, score)| (k, (id, score))).collect();
        let mut builder = Pipeline::builder().workers(workers);
        if tiny_budget {
            builder = builder.memory_budget(MemoryBudget::bytes(128));
        }
        let pipeline = builder.build().unwrap();
        let mut ours = pipeline.from_vec(records.clone()).argmax_per_key().unwrap()
            .collect().unwrap();
        ours.sort_by_key(|&(k, _)| k);
        let mut reference: HashMap<u64, (u64, f64)> = HashMap::new();
        for (k, best) in records {
            match reference.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => { e.insert(best); }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if submod_dataflow::argmax_prefers(*e.get(), best) {
                        e.insert(best);
                    }
                }
            }
        }
        let mut expected: Vec<(u64, (u64, f64))> = reference.into_iter().collect();
        expected.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(&ours, &expected);
        for ((_, (id_a, score_a)), (_, (id_b, score_b))) in ours.iter().zip(&expected) {
            prop_assert_eq!(id_a, id_b);
            prop_assert_eq!(score_a.to_bits(), score_b.to_bits());
        }
    }

    /// Adversarial argmax ties: scores drawn from a tiny pool so
    /// duplication saturates every key; the winner must always be the
    /// smallest id of the top score class, under any sharding, budget,
    /// and flush pattern.
    #[test]
    fn argmax_per_key_heavy_ties_pick_smallest_id(
        picks in proptest::collection::vec((0u64..6, 0u64..40, 0usize..3), 1..200),
        pool in proptest::collection::vec(-1e3f64..1e3, 3..4),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let records: Vec<(u64, (u64, f64))> =
            picks.iter().map(|&(k, id, i)| (k, (id, pool[i]))).collect();
        let mut builder = Pipeline::builder().workers(workers);
        if tiny_budget {
            builder = builder.memory_budget(MemoryBudget::bytes(96));
        }
        let pipeline = builder.build().unwrap();
        let out = pipeline.from_vec(records.clone()).argmax_per_key().unwrap()
            .collect().unwrap();
        for (key, (id, score)) in out {
            let of_key: Vec<(u64, f64)> =
                records.iter().filter(|&&(k, _)| k == key).map(|&(_, v)| v).collect();
            let top = of_key.iter().map(|&(_, s)| s).fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(score, top, "key {} winner not the top score", key);
            let min_id = of_key.iter().filter(|&&(_, s)| s == top).map(|&(i, _)| i)
                .min().expect("top class non-empty");
            prop_assert_eq!(id, min_id, "key {} tie not broken to the smallest id", key);
        }
    }

    /// All-equal scores: every key's winner is its smallest id, with the
    /// score bits preserved exactly.
    #[test]
    fn argmax_per_key_all_equal_scores(
        score in -1e9f64..1e9,
        ids in proptest::collection::vec(0u64..1000, 1..60),
        workers in 1usize..6,
    ) {
        let records: Vec<(u64, (u64, f64))> = ids.iter().map(|&id| (0u64, (id, score))).collect();
        let pipeline = Pipeline::new(workers).unwrap();
        let out = pipeline.from_vec(records).argmax_per_key().unwrap().collect().unwrap();
        prop_assert_eq!(out.len(), 1);
        prop_assert_eq!(out[0].1.0, ids.iter().copied().min().unwrap());
        prop_assert_eq!(out[0].1.1.to_bits(), score.to_bits());
    }

    /// NaN-free extremes (±0.0, subnormals, MAX/MIN): the winner and its
    /// score come back bit for bit under any sharding and a spilling
    /// budget.
    #[test]
    fn argmax_per_key_extreme_values(workers in 1usize..6, tiny_budget in any::<bool>()) {
        let scores = [
            -0.0f64, 0.0, f64::MIN_POSITIVE / 2.0, f64::MAX, f64::MIN, 1.0, -1.0,
            f64::INFINITY, f64::NEG_INFINITY,
        ];
        let records: Vec<(u64, (u64, f64))> = scores
            .iter()
            .enumerate()
            .flat_map(|(i, &s)| [(0u64, (i as u64, s)), (1u64, (100 + i as u64, -s))])
            .collect();
        let mut builder = Pipeline::builder().workers(workers);
        if tiny_budget {
            builder = builder.memory_budget(MemoryBudget::bytes(64));
        }
        let pipeline = builder.build().unwrap();
        let mut out = pipeline.from_vec(records).argmax_per_key().unwrap().collect().unwrap();
        out.sort_by_key(|&(k, _)| k);
        // Key 0: MAX loses only to +inf (index 7); key 1: -MIN = MAX at
        // offset 100 + 4 loses only to -(-inf) = +inf at 100 + 8.
        prop_assert_eq!(out[0].1.0, 7);
        prop_assert_eq!(out[0].1.1.to_bits(), f64::INFINITY.to_bits());
        prop_assert_eq!(out[1].1.0, 108);
        prop_assert_eq!(out[1].1.1.to_bits(), f64::INFINITY.to_bits());
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

    /// Operator fusion is invisible: any random deferrable chain yields
    /// bitwise identical collections with fusion on and off, under any
    /// worker count and with or without a spilling budget.
    #[test]
    fn fusion_on_and_off_agree_on_random_chains(
        data in proptest::collection::vec(any::<u64>(), 0..300),
        ops in proptest::collection::vec(0u32..4, 1..8),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let build = |fusion: bool| {
            let mut b = Pipeline::builder().workers(workers).fusion(fusion);
            if tiny_budget {
                b = b.memory_budget(MemoryBudget::bytes(256));
            }
            b.build().unwrap()
        };
        let fused_pipeline = build(true);
        let eager_pipeline = build(false);
        let fused = apply_chain(&fused_pipeline.from_vec(data.clone()), &ops);
        let eager = apply_chain(&eager_pipeline.from_vec(data.clone()), &ops);
        prop_assert_eq!(fused.collect().unwrap(), eager.collect().unwrap());
        if !data.is_empty() {
            prop_assert!(fused_pipeline.metrics().stages_fused > 0, "chain did not fuse");
        }
        prop_assert_eq!(eager_pipeline.metrics().stages_fused, 0u64);
    }

    /// Fused chains feed shuffles with the exact same contents the eager
    /// path produces: group_by_key downstream of a random chain matches
    /// group for group, value order included.
    #[test]
    fn fusion_preserves_shuffle_contents(
        data in proptest::collection::vec(any::<u64>(), 0..250),
        ops in proptest::collection::vec(0u32..4, 1..6),
        workers in 1usize..5,
    ) {
        let mut grouped_runs = Vec::new();
        for fusion in [true, false] {
            let pipeline = Pipeline::builder().workers(workers).fusion(fusion).build().unwrap();
            let chained = apply_chain(&pipeline.from_vec(data.clone()), &ops);
            let mut groups = chained
                .map(|x| (x % 8, x))
                .unwrap()
                .group_by_key()
                .unwrap()
                .collect()
                .unwrap();
            groups.sort_by_key(|&(k, _)| k);
            grouped_runs.push(groups);
        }
        prop_assert_eq!(&grouped_runs[0], &grouped_runs[1]);
    }

    /// co_group_2 is a full outer join: every key from either side appears
    /// exactly once with all its values.
    #[test]
    fn co_group_2_is_full_outer_join(
        left in proptest::collection::vec((0u64..15, any::<u32>()), 0..150),
        right in proptest::collection::vec((0u64..15, any::<bool>()), 0..150),
    ) {
        let pipeline = Pipeline::new(3).unwrap();
        let joined = pipeline
            .from_vec(left.clone())
            .co_group_2(&pipeline.from_vec(right.clone()))
            .unwrap();
        let out = joined.collect().unwrap();
        let mut keys: Vec<u64> = out.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut expected_keys: Vec<u64> =
            left.iter().map(|(k, _)| *k).chain(right.iter().map(|(k, _)| *k)).collect();
        expected_keys.sort_unstable();
        expected_keys.dedup();
        prop_assert_eq!(keys, expected_keys);
        for (k, (ls, rs)) in out {
            prop_assert_eq!(ls.len(), left.iter().filter(|(lk, _)| *lk == k).count());
            prop_assert_eq!(rs.len(), right.iter().filter(|(rk, _)| *rk == k).count());
        }
    }
}
