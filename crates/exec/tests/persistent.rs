//! Persistent-worker regression gate. This file intentionally holds one
//! test: it asserts about the process-wide worker set's spawn counter,
//! so nothing else may enter regions concurrently (integration test
//! files run as their own process, and a single `#[test]` cannot race
//! itself).

use submod_exec::{parallel_map, with_threads};

/// Reads one of the pool's `exec.*` counters from the metrics registry.
fn counter(name: &str) -> u64 {
    submod_obs::counter(name).value()
}

/// The headline property: once the worker set has grown to a region
/// width, further region entries at that width spawn **zero** OS
/// threads — `scope` no longer pays thread creation per entry. Widening
/// past the high-water mark spawns only the shortfall, exactly once.
#[test]
fn steady_state_region_entries_spawn_no_threads() {
    with_threads(4, || {
        // Warm-up: the first wide region may spawn up to 3 helpers.
        let out = parallel_map((0..64u32).collect(), |x| x * 2);
        assert_eq!(out.len(), 64);
        let spawns_at_steady_state = counter("exec.region_spawns");
        let entries_before = counter("exec.region_entries");
        let nanos_before = counter("exec.region_entry_nanos");
        for round in 0..100 {
            let out = parallel_map((0..64u32).collect(), |x| x + round);
            assert_eq!(out[0], round);
        }
        assert!(
            counter("exec.region_entries") >= entries_before + 100,
            "region entries were not counted"
        );
        assert_eq!(
            counter("exec.region_spawns"),
            spawns_at_steady_state,
            "steady-state region entries spawned OS threads"
        );
        // The latency counter meters every entry (it can only grow, and
        // it must have grown over 100 dispatches).
        assert!(counter("exec.region_entry_nanos") > nanos_before, "entry latency went unmetered");
    });

    // Widening a region beyond anything seen before spawns only the
    // shortfall — and re-entering at the new width is free again.
    let before = counter("exec.region_spawns");
    with_threads(6, || {
        parallel_map((0..32u32).collect(), |x| x);
        let grown = counter("exec.region_spawns");
        assert!(grown <= before + 5, "spawned more than the 5-helper shortfall");
        parallel_map((0..32u32).collect(), |x| x);
        assert_eq!(counter("exec.region_spawns"), grown, "re-entry at known width spawned");
    });
}
