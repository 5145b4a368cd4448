//! Stress tests of the region protocol: chunk panics racing helper
//! attach, and two owners entering regions against one worker set. Both
//! tests drive the process-wide worker set and read its spawn counter,
//! so they take turns through `SERIAL`. The pool never holds more than
//! 8 threads: two owners at 4 threads each.

use std::panic;
use std::sync::{Mutex, PoisonError};
use std::thread;
use submod_exec::{parallel_map, with_threads};

static SERIAL: Mutex<()> = Mutex::new(());

/// Reads one of the pool's `exec.*` counters from the metrics registry.
fn counter(name: &str) -> u64 {
    submod_obs::counter(name).value()
}

/// Every chunk panics, so the first claim — usually the owner's, while
/// the woken helpers are still attaching — poisons the region. The owner
/// must re-raise that region's payload every time, and since a helper
/// counts as busy until it detaches, a helper left attached would make
/// a later entry spawn a replacement.
#[test]
fn chunk_panics_racing_helper_attach_reach_the_owner() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    with_threads(4, || {
        parallel_map((0..64u32).collect(), |x| x);
        let spawns = counter("exec.region_spawns");
        for round in 0..10_000u32 {
            // `resume_unwind` skips the panic hook: 10⁴ panics, no output.
            let result = panic::catch_unwind(|| {
                parallel_map((0..16u32).collect(), |_| -> u32 {
                    panic::resume_unwind(Box::new(round))
                })
            });
            let payload = result.expect_err("a chunk panic must reach the owner");
            assert_eq!(
                payload.downcast_ref::<u32>(),
                Some(&round),
                "wrong payload in round {round}"
            );
        }
        assert_eq!(counter("exec.region_spawns"), spawns, "a helper never detached");
    });
}

/// Two owners enter and leave 4-thread regions in a tight loop, so their
/// helper requests contend for one worker set; each checks its own output.
#[test]
fn two_owners_share_a_saturated_worker_set() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    thread::scope(|s| {
        for owner in 0..2u64 {
            s.spawn(move || {
                with_threads(4, || {
                    for round in 0..2_000u64 {
                        let offset = owner << 32 | round;
                        let out = parallel_map((0..256u64).collect(), |x| x * 3 + offset);
                        let expected: Vec<u64> = (0..256u64).map(|x| x * 3 + offset).collect();
                        assert_eq!(out, expected, "owner {owner}, round {round}");
                    }
                });
            });
        }
    });
}
