//! Pool behavior tests: work stealing, panic propagation, nested
//! regions, and determinism across thread counts.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};
use submod_exec::{join, parallel_map, scope, with_threads};

/// Reads one of the pool's `exec.*` counters from the metrics registry.
fn counter(name: &str) -> u64 {
    submod_obs::counter(name).value()
}

/// Spins until `predicate` holds, failing the test after 30 s — long
/// enough for any scheduler hiccup, short enough to catch a lost-task
/// deadlock without hanging CI.
fn wait_until(what: &str, predicate: impl Fn() -> bool) {
    let start = Instant::now();
    while !predicate() {
        assert!(start.elapsed() < Duration::from_secs(30), "timed out waiting for {what}");
        thread::yield_now();
    }
}

#[test]
fn work_is_stolen_from_a_blocked_workers_deque() {
    with_threads(2, || {
        // Eight single-item chunks seed round-robin onto two workers.
        // Chunk 0 (worker 0) blocks until every other chunk has run, so
        // worker 0's remaining chunks (2, 4, 6) can only complete if
        // worker 1 steals them — otherwise this test times out.
        let done = AtomicUsize::new(0);
        let steals_before = counter("exec.steals");
        let out = parallel_map((0..8usize).collect(), |i| {
            if i == 0 {
                wait_until("the other 7 tasks (work stealing)", || {
                    done.load(Ordering::SeqCst) == 7
                });
            } else {
                done.fetch_add(1, Ordering::SeqCst);
            }
            i * 10
        });
        assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert!(counter("exec.steals") > steals_before, "completion required at least one steal");
    });
}

#[test]
fn two_workers_really_run_concurrently() {
    with_threads(2, || {
        // A two-way rendezvous: each task waits for the other's arrival.
        // Sequential execution of either order would time out.
        let arrived = AtomicUsize::new(0);
        parallel_map(vec![0, 1], |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            wait_until("both tasks to arrive", || arrived.load(Ordering::SeqCst) == 2);
        });
    });
}

#[test]
fn panic_propagates_with_payload() {
    let result = std::panic::catch_unwind(|| {
        with_threads(4, || {
            parallel_map((0..64u32).collect(), |x| {
                assert!(x != 23, "injected failure at {x}");
                x
            })
        })
    });
    let payload = result.expect_err("panic must cross the pool boundary");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("string payload");
    assert!(message.contains("injected failure at 23"), "unexpected payload: {message}");
}

#[test]
fn panics_inside_nested_regions_propagate() {
    let result = std::panic::catch_unwind(|| {
        with_threads(4, || {
            parallel_map(vec![1, 2], |x| {
                // Nested map runs inline on the worker; its panic must
                // still surface at the outer call site.
                parallel_map(vec![x], |y| assert!(y != 2, "nested boom"));
            })
        })
    });
    assert!(result.is_err(), "nested panic swallowed");
}

#[test]
fn nested_joins_compute_all_leaves() {
    let out = with_threads(4, || join(|| join(|| 1, || 2), || join(|| 3, || join(|| 4, || 5))));
    assert_eq!(out, ((1, 2), (3, (4, 5))));
}

#[test]
fn tasks_can_spawn_follow_up_tasks() {
    with_threads(2, || {
        let hits = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|s| {
                hits.fetch_add(1, Ordering::SeqCst);
                // Lands in the global injector; the scope must not park
                // before it runs.
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(hits.into_inner(), 2);
    });
}

#[test]
fn multiple_os_threads_participate() {
    let ids = Mutex::new(HashSet::new());
    with_threads(4, || {
        parallel_map((0..64usize).collect(), |i| {
            // A tiny stall so no single worker can drain the queue alone.
            thread::sleep(Duration::from_millis(1));
            ids.lock().unwrap().insert(thread::current().id());
            i
        })
    });
    assert!(ids.into_inner().unwrap().len() > 1, "all chunks ran on one thread");
}

#[test]
fn results_are_identical_across_thread_counts() {
    // Element-wise float work whose order of *combination* downstream
    // must not depend on the thread count.
    let input: Vec<f64> = (0..10_000).map(|i| (i as f64).sin() * 1e-3 + i as f64).collect();
    let reference: Vec<u64> =
        with_threads(1, || parallel_map(input.clone(), |x| (x.sqrt() * 1e6).to_bits()));
    for threads in [2, 3, 8] {
        let got =
            with_threads(threads, || parallel_map(input.clone(), |x| (x.sqrt() * 1e6).to_bits()));
        assert_eq!(got, reference, "thread count {threads} changed results");
    }
}

#[test]
fn idle_workers_park_on_the_condvar() {
    with_threads(4, || {
        let parks_before = counter("exec.parks");
        // One straggler holds the region open while the other three
        // workers run dry: they must end up parked, not polling.
        parallel_map((0..4usize).collect(), |i| {
            if i == 0 {
                thread::sleep(Duration::from_millis(200));
            }
            i
        });
        assert!(counter("exec.parks") > parks_before, "idle workers never parked");
    });
}

/// The no-busy-wait regression gate: while a straggler keeps a region
/// open, idle workers must be *asleep on the condvar*, not polling the
/// queues. The old 100 µs sleep backoff would re-scan the queues ~10 000
/// times per second per idle worker (≈ 9 000 polls during this test);
/// parked workers poll O(1) times per idle episode regardless of how
/// long it lasts.
#[test]
fn idle_workers_do_not_poll_while_parked() {
    with_threads(4, || {
        let polls_before = counter("exec.idle_polls");
        parallel_map((0..4usize).collect(), |i| {
            if i == 0 {
                thread::sleep(Duration::from_millis(300));
            }
            i
        });
        let polls = counter("exec.idle_polls") - polls_before;
        // 3 idle workers × (16 yields + a few park/wake cycles), plus
        // slack for concurrently running tests that share the global
        // counter. Sleep-polling at 100 µs would alone contribute ~9 000.
        assert!(polls < 2_000, "idle workers polled {polls} times — busy-wait regression");
    });
}

#[test]
fn parked_workers_wake_for_late_spawned_tasks() {
    with_threads(4, || {
        let hits = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|s| {
                // By the time this follow-up is spawned the other three
                // workers have long parked; the spawn must unpark one or
                // the region deadlocks (the 30 s harness catches that).
                thread::sleep(Duration::from_millis(150));
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
                hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.into_inner(), 2);
    });
}

#[test]
fn borrowed_state_is_usable_from_tasks() {
    // The whole point of scoped spawning: tasks borrow the caller's
    // stack without `Arc` or `'static`.
    let data: Vec<u64> = (0..1000).collect();
    let total: u64 = with_threads(4, || {
        parallel_map((0..10usize).collect(), |c| data[c * 100..(c + 1) * 100].iter().sum::<u64>())
    })
    .into_iter()
    .sum();
    assert_eq!(total, 1000 * 999 / 2);
}
