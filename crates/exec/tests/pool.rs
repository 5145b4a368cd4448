//! Pool behavior tests: chunk claiming, panic propagation, nested
//! regions, determinism across thread counts, and idle workers that
//! burn no CPU.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::{Duration, Instant};
use submod_exec::{parallel_map, with_threads};

/// The idle tests read the CPU time of the whole process, which any
/// concurrently running test would inflate. They hold this lock for
/// writing; every other test holds it for reading, so the others still
/// run side by side but never during an idle measurement.
static PROCESS_CPU: RwLock<()> = RwLock::new(());

fn share_the_process() -> RwLockReadGuard<'static, ()> {
    PROCESS_CPU.read().unwrap_or_else(PoisonError::into_inner)
}

fn own_the_process() -> RwLockWriteGuard<'static, ()> {
    PROCESS_CPU.write().unwrap_or_else(PoisonError::into_inner)
}

/// User plus system CPU time of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s).
fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; the fields after its
    // closing parenthesis start at field 3.
    let fields: Vec<&str> =
        stat[stat.rfind(')').expect("command name") + 1..].split_whitespace().collect();
    let ticks: u64 = fields[11..13].iter().map(|f| f.parse::<u64>().expect("tick count")).sum();
    ticks as f64 / 100.0
}

/// Spins until `predicate` holds, failing the test after 30 s — long
/// enough for any scheduler hiccup, short enough to catch a lost-chunk
/// deadlock without hanging CI.
fn wait_until(what: &str, predicate: impl Fn() -> bool) {
    let start = Instant::now();
    while !predicate() {
        assert!(start.elapsed() < Duration::from_secs(30), "timed out waiting for {what}");
        thread::yield_now();
    }
}

#[test]
fn a_blocked_chunk_does_not_block_the_other_chunks() {
    let _shared = share_the_process();
    with_threads(2, || {
        // Eight single-item chunks on two workers. Chunk 0 blocks until
        // every other chunk has run, so the other seven can only complete
        // if the second worker keeps claiming from the shared cursor while
        // the first is stuck — otherwise this test times out.
        let done = AtomicUsize::new(0);
        let out = parallel_map((0..8usize).collect(), |i| {
            if i == 0 {
                wait_until("the other 7 chunks", || done.load(Ordering::SeqCst) == 7);
            } else {
                done.fetch_add(1, Ordering::SeqCst);
            }
            i * 10
        });
        assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
    });
}

#[test]
fn two_workers_really_run_concurrently() {
    let _shared = share_the_process();
    with_threads(2, || {
        // A two-way rendezvous: each chunk waits for the other's arrival.
        // Sequential execution of either order would time out.
        let arrived = AtomicUsize::new(0);
        parallel_map(vec![0, 1], |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            wait_until("both chunks to arrive", || arrived.load(Ordering::SeqCst) == 2);
        });
    });
}

#[test]
fn panic_propagates_with_payload() {
    let _shared = share_the_process();
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
    let _shared = share_the_process();
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
fn multiple_os_threads_participate() {
    let _shared = share_the_process();
    let ids = Mutex::new(HashSet::new());
    with_threads(4, || {
        parallel_map((0..64usize).collect(), |i| {
            // A tiny stall so no single worker can claim every chunk alone.
            thread::sleep(Duration::from_millis(1));
            ids.lock().unwrap().insert(thread::current().id());
            i
        })
    });
    assert!(ids.into_inner().unwrap().len() > 1, "all chunks ran on one thread");
}

#[test]
fn results_are_identical_across_thread_counts() {
    let _shared = share_the_process();
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
fn borrowed_state_is_usable_from_tasks() {
    let _shared = share_the_process();
    // Chunks borrow the caller's stack without `Arc` or `'static`.
    let data: Vec<u64> = (0..1000).collect();
    let total: u64 = with_threads(4, || {
        parallel_map((0..10usize).collect(), |c| data[c * 100..(c + 1) * 100].iter().sum::<u64>())
    })
    .into_iter()
    .sum();
    assert_eq!(total, 1000 * 999 / 2);
}

/// One 300 ms straggler holds a 4-thread region open while the other
/// three chunks finish at once. The helpers that ran dry must detach and
/// park on the worker set's condvar: three spinning helpers would burn
/// about three times the wall time.
#[test]
fn idle_workers_park_on_the_condvar() {
    let _alone = own_the_process();
    with_threads(4, || {
        parallel_map((0..64u32).collect(), |x| x);
        let cpu_before = process_cpu_seconds();
        let start = Instant::now();
        let out = parallel_map((0..4usize).collect(), |i| {
            if i == 0 {
                thread::sleep(Duration::from_millis(300));
            }
            i
        });
        let wall = start.elapsed().as_secs_f64();
        let cpu = process_cpu_seconds() - cpu_before;
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(
            cpu < wall / 4.0,
            "{cpu:.2} s of CPU over {wall:.2} s of wall time: a helper polled"
        );
    });
}

/// Between regions the persistent workers stay parked: 300 ms with no
/// region open burns (almost) no CPU, and the next region still gets
/// every chunk done by the woken workers.
#[test]
fn idle_workers_do_not_poll_while_parked() {
    let _alone = own_the_process();
    with_threads(4, || {
        parallel_map((0..64u32).collect(), |x| x);
        let cpu_before = process_cpu_seconds();
        let start = Instant::now();
        thread::sleep(Duration::from_millis(300));
        let wall = start.elapsed().as_secs_f64();
        let cpu = process_cpu_seconds() - cpu_before;
        assert!(
            cpu < wall / 4.0,
            "{cpu:.2} s of CPU over {wall:.2} s of wall time: a parked worker polled"
        );
        let out = parallel_map((0..64u32).collect(), |x| x * 2);
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    });
}
