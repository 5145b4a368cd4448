//! # submod_exec — the workspace's parallel runtime
//!
//! A dependency-free work-stealing thread pool built on `std::thread`,
//! powering every "worker" in the reproduction: the dataflow engine's
//! shard transforms and shuffles, the k-NN graph build, and the
//! per-machine rounds of the distributed greedy algorithms. The vendored
//! `rayon` shim delegates its `par_iter` / `join` / `scope` surface here,
//! so crates written against the rayon API run on this pool unchanged.
//!
//! ## Execution model
//!
//! Parallel regions are *scoped*: tasks handed to [`scope`] (and the
//! [`parallel_map`] / [`join`] conveniences built on it) may borrow from
//! the enclosing stack frame — no `'static` bounds. Helper workers are
//! **persistent**: region entry publishes the region to a
//! process-lifetime worker set and wakes parked threads instead of
//! spawning OS threads, so at steady state entering a region costs a
//! mutex hop and a condvar signal (the `exec.region_entry_nanos` /
//! `exec.region_spawns` counters meter this; the owner blocks until every
//! attached helper detaches, which is what keeps borrowed state sound —
//! the one lifetime-erasing `unsafe impl` and its argument live in
//! `src/workers.rs`). Inside a region:
//!
//! - every worker owns a local deque seeded round-robin at spawn time;
//! - tasks spawned *from inside a task* land in a shared global injector;
//! - an idle worker pops its own deque first, then the injector, then
//!   steals from the back of a sibling's deque;
//! - a worker that finds nothing runnable **parks on a condition
//!   variable** (after a handful of yields for low-latency pickup):
//!   spawns unpark one worker, the final completion unparks everyone.
//!   Idle workers burn zero CPU — there is no spin loop and no
//!   sleep-polling, which the `exec.idle_polls` counter lets tests assert;
//! - a panicking task poisons the region: queued tasks are drained and
//!   dropped, and the first captured payload is re-raised on the caller's
//!   thread once every worker has finished
//!   ([`std::panic::resume_unwind`]).
//!
//! Nested regions (a task that itself calls [`parallel_map`] or [`join`])
//! execute inline on the calling worker, so nesting composes without
//! thread explosion and without deadlock.
//!
//! ## Determinism
//!
//! All combinators preserve *submission order* when materializing
//! results: [`parallel_map`] writes each chunk's output into a dedicated
//! slot and concatenates the slots in index order, regardless of which
//! worker executed what and when. Floating-point reductions built on the
//! pool therefore produce **bitwise-identical** results at any thread
//! count — the property the distributed-vs-centralized equivalence tests
//! assert at 1, 2, and 8 threads.
//!
//! ## Sizing the pool
//!
//! The per-region worker count resolves, in order:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by
//!    tests so they can pin a count without racing each other);
//! 2. the process-wide count from [`set_num_threads`] (the `experiments`
//!    binary's `--threads N` flag lands here);
//! 3. the `EXEC_NUM_THREADS` environment variable;
//! 4. [`std::thread::available_parallelism`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod threads;
mod workers;

pub use pool::{join, parallel_map, scope, Scope};
pub use threads::{current_num_threads, in_worker, set_num_threads, with_threads};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = with_threads(4, || parallel_map((0..1000u64).collect(), |x| x * 2));
        assert_eq!(out, (0..1000u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = with_threads(2, || join(|| 1 + 1, || "two"));
        assert_eq!((a, b), (2, "two"));
    }
}
