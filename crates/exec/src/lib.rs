//! # submod_exec — the workspace's parallel runtime
//!
//! A dependency-free thread pool built on `std::thread`, powering every
//! "worker" in the reproduction: the dataflow engine's shard transforms
//! and shuffles, the k-NN graph build, k-means, and the per-machine
//! rounds of the distributed greedy algorithms. The vendored `rayon`
//! shim delegates its `par_iter` / `into_par_iter` / `par_chunks`
//! surface here, so crates written against the rayon API run on this
//! pool unchanged.
//!
//! ## Execution model
//!
//! The one parallel primitive is [`parallel_map`]: map independent
//! chunks, gather them in order — the shape of every distributed round
//! in the paper, where each machine works its partition alone. Its
//! closure may borrow from the enclosing stack frame — no `'static`
//! bounds. A call cuts its items into at most `threads × 4` contiguous
//! chunks, and the caller's thread plus up to `threads − 1` helpers
//! claim chunk indices from one shared atomic cursor until it passes
//! the last chunk; an idle worker simply claims the next chunk, so an
//! uneven workload balances without queues or stealing.
//!
//! Helper workers are **persistent**: region entry publishes the region
//! to a process-lifetime worker set and wakes parked threads instead of
//! spawning OS threads, so at steady state entering a region costs a
//! mutex hop and a condvar signal (the `exec.region_entry_nanos` /
//! `exec.region_spawns` counters meter this). A helper that finds the
//! cursor exhausted detaches and parks on the set's condition variable,
//! so idle workers burn zero CPU. The owner blocks until every attached
//! helper detaches, which is what keeps borrowed state sound — the one
//! lifetime-erasing `unsafe impl` and its argument live in
//! `src/workers.rs`. A panicking chunk exhausts the cursor, so no
//! further chunk starts, and the first captured payload is re-raised on
//! the caller's thread once every helper has detached
//! ([`std::panic::resume_unwind`]). Pinned by `tests/persistent.rs`
//! (steady-state entries spawn no thread), `tests/pool.rs`'s
//! `idle_workers_*` (idle helpers park) and `tests/stress.rs` (chunk
//! panics race helper attach).
//!
//! A [`parallel_map`] called from inside a chunk runs inline on the
//! calling worker, so nesting composes without thread explosion and
//! without deadlock.
//!
//! ## Determinism
//!
//! [`parallel_map`] preserves *input order* when materializing results:
//! it writes each chunk's output into a dedicated slot and concatenates
//! the slots in chunk order, regardless of which worker executed what
//! and when. Floating-point reductions built on the
//! pool therefore produce **bitwise-identical** results at any thread
//! count. Shuffle runs are sequence-tagged and machine outputs merge in
//! partition order on top of it, so no floating-point sum or tie-break
//! in the workspace depends on scheduling. The facade's
//! `tests/invariance.rs` runs every selection path at 1, 2 and 8
//! threads, and `crates/dataflow/tests/determinism.rs` the engine
//! operators no selection path reaches.
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

pub use pool::parallel_map;
pub use threads::{current_num_threads, set_num_threads, with_threads};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = with_threads(4, || parallel_map((0..1000u64).collect(), |x| x * 2));
        assert_eq!(out, (0..1000u64).map(|x| x * 2).collect::<Vec<_>>());
    }
}
