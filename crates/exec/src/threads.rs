//! Thread-count resolution and worker-context tracking.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide worker count; `0` means "not set, fall back to the
/// environment".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// `EXEC_NUM_THREADS`, parsed once.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

thread_local! {
    /// Per-thread override installed by [`with_threads`]; `0` = unset.
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Whether the current thread is executing inside a pool region.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn env_threads() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("EXEC_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
    })
}

/// Detected hardware parallelism, probed once. `available_parallelism`
/// re-reads the cgroup quota files on every call on Linux — microseconds
/// of file I/O that used to land on every region entry of every engine
/// pass.
static DETECTED_THREADS: OnceLock<usize> = OnceLock::new();

fn detected_threads() -> usize {
    *DETECTED_THREADS
        .get_or_init(|| std::thread::available_parallelism().map(usize::from).unwrap_or(1))
}

/// The worker count the *next* parallel region entered from this thread
/// will use. See the crate docs for the resolution order.
pub fn current_num_threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local > 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    env_threads().unwrap_or_else(detected_threads)
}

/// Sets the process-wide worker count (`0` resets to the
/// `EXEC_NUM_THREADS` / auto-detection fallback). This is what the
/// `experiments` binary's `--threads N` flag calls.
pub fn set_num_threads(threads: usize) {
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
}

/// Runs `f` with the worker count pinned to `threads` on this thread
/// only. Scoped and re-entrant, so concurrently running tests can each
/// pin their own count without racing on process state.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let previous = LOCAL_THREADS.with(|c| c.replace(threads.max(1)));
    let _restore = Restore(previous);
    f()
}

/// Whether the current thread is working a region. A [`crate::parallel_map`]
/// called from inside a chunk runs inline (sequentially) so nesting cannot
/// deadlock or oversubscribe the machine.
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the current thread as a pool worker for the guard's lifetime.
pub(crate) fn enter_worker() -> WorkerGuard {
    let previous = IN_WORKER.with(|c| c.replace(true));
    WorkerGuard { previous }
}

/// Restores the previous worker flag on drop.
pub(crate) struct WorkerGuard {
    previous: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|c| c.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let baseline = current_num_threads();
        let inside = with_threads(7, current_num_threads);
        assert_eq!(inside, 7);
        assert_eq!(current_num_threads(), baseline);
    }

    #[test]
    fn with_threads_nests() {
        with_threads(4, || {
            assert_eq!(current_num_threads(), 4);
            with_threads(2, || assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 4);
        });
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        assert_eq!(with_threads(0, current_num_threads), 1);
    }

    #[test]
    fn worker_guard_restores_flag() {
        assert!(!in_worker());
        {
            let _guard = enter_worker();
            assert!(in_worker());
        }
        assert!(!in_worker());
    }
}
