//! What the OS says about this process: peak resident-set size of a
//! region of the run, and CPU time of the threads other than the driver.
//!
//! The kernel's high-water mark (`VmHWM`) is reset by writing `5` to
//! `/proc/self/clear_refs`; where that is refused (some sandboxes mount
//! `/proc` read-only) a thread samples `VmRSS` every 10 ms instead, which
//! can miss a peak shorter than that.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|line| line.strip_prefix(field))?;
    rest.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Current resident-set size in KiB (`None` off Linux).
pub fn current_kib() -> Option<u64> {
    status_kib("VmRSS:")
}

/// Watches the peak RSS from [`PeakWatch::start`] until [`PeakWatch::stop`].
pub struct PeakWatch {
    sampler: Option<(Arc<AtomicBool>, Arc<AtomicU64>, JoinHandle<()>)>,
}

impl PeakWatch {
    pub fn start() -> PeakWatch {
        if std::fs::write("/proc/self/clear_refs", "5").is_ok() {
            return PeakWatch { sampler: None };
        }
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(current_kib().unwrap_or(0)));
        let (stop_seen, peak_seen) = (stop.clone(), peak.clone());
        let handle = std::thread::spawn(move || {
            while !stop_seen.load(Ordering::Relaxed) {
                if let Some(rss) = current_kib() {
                    peak_seen.fetch_max(rss, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        PeakWatch { sampler: Some((stop, peak, handle)) }
    }

    /// `true` when the kernel's high-water mark is in use (exact), `false`
    /// when the 10 ms sampler is.
    pub fn is_exact(&self) -> bool {
        self.sampler.is_none()
    }

    /// The peak so far in KiB, without ending the watch.
    pub fn peak_kib(&self) -> Option<u64> {
        match &self.sampler {
            None => status_kib("VmHWM:"),
            Some((_, peak, _)) => Some(peak.load(Ordering::Relaxed).max(current_kib()?)),
        }
    }

    /// Ends the watch and joins the sampler thread, if one runs.
    pub fn stop(self) {
        if let Some((stop, _, handle)) = self.sampler {
            stop.store(true, Ordering::Relaxed);
            handle.join().expect("the RSS sampler never panics");
        }
    }
}

/// CPU seconds all threads but the main one have run so far, from the
/// scheduler's per-thread `schedstat`. The main thread drives every
/// workload, so this is the pool's helpers at work; 0 where the kernel
/// keeps no scheduler statistics.
pub fn worker_cpu_seconds() -> f64 {
    let main_thread = std::process::id().to_string();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0.0 };
    let nanos: u64 = tasks
        .flatten()
        .filter(|task| task.file_name().to_str() != Some(&main_thread))
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    nanos as f64 / 1e9
}
