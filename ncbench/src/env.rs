//! The environment and isolation header written into every result, plus
//! the process probes it reads: OS thread count and peak resident set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::json::Json;

/// One `key: value` field of `/proc/self/status`, parsed as a number
/// (0 where procfs is unavailable).
fn proc_status(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Current OS thread count of this process.
pub fn os_threads() -> usize {
    proc_status("Threads:") as usize
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:") as f64 / 1024.0
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    proc_status("VmRSS:") as f64 / 1024.0
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Samples the process thread count every 20 ms on its own thread (which
/// is itself part of the count it reports) — the gauge `rank_scale_sweep`
/// uses, at a tenth of its rate so the sampling barely perturbs the load.
pub struct ThreadGauge {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<usize>,
}

impl ThreadGauge {
    pub fn start() -> ThreadGauge {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("thread-gauge".into())
            .spawn(move || {
                let mut peak = os_threads();
                while !flag.load(Ordering::Relaxed) {
                    peak = peak.max(os_threads());
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                peak.max(os_threads())
            })
            .expect("spawn thread gauge");
        ThreadGauge { stop, handle }
    }

    /// Stop sampling and return the peak thread count seen.
    pub fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread gauge")
    }
}

/// Pinned glibc `mmap` threshold, bytes: larger blocks get their own
/// mapping (32 MiB is the most glibc itself ever raises it to).
pub const MMAP_THRESHOLD: i32 = 32 << 20;
/// Pinned glibc trim threshold, bytes: free heap beyond this at the top is
/// given back to the OS.
pub const TRIM_THRESHOLD: i32 = 1 << 30;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pin glibc malloc to its initial thresholds. Left alone, glibc raises
/// its `mmap` and trim thresholds after the first large frees, so whether
/// a later large buffer is a fresh mapping (page faults) or reused heap
/// depends on the order of earlier allocations: seeds whose message sizes
/// differ by a few KiB then differed by 15–20% in host time on `host_zoo`.
/// Setting the thresholds explicitly turns that adjustment off, so host
/// cost depends on the sizes a program allocates, not on its history.
/// Returns whether glibc accepted both settings.
pub fn pin_allocator() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters; called before any
    // other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
            && mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    }
}

/// Commit of the checkout, read from `.git` in the working directory
/// (never from a parent directory); `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header fields common to every result.
pub fn header(workload: &str, seed: u64, seconds: f64, trace: bool, peak_threads: usize) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("git_rev", Json::str(git_rev())),
        ("rustc", Json::str(env!("NCBENCH_RUSTC"))),
        ("nproc", Json::Int(nproc() as i64)),
        ("carrier", Json::str("event")),
        ("malloc_thresholds", Json::Int(i64::from(MMAP_THRESHOLD))),
        ("peak_threads", Json::Int(peak_threads as i64)),
    ])
}
