//! The host clock of the end-to-end metrics: this process's CPU time.
//!
//! Every job runs under `ExecMode::Event`, so all simulated ranks are
//! fibers on one thread and the process's CPU time is the host time the
//! simulator itself spends. Unlike wall time it leaves out the time the
//! OS or the hypervisor hands the CPU to other work, which on a shared
//! host moved wall-clock `run_s` by a third between runs of the same code.
//! Work the program does (copies, packing, dispatch, page faults) still
//! counts in full, in user and system time alike.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// A reading of the process CPU clock, ns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(u64);

impl CpuInstant {
    pub fn now() -> CpuInstant {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `timespec`.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        CpuInstant(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    /// CPU seconds from `earlier` to `self` (0 if `earlier` is later).
    pub fn secs_since(self, earlier: CpuInstant) -> f64 {
        self.0.saturating_sub(earlier.0) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_not_sleep() {
        let t0 = CpuInstant::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = CpuInstant::now().secs_since(t0);
        let t1 = CpuInstant::now();
        let mut x = 0u64;
        while CpuInstant::now().secs_since(t1) < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        // Well under the 50 ms slept, with room for other test threads.
        assert!(slept < 0.04, "sleeping cost {slept} CPU s");
        assert!(CpuInstant::now() > t1);
    }
}
