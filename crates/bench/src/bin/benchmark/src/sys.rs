//! What the benchmark reads from the operating system: CPU time and
//! peak memory of a process, the machine record, and its own allocation
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ses_metrics::JsonObject;

/// Counts heap allocations (not frees) of the benchmark process. It is
/// installed in every run, traced or not, so both pay the same relaxed
/// increment per allocation.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

/// Allocations made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// User + system CPU seconds consumed so far by the live threads of
/// `pid`, `None` once the process is gone. Summed from the scheduler's
/// per-thread run time (`/proc/<pid>/task/*/schedstat`, nanoseconds,
/// brought up to date at every tick), which is finer than the 10 ms
/// units of `/proc/<pid>/stat`; take differences only over intervals in
/// which no thread of the process ends.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let mut nanos = 0.0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let stat = task.ok()?.path().join("schedstat");
        // A thread may end between the listing and the read.
        if let Ok(s) = std::fs::read_to_string(stat) {
            nanos += s
                .split_ascii_whitespace()
                .next()
                .and_then(|n| n.parse::<f64>().ok())
                .unwrap_or(0.0);
        }
    }
    Some(nanos / 1e9)
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU seconds of the calling thread, exact to the nanosecond: the
/// kernel brings the thread's run time up to date for this call, which
/// `/proc/thread-self/schedstat` only is at scheduler ticks.
pub fn thread_cpu_seconds() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

/// Peak resident set (`VmHWM`) of `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so the
/// peak reported after a workload is the workload's and not that of the
/// reference runs before it. Best effort: where the kernel refuses, the
/// peak covers set-up too.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and toolchain a run names itself by.
pub fn machine_record() -> JsonObject {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    JsonObject::new()
        .with("cpu_model", cpu_model)
        .with("nproc", nproc())
        .with("kernel", kernel)
        .with("rustc", command_line("rustc", &["-V"]))
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
}
