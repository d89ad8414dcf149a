//! Instruments read from outside the program: a counting allocator, the
//! process CPU clock, a pool-run counter, and the peak resident set.
//!
//! [`CountingAlloc`] is compiled into both binaries but installed as the
//! `#[global_allocator]` only by `perfbench-traced`, so the end-to-end
//! binary runs on the system allocator untouched. In the traced binary,
//! counting is gated by one relaxed load per allocation until
//! [`counting_on`], and counts land in cache-line-padded per-thread slots
//! so worker threads never contend on one counter.
//!
//! The allocator follows `crates/bench/benches/alloc_stats/mod.rs` but is
//! a copy, not an include: `substrate::pool::set_setup_observer` keeps
//! only the first hook pair registered, and that module's private hooks
//! pause counting without counting pool runs, which the `serve` workload
//! needs to tell which gateway calls ran study work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 16;

#[repr(align(64))]
struct Slot(AtomicU64);

static COUNTING: AtomicBool = AtomicBool::new(false);
static EVENTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static POOL_RUNS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    // Const-initialised so touching them never allocates inside the
    // allocator.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn record() {
    if PAUSED.with(Cell::get) {
        return;
    }
    let slot = MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        s.get()
    });
    EVENTS[slot].0.fetch_add(1, Ordering::Relaxed);
}

/// `System`, counting `alloc` and `realloc` calls while counting is on.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only
// atomics and const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            record();
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            record();
        }
        System.realloc(ptr, layout, new_size)
    }
}

fn pool_enter() {
    PAUSED.with(|p| p.set(true));
    POOL_RUNS.fetch_add(1, Ordering::Relaxed);
}

fn pool_exit() {
    PAUSED.with(|p| p.set(false));
}

/// Start counting allocations and parallel pool runs. Pool scaffolding
/// (slot vectors, thread spawns) is paused out of the allocation count, so
/// counts do not drift with the worker count.
pub(crate) fn counting_on() {
    substrate::pool::set_setup_observer(pool_enter, pool_exit);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocation events counted so far (0 unless the counting allocator is
/// installed and counting is on).
pub(crate) fn alloc_events() -> u64 {
    EVENTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Parallel `substrate::pool` runs started so far (0 until
/// [`counting_on`]). Every experiment stage and the analysis fan-out is
/// one, so a gateway call that moved this counter ran real study work.
pub(crate) fn pool_runs() -> u64 {
    POOL_RUNS.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of all threads of the process.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// CPU seconds consumed by every thread of this process so far.
pub(crate) fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
