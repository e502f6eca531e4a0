//! The work-stealing batch behind [`par_apply`](crate).
//!
//! A batch is one `std::thread::scope`: `width - 1` scoped threads plus the
//! caller, each popping its own chunk deque from the front and, when dry,
//! stealing from a loaded victim's back. Threads and deques die with their
//! batch: a campaign submits two, so the spawns cost little, nothing a
//! panicking batch touched outlives it, and callers' batches run side by side.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static BATCHES: AtomicU64 = AtomicU64::new(0);
static CHUNKS: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);

/// Lifetime counters of every batch this process ran, for telemetry and tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolStats {
    /// Batches submitted.
    pub batches: u64,
    /// Chunks executed (by scoped threads and callers alike).
    pub chunks: u64,
    /// Chunks run by a participant other than the one they were seeded to.
    pub steals: u64,
}

/// Snapshot the process-wide batch counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        batches: BATCHES.load(Ordering::Relaxed),
        chunks: CHUNKS.load(Ordering::Relaxed),
        steals: STEALS.load(Ordering::Relaxed),
    }
}

thread_local! {
    /// Set while this thread runs batch chunks.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// True inside a batch chunk, the caller's own included: a nested
/// `par_apply` then runs inline instead of multiplying the batch's width.
pub(crate) fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Restores this thread's previous in-pool flag when dropped — also when a
/// chunk's panic unwinds past it, so the caller can dispatch again.
struct InPool(bool);

impl Drop for InPool {
    fn drop(&mut self) {
        IN_POOL.with(|f| f.set(self.0));
    }
}

/// Drain chunks as participant `me`: own deque from the front, then steal
/// from the back of the nearest loaded victim.
fn run_chunks(deques: &[Mutex<VecDeque<usize>>], me: usize, runner: &(dyn Fn(usize) + Sync)) {
    let _in_pool = InPool(IN_POOL.with(|f| f.replace(true)));
    let n = deques.len();
    loop {
        let mut stolen = false;
        // Pop the own deque in its own statement, so its guard is dropped
        // before the steal scan: two participants holding their own lock
        // while probing each other's deadlock (ABBA). Never hold two locks.
        let own = deques[me].lock().expect("chunks run unlocked").pop_front();
        let chunk = own.or_else(|| {
            (1..n).find_map(|d| {
                let c = deques[(me + d) % n].lock().expect("chunks run unlocked").pop_back();
                stolen |= c.is_some();
                c
            })
        });
        let Some(c) = chunk else { return };
        CHUNKS.fetch_add(1, Ordering::Relaxed);
        if stolen {
            STEALS.fetch_add(1, Ordering::Relaxed);
        }
        runner(c);
    }
}

/// Run `runner(c)` for every `c` in `0..chunks` on `width` participants
/// (`width - 1` scoped threads plus the caller), all joined on return; the
/// first chunk panic is rethrown with its own payload.
pub(crate) fn run_batch(width: usize, chunks: usize, runner: &(dyn Fn(usize) + Sync)) {
    debug_assert!(width >= 2, "width <= 1 must take the inline path");
    BATCHES.fetch_add(1, Ordering::Relaxed);
    let width = width.min(chunks).max(1);
    // Contiguous blocks: owners walk theirs in order (output-slot locality)
    // and idle participants steal a straggler's coldest (furthest) chunks.
    let deques: &[Mutex<VecDeque<usize>>] = &(0..width)
        .map(|w| Mutex::new((chunks * w / width..chunks * (w + 1) / width).collect()))
        .collect::<Vec<_>>();
    let panic = std::thread::scope(|s| {
        let workers: Vec<_> =
            (0..width - 1).map(|me| s.spawn(move || run_chunks(deques, me, runner))).collect();
        // The caller owns the last deque (its own panic unwinds from here
        // once the scope has joined the rest). Joining every worker keeps
        // its payload, where the scope would panic "a scoped thread panicked".
        run_chunks(deques, width - 1, runner);
        workers.into_iter().fold(None, |first, w| first.or(w.join().err()))
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}
