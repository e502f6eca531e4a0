//! Offline, API-compatible subset of `rayon`.
//!
//! Implements the parallel-iterator surface the workspace actually uses
//! (`into_par_iter().map(..)` over a `Vec` or an integer range, then
//! `.collect()` or `.sum()`) on work-stealing batches, and `spawn`, on the
//! process's one set of parked threads (see [`pool`]): each parallel call's
//! caller and its helper tasks own per-participant chunk deques and steal
//! from each other's backs. Output order is preserved, so seeded campaigns
//! stay deterministic regardless of thread count.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

mod pool;

pub use pool::{pool_stats, spawn, PoolStats};

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator};
}

thread_local! {
    /// Width override installed by [`with_threads`] on the calling thread;
    /// `0` means "no override".
    static THREADS_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with the pool width pinned to `threads` for parallel work
/// submitted from the calling thread, restoring the previous override
/// afterwards (also on panic). The override is scoped to this thread, so
/// concurrent scopes on other threads never observe each other's widths and
/// it takes precedence over `CARE_THREADS` (the env variable is parsed once
/// and cached, so `set_var` after startup has no effect).
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(THREADS_OVERRIDE.with(|o| o.replace(threads.max(1))));
    f()
}

/// Parse a `CARE_THREADS` value: a positive integer, else `None`.
fn parse_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&t| t >= 1)
}

/// The `CARE_THREADS` environment override, parsed once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("CARE_THREADS").ok().and_then(|v| parse_threads(&v)))
}

/// Configured pool width: the calling thread's [`with_threads`] override
/// when set, else the `CARE_THREADS` environment override when it parses to
/// a positive integer, otherwise the machine's available parallelism.
fn configured_threads() -> usize {
    match THREADS_OVERRIDE.with(Cell::get) {
        0 => env_threads()
            .unwrap_or_else(|| std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1)),
        t => t,
    }
}

/// Mirror of `rayon::current_num_threads`: the pool width parallel work
/// fans out to (before capping at the item count).
pub fn current_num_threads() -> usize {
    configured_threads()
}

/// How many chunks each worker should see on average: enough slack for
/// dynamic load balancing (item costs vary wildly in fault campaigns)
/// without paying per-item synchronisation.
const CHUNKS_PER_THREAD: usize = 8;

/// Apply `f` to every item in one work-stealing batch, preserving item order.
///
/// Work is split into contiguous chunks (grain derived from item count /
/// thread count) seeded across per-participant deques; idle participants
/// steal from the back of loaded ones, so one expensive straggler chunk
/// no longer serializes the batch tail. Outputs land in per-chunk slots
/// and are concatenated in chunk order, so the result is order-preserving
/// and deterministic regardless of thread schedule. Nested calls (from
/// inside a pool chunk) degrade to inline execution.
fn par_apply<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = configured_threads().min(n);
    if threads <= 1 || pool::in_pool() {
        return items.into_iter().map(f).collect();
    }
    let grain = n.div_ceil(threads * CHUNKS_PER_THREAD).max(1);
    let mut items = items;
    let mut chunks: Vec<Mutex<Vec<T>>> = Vec::with_capacity(n.div_ceil(grain));
    while !items.is_empty() {
        let rest = items.split_off(grain.min(items.len()));
        chunks.push(Mutex::new(std::mem::replace(&mut items, rest)));
    }
    let out: Vec<Mutex<Vec<R>>> = (0..chunks.len()).map(|_| Mutex::new(Vec::new())).collect();
    let run_chunk = |c: usize| {
        let chunk = std::mem::take(&mut *chunks[c].lock().unwrap());
        let results: Vec<R> = chunk.into_iter().map(&f).collect();
        *out[c].lock().unwrap() = results;
    };
    pool::THREADS.run_batch(threads, chunks.len(), &run_chunk);
    out.into_iter().flat_map(|s| s.into_inner().unwrap()).collect()
}

/// Mirror of `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

/// Mirror of `rayon::iter::ParallelIterator`, eager rather than lazy: each
/// adapter runs its closure across the pool and yields a materialised,
/// order-preserving `Vec`.
pub trait ParallelIterator: Sized {
    type Item: Send;

    /// Produce all items (running any pending parallel work).
    fn items(self) -> Vec<Self::Item>;

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.items().into_iter().collect()
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.items().into_iter().sum()
    }
}

/// Base parallel iterator over already-materialised items.
pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    fn items(self) -> Vec<T> {
        self.items
    }
}

pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync,
{
    type Item = R;
    fn items(self) -> Vec<R> {
        par_apply(self.base.items(), self.f)
    }
}

macro_rules! range_into_par {
    ($($ty:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$ty> {
            type Item = $ty;
            type Iter = VecIter<$ty>;
            fn into_par_iter(self) -> VecIter<$ty> {
                VecIter { items: self.collect() }
            }
        }
    )*};
}

range_into_par!(u32, u64, usize);

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// The batch counters are process-wide and the test harness runs tests
    /// in parallel, so every test that dispatches a batch holds this lock:
    /// a test that counts batches then sees only its own.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn map_preserves_order() {
        let _serial = serial();
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_dispatch_preserves_order_at_awkward_sizes() {
        // Sizes around chunk boundaries: empty, single, fewer than the
        // thread count, prime, and a grain-multiple neighbourhood.
        let _serial = serial();
        for n in [0usize, 1, 3, 97, 255, 256, 257, 1009] {
            let out: Vec<usize> = (0..n).into_par_iter().map(|i| i.wrapping_mul(31)).collect();
            assert_eq!(out, (0..n).map(|i| i.wrapping_mul(31)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_item_costs_stay_deterministic() {
        // Per-item runtime varies by orders of magnitude; scheduling must
        // not leak into output order or content.
        let _serial = serial();
        let work = |i: usize| -> usize {
            let mut acc = i;
            for _ in 0..(i % 17) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let a: Vec<usize> = (0..500usize).into_par_iter().map(work).collect();
        let b: Vec<usize> = (0..500usize).map(work).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn care_threads_values_parse_like_the_env_override() {
        // The environment is read once at startup and cached, so tests
        // exercise the parser directly instead of racing `set_var` against
        // concurrently running parallel work (the old version of this test
        // did exactly that).
        assert_eq!(crate::parse_threads("2"), Some(2));
        assert_eq!(crate::parse_threads(" 16 "), Some(16));
        assert_eq!(crate::parse_threads("0"), None);
        assert_eq!(crate::parse_threads("not-a-number"), None);
        assert_eq!(crate::parse_threads(""), None);
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn with_threads_pins_and_restores_the_width() {
        let _serial = serial();
        let before = crate::current_num_threads();
        let (inside, out) = crate::with_threads(2, || {
            let out: Vec<usize> = (0..64usize).into_par_iter().map(|i| i + 1).collect();
            (crate::current_num_threads(), out)
        });
        assert_eq!(inside, 2);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        assert_eq!(crate::current_num_threads(), before);
    }

    #[test]
    fn with_threads_is_invisible_to_other_threads() {
        let before = crate::current_num_threads();
        crate::with_threads(before + 3, || {
            let seen = std::thread::scope(|s| s.spawn(crate::current_num_threads).join().unwrap());
            assert_eq!(seen, before, "another thread observed this thread's override");
            assert_eq!(crate::current_num_threads(), before + 3);
        });
    }

    #[test]
    fn nested_parallelism_degrades_to_inline() {
        let _serial = serial();
        let out: Vec<usize> = crate::with_threads(4, || {
            (0..64usize)
                .into_par_iter()
                .map(|i| (0..8usize).into_par_iter().map(move |j| i * 8 + j).sum())
                .collect()
        });
        let expect: Vec<usize> = (0..64).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_callers_coexist_without_corruption() {
        let _serial = serial();
        // The override is per thread: each caller pins its own width.
        std::thread::scope(|scope| {
            for t in 0..4usize {
                scope.spawn(move || {
                    let out: Vec<usize> = crate::with_threads(3, || {
                        (0..300usize).into_par_iter().map(|i| i + t).collect()
                    });
                    assert_eq!(out, (0..300).map(|i| i + t).collect::<Vec<_>>());
                });
            }
        });
    }

    #[test]
    fn panics_propagate_and_the_caller_dispatches_again() {
        let _serial = serial();
        crate::with_threads(4, || {
            // Every chunk panics, the caller's own included, so its panic
            // unwinds through the participant loop.
            let r = std::panic::catch_unwind(|| {
                (0..100usize)
                    .into_par_iter()
                    .map(|_| -> usize { panic!("chunk bad") })
                    .collect::<Vec<_>>()
            });
            let payload = r.expect_err("a chunk panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk bad"));
            // A stale in-pool flag would run the next batch inline.
            let before = crate::pool_stats().batches;
            let out: Vec<usize> = (0..100usize).into_par_iter().map(|i| i * 3).collect();
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(crate::pool_stats().batches, before + 1, "the next batch ran inline");
        });
    }

    /// 300 tiny batches at width 4, every result checked.
    fn steal_heavy_rounds() {
        crate::with_threads(4, || {
            for round in 0..300usize {
                let out: Vec<usize> =
                    (0..8usize).into_par_iter().map(|i| i.wrapping_add(round)).collect();
                assert_eq!(out, (0..8usize).map(|i| i.wrapping_add(round)).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn steal_heavy_batches_never_deadlock() {
        // Regression canary for an ABBA deadlock in the steal scan: a
        // participant used to hold its own (empty) deque's lock while
        // probing victims, so two participants scanning concurrently could
        // wait on each other forever. Tiny batches at full width maximise
        // the number of simultaneous empty-deque scans.
        let _serial = serial();
        steal_heavy_rounds();
    }

    #[test]
    fn two_submitters_run_steal_heavy_batches_side_by_side() {
        // Top-level batches from different threads are independent scopes;
        // none waits for the other, and none is lost.
        let _serial = serial();
        let before = crate::pool_stats().batches;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    steal_heavy_rounds();
                });
            }
        });
        assert_eq!(crate::pool_stats().batches, before + 600);
    }
}
