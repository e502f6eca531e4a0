//! The process's one set of parked threads, and the work-stealing batch
//! behind [`par_apply`](crate) that runs on it.
//!
//! A batch is the caller plus `width - 1` helper tasks, each popping its own
//! chunk deque from the front and, when dry, stealing from a loaded victim's
//! back. The deques stay on the caller's stack, the rest in one `Arc<Batch>`.
//! A helper enters only while the batch is open, and the caller returns only
//! once it has closed the batch and every helper that entered has left. So
//! nothing a panicking batch touched outlives it, a helper that starts late
//! touches nothing of it, and batches run side by side with no submit lock.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a thread that finished a task stays parked for the next one.
const KEEP_ALIVE: Duration = Duration::from_secs(10);

/// The set's and the batches' locks are never held while a task or a chunk
/// runs, so they are never poisoned.
const UNLOCKED: &str = "tasks and chunks run unlocked";

static BATCHES: AtomicU64 = AtomicU64::new(0);
static CHUNKS: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);

/// The process's parked threads: every [`spawn`] and every batch runs on them.
pub(crate) static THREADS: Threads = Threads::new(KEEP_ALIVE);

/// Lifetime counters of every batch this process ran, and of its parked
/// threads, for telemetry and tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolStats {
    /// Batches submitted.
    pub batches: u64,
    /// Chunks executed (by helpers and callers alike).
    pub chunks: u64,
    /// Chunks run by a participant other than the one they were seeded to.
    pub steals: u64,
    /// Tasks that started a new thread.
    pub spawned: u64,
    /// Tasks handed to a parked thread.
    pub reused: u64,
    /// Threads parked right now.
    pub parked: u64,
}

/// Snapshot the process-wide counters.
pub fn pool_stats() -> PoolStats {
    let (spawned, reused, parked) = THREADS.counts();
    PoolStats {
        batches: BATCHES.load(Ordering::Relaxed),
        chunks: CHUNKS.load(Ordering::Relaxed),
        steals: STEALS.load(Ordering::Relaxed),
        spawned,
        reused,
        parked: parked as u64,
    }
}

/// Mirror of `rayon::spawn`: run `f` on one of the process's parked threads.
///
/// It departs from rayon in one place: a task never queues behind busy
/// threads. It goes to a parked thread if one is free and otherwise to a
/// new one; a thread that finishes a task parks for at most ten seconds
/// ([`KEEP_ALIVE`]) and then exits. A panic that leaves `f` ends its thread.
pub fn spawn(f: impl FnOnce() + Send + 'static) {
    THREADS.spawn(Box::new(f));
}

type Task = Box<dyn FnOnce() + Send>;

/// Tasks handed over and not yet taken, and the threads parked to take
/// them: never more tasks than threads, so every task is taken. Beside
/// them, how many tasks started a thread and how many found one parked.
struct Parked {
    tasks: VecDeque<Task>,
    threads: usize,
    spawned: u64,
    reused: u64,
}

/// A set of parked threads; [`THREADS`] is the process's one instance.
pub(crate) struct Threads {
    keep_alive: Duration,
    parked: Mutex<Parked>,
    wake: Condvar,
}

impl Threads {
    const fn new(keep_alive: Duration) -> Threads {
        let parked = Parked { tasks: VecDeque::new(), threads: 0, spawned: 0, reused: 0 };
        Threads { keep_alive, parked: Mutex::new(parked), wake: Condvar::new() }
    }

    /// `(spawned, reused, parked)`.
    fn counts(&self) -> (u64, u64, usize) {
        let parked = self.parked.lock().expect(UNLOCKED);
        (parked.spawned, parked.reused, parked.threads)
    }

    fn spawn(&'static self, task: Task) {
        let mut parked = self.parked.lock().expect(UNLOCKED);
        if parked.threads > parked.tasks.len() {
            parked.tasks.push_back(task);
            parked.reused += 1;
            self.wake.notify_one();
            return;
        }
        parked.spawned += 1;
        drop(parked);
        std::thread::spawn(move || self.run(task));
    }

    /// A thread's life: run the task, park, run the next one handed over;
    /// exit when none comes within the keep-alive.
    fn run(&self, mut task: Task) {
        loop {
            task();
            let mut parked = self.parked.lock().expect(UNLOCKED);
            parked.threads += 1;
            let deadline = Instant::now() + self.keep_alive;
            task = loop {
                if let Some(next) = parked.tasks.pop_front() {
                    break next;
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    parked.threads -= 1;
                    return;
                }
                parked = self.wake.wait_timeout(parked, left).expect(UNLOCKED).0;
            };
            parked.threads -= 1;
        }
    }

    /// Run `runner(c)` for every `c` in `0..chunks` on `width` participants
    /// (`width - 1` helper tasks on this set plus the caller), every helper
    /// out of the batch on return; the first chunk panic is rethrown with
    /// its own payload, the caller's own first.
    pub(crate) fn run_batch(&'static self, width: usize, chunks: usize, runner: &Runner<'_>) {
        debug_assert!(width >= 2, "width <= 1 must take the inline path");
        BATCHES.fetch_add(1, Ordering::Relaxed);
        let width = width.min(chunks).max(1);
        // Contiguous blocks: owners walk theirs in order (output-slot
        // locality) and idle participants steal a straggler's coldest
        // (furthest) chunks.
        let deques: Vec<Deque> = (0..width)
            .map(|w| Mutex::new((chunks * w / width..chunks * (w + 1) / width).collect()))
            .collect();
        let batch = Arc::new(Batch::default());
        // Any panic here, a failed thread spawn's too, is held until the
        // batch has closed, so `deques` and `runner` outlive every helper.
        let own = catch_unwind(AssertUnwindSafe(|| {
            for me in 0..width - 1 {
                // SAFETY: `close` below runs on every path before they go.
                self.spawn(unsafe { helper(batch.clone(), me, &deques, runner) });
            }
            // The caller owns the last deque.
            run_chunks(&deques, width - 1, runner);
        }));
        let helpers = batch.close();
        if let Some(payload) = own.err().or(helpers) {
            resume_unwind(payload);
        }
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

type Deque = Mutex<VecDeque<usize>>;
type Runner<'a> = dyn Fn(usize) + Sync + 'a;

/// Drain chunks as participant `me`: own deque from the front, then steal
/// from the back of the nearest loaded victim.
fn run_chunks(deques: &[Deque], me: usize, runner: &Runner<'_>) {
    let _in_pool = InPool(IN_POOL.with(|f| f.replace(true)));
    let n = deques.len();
    loop {
        let mut stolen = false;
        // Pop the own deque in its own statement, so its guard is dropped
        // before the steal scan: two participants holding their own lock
        // while probing each other's deadlock (ABBA). Never hold two locks.
        let own = deques[me].lock().expect(UNLOCKED).pop_front();
        let chunk = own.or_else(|| {
            (1..n).find_map(|d| {
                let c = deques[(me + d) % n].lock().expect(UNLOCKED).pop_back();
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

type Payload = Box<dyn Any + Send>;

/// Whether the batch is closed, how many helpers are in it, and the first
/// panic one of them brought out.
#[derive(Default)]
struct Entry {
    closed: bool,
    entered: usize,
    panic: Option<Payload>,
}

/// A batch's shared part, in one `Arc` between the caller and its helper
/// tasks: a helper that starts after the batch closed reads only this.
#[derive(Default)]
struct Batch {
    entry: Mutex<Entry>,
    left: Condvar,
}

impl Batch {
    /// Let no more helpers in and wait until every one that entered has
    /// left; the first helper panic, if any.
    fn close(&self) -> Option<Payload> {
        let mut entry = self.entry.lock().expect(UNLOCKED);
        entry.closed = true;
        self.left.wait_while(entry, |e| e.entered > 0).expect(UNLOCKED).panic.take()
    }
}

/// The helper task of participant `me`: if it enters `batch` before it
/// closes, it runs the batch's chunks, catching their panic for the caller,
/// and leaves; otherwise it reads nothing of `deques` or `runner`.
///
/// # Safety
///
/// The task carries `deques` and `runner` past their borrow. The caller must
/// keep both alive until [`Batch::close`] has returned: only then is no
/// helper inside, and none can enter.
unsafe fn helper(batch: Arc<Batch>, me: usize, deques: &[Deque], runner: &Runner<'_>) -> Task {
    struct Borrowed(*const [Deque], *const Runner<'static>);
    // SAFETY: both pointees are `Sync`, and the task reads them only while
    // the batch counts it in.
    unsafe impl Send for Borrowed {}
    // SAFETY: a lifetime-only transmute between fat pointers of one layout;
    // the pointer may dangle once the batch has closed.
    let borrowed = Borrowed(deques, unsafe { std::mem::transmute(runner) });
    Box::new(move || {
        // Move the `Send` wrapper in whole, not its two pointer fields.
        let borrowed = borrowed;
        let mut entry = batch.entry.lock().expect(UNLOCKED);
        if entry.closed {
            return;
        }
        entry.entered += 1;
        drop(entry);
        // SAFETY: the batch counts this helper in, so its caller has not
        // returned from `close` and both pointees are alive.
        let (deques, runner) = unsafe { (&*borrowed.0, &*borrowed.1) };
        let panic = catch_unwind(AssertUnwindSafe(|| run_chunks(deques, me, runner))).err();
        let mut entry = batch.entry.lock().expect(UNLOCKED);
        entry.entered -= 1;
        entry.panic = entry.panic.take().or(panic);
        batch.left.notify_one();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A set of its own, so that batches of tests running beside it do not
    /// move its counts.
    fn private_set(keep_alive: Duration) -> &'static Threads {
        Box::leak(Box::new(Threads::new(keep_alive)))
    }

    /// Poll `cond` until it holds (30 s cap).
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sequential_tasks_reuse_one_thread() {
        let set = private_set(KEEP_ALIVE);
        let (ran, done) = std::sync::mpsc::channel();
        for _ in 0..20 {
            let ran = ran.clone();
            set.spawn(Box::new(move || ran.send(()).unwrap()));
            // Wait for it to run and park, so the next task finds it parked.
            done.recv().unwrap();
            wait_until("one parked thread", || set.counts().2 == 1);
        }
        assert_eq!(set.counts(), (1, 19, 1));
    }

    /// Counts its thread's exit: a thread-local's destructor runs then.
    struct OnExit(Arc<AtomicUsize>);

    impl Drop for OnExit {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static ON_EXIT: Cell<Option<OnExit>> = const { Cell::new(None) };
    }

    #[test]
    fn idle_threads_exit_after_the_keep_alive() {
        let set = private_set(Duration::from_millis(20));
        let exits = Arc::new(AtomicUsize::new(0));
        // Three tasks that end together need three threads.
        let start = Arc::new(std::sync::Barrier::new(3));
        for _ in 0..3 {
            let (start, exits) = (start.clone(), exits.clone());
            set.spawn(Box::new(move || {
                ON_EXIT.with(|e| e.set(Some(OnExit(exits))));
                start.wait();
            }));
        }
        wait_until("every idle thread exited", || exits.load(Ordering::SeqCst) == 3);
        assert_eq!(set.counts(), (3, 0, 0));
    }

    #[test]
    fn a_helper_dequeued_after_its_batch_closed_touches_nothing() {
        let batch = Arc::new(Batch::default());
        let ran = AtomicUsize::new(0);
        let runner = |_: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        let deques: Vec<Deque> = vec![Mutex::new((0..4).collect())];
        // SAFETY: the batch closes before the task runs, so it never
        // enters; the deques may go first, which is what is checked.
        let task = unsafe { helper(batch.clone(), 0, &deques, &runner) };
        assert!(batch.close().is_none());
        drop(deques);
        task();
        assert_eq!(ran.load(Ordering::Relaxed), 0, "a late helper ran a chunk");
        assert_eq!(batch.entry.lock().unwrap().entered, 0, "a late helper entered");
    }

    #[test]
    fn a_warm_width_two_batch_spawns_no_thread() {
        let set = private_set(KEEP_ALIVE);
        set.run_batch(2, 16, &|_| ());
        wait_until("the helper parked", || set.counts().2 == 1);
        set.run_batch(2, 16, &|_| ());
        let (spawned, reused, _) = set.counts();
        assert_eq!((spawned, reused), (1, 1));
    }

    #[test]
    fn a_helper_chunk_panic_reaches_the_caller_and_the_helper_parks_again() {
        let set = private_set(KEEP_ALIVE);
        let caller = std::thread::current().id();
        let helper_ran = std::sync::atomic::AtomicBool::new(false);
        // One chunk per deque: the caller's own waits until the helper has
        // run the other, which panics.
        let runner = |_: usize| {
            if std::thread::current().id() != caller {
                helper_ran.store(true, Ordering::SeqCst);
                panic!("helper chunk");
            }
            wait_until("the helper ran its chunk", || helper_ran.load(Ordering::SeqCst));
        };
        let payload = catch_unwind(AssertUnwindSafe(|| set.run_batch(2, 2, &runner)))
            .expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper chunk"));
        wait_until("the helper parked again", || set.counts().2 == 1);
        assert_eq!(set.counts().0, 1);
    }
}
