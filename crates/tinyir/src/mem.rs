//! The memory abstraction shared by the reference interpreter and the SimISA
//! machine.
//!
//! Memory is sparse and page-granular: only explicitly mapped pages are
//! accessible, and touching an unmapped page produces the simulated
//! equivalent of `SIGSEGV` (with the faulting address, like `siginfo_t`'s
//! `si_addr`). Misaligned accesses produce the equivalent of `SIGBUS`.
//!
//! # The software TLB
//!
//! [`PagedMemory`] keeps two small direct-mapped translation caches — one
//! for loads, one for stores — so the common same-page access skips both
//! the page-table `HashMap` probe and the CoW `Arc::make_mut` ownership
//! check. An entry caches a raw pointer to the page's backing allocation
//! (the `[u8; 4096]` inside its `Arc`, which never moves even when the
//! page-table rehashes). Validity is tracked with epochs:
//!
//! * a **read** entry is valid while the page stays mapped with the same
//!   backing allocation — invalidated wholesale by bumping `read_epoch` on
//!   `unmap_region` and on an `apply` that drops pages or changes the zero
//!   spans, and updated in place when a store or an `apply` unshares the
//!   page (CoW replaces the allocation);
//! * a **write** entry additionally requires the allocation to be
//!   *exclusively owned* (entries are only filled right after
//!   `Arc::make_mut`), so it must also die whenever the memory is cloned —
//!   `clone()` shares every page with the snapshot, and a stale write
//!   pointer would silently corrupt the forked sibling. `Clone::clone`
//!   only gets `&self`, hence `write_epoch` is an atomic the clone path
//!   can bump.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Page size of the simulated address space (4 KiB, like Linux/x86_64).
pub const PAGE_SIZE: u64 = 4096;

type Page = [u8; PAGE_SIZE as usize];

/// The one all-zero page every fresh mapping aliases until first write.
fn zero_page() -> &'static Arc<Page> {
    static ZERO: OnceLock<Arc<Page>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new([0u8; PAGE_SIZE as usize]))
}

/// A memory access fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// Access to an unmapped page — manifests as `SIGSEGV`.
    Unmapped(u64),
    /// Naturally-misaligned access — manifests as `SIGBUS`.
    Misaligned(u64),
}

impl MemFault {
    /// The faulting address.
    pub fn addr(self) -> u64 {
        match self {
            MemFault::Unmapped(a) | MemFault::Misaligned(a) => a,
        }
    }
}

/// Access and TLB counters kept by [`PagedMemory`].
///
/// `loads`/`stores` are bumped on the hot paths (replacing the old single
/// `access_count` — same cost, one increment); the `*_tlb_misses` fields
/// are only bumped on the slow paths, so hits need no counter at all:
/// `hits = accesses − misses`. Bulk [`PagedMemory::read_bytes`] /
/// [`PagedMemory::write_bytes`] traffic is excluded, as it was from
/// `access_count` — these count *simulated* word accesses, not loader I/O.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Word loads served (including ones that faulted after the alignment
    /// check).
    pub loads: u64,
    /// Word stores served (same caveat).
    pub stores: u64,
    /// Loads that missed the read TLB and walked the page table.
    pub read_tlb_misses: u64,
    /// Stores that missed the write TLB and took the CoW slow path.
    pub write_tlb_misses: u64,
}

impl MemStats {
    /// Total word accesses (the old `access_count`).
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// TLB hits across both caches.
    pub fn hits(&self) -> u64 {
        self.accesses() - self.read_tlb_misses - self.write_tlb_misses
    }

    /// Combined hit rate in `[0, 1]`; 1.0 for an idle memory.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits() as f64 / self.accesses() as f64
        }
    }

    /// Counter deltas since an earlier snapshot of the same memory.
    pub fn since(&self, base: &MemStats) -> MemStats {
        MemStats {
            loads: self.loads - base.loads,
            stores: self.stores - base.stores,
            read_tlb_misses: self.read_tlb_misses - base.read_tlb_misses,
            write_tlb_misses: self.write_tlb_misses - base.write_tlb_misses,
        }
    }

    /// Elementwise accumulation (for aggregating per-run deltas).
    pub fn merge(&mut self, other: &MemStats) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.read_tlb_misses += other.read_tlb_misses;
        self.write_tlb_misses += other.write_tlb_misses;
    }
}

/// Number of direct-mapped entries per TLB (indexed by the page number's
/// low bits). 64 entries comfortably cover a stack page + the handful of
/// global-array pages an inner loop streams through.
const TLB_WAYS: usize = 64;

/// One translation-cache entry. `epoch` must match the owning TLB's
/// current epoch for the entry to be live; `page == u64::MAX` (no valid
/// address maps there) marks a never-filled slot.
#[derive(Clone, Copy)]
struct TlbEntry {
    page: u64,
    epoch: u64,
    ptr: *mut Page,
}

const TLB_EMPTY: TlbEntry = TlbEntry { page: u64::MAX, epoch: 0, ptr: std::ptr::null_mut() };

#[inline]
fn tlb_idx(page: u64) -> usize {
    page as usize & (TLB_WAYS - 1)
}

/// The page table's hash: a page number times a 64-bit odd constant, one
/// multiply where SipHash runs rounds, and every probe pays it (a TLB miss,
/// and each page a delta walks). It is a cheap, nearly identity hash: the
/// table picks a bucket from the low bits, and the product's low k bits are
/// a one-to-one image of the page number's low k bits, so buckets spread
/// no better than the page numbers themselves. That suits page numbers
/// that are dense, as a process's are; pages that differ only in high bits
/// (say, the same offset in two regions) share a bucket, and the table
/// tells them apart by the product's top bits within the probed group.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("page numbers hash through write_u64")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse paged memory backed by a page-table hash map plus a zero-span
/// interval list.
///
/// Pages are reference-counted and copy-on-write: `clone()` shares every
/// page with the original (O(*written* pages) pointer copies, no byte
/// copies), and the first store to a shared page unshares just that page.
/// Fresh mappings are recorded as **zero spans** — sorted, disjoint page
/// ranges that read as zero through the one static zero page and only
/// materialise a page-table entry on first store. Mapping a large region
/// (e.g. the 32 MiB stack) therefore costs one interval insert, not one
/// table entry per page — which is what keeps snapshot forks cheap: a
/// campaign forks thousands of processes, and each fork clones the page
/// table.
///
/// Loads and stores are accelerated by a software TLB (see module docs);
/// the TLB is an invisible cache — behaviour is bit-identical to the
/// TLB-free page-table walk (`tests/mem_model.rs` checks this against a
/// reference model over arbitrary op interleavings).
pub struct PagedMemory {
    pages: HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>,
    /// Mapped-but-never-written page ranges (inclusive); sorted, disjoint,
    /// non-adjacent. `pages` takes precedence: a materialised page may
    /// still be covered by a span, and both are removed on unmap.
    zero_spans: Vec<(u64, u64)>,
    /// Access and TLB-miss counters (profiling aid; see [`MemStats`]).
    pub stats: MemStats,
    read_tlb: [TlbEntry; TLB_WAYS],
    write_tlb: [TlbEntry; TLB_WAYS],
    /// Epoch of live read entries; bumped on unmap and on an `apply` that
    /// drops pages or changes the spans.
    read_epoch: u64,
    /// Epoch of live write entries; bumped where `read_epoch` is and on
    /// `clone()` (atomic because the clone path only has `&self`).
    write_epoch: AtomicU64,
}

// SAFETY: the raw TLB pointers always point into `Arc<Page>` allocations
// owned (or co-owned) by `pages`, so they are valid whenever their epoch
// check passes. They are only dereferenced under `&mut self` (`load` /
// `store`), never through `&self`, so moving or sharing a `PagedMemory`
// across threads cannot introduce a data race the borrow checker would
// not already rule out for the equivalent pointer-free structure.
unsafe impl Send for PagedMemory {}
unsafe impl Sync for PagedMemory {}

impl Default for PagedMemory {
    fn default() -> PagedMemory {
        PagedMemory {
            pages: HashMap::default(),
            zero_spans: Vec::new(),
            stats: MemStats::default(),
            read_tlb: [TLB_EMPTY; TLB_WAYS],
            write_tlb: [TLB_EMPTY; TLB_WAYS],
            // Epochs start above the never-filled entries' 0.
            read_epoch: 1,
            write_epoch: AtomicU64::new(1),
        }
    }
}

impl Clone for PagedMemory {
    fn clone(&self) -> PagedMemory {
        // Every page is now shared with the snapshot: a write through a
        // stale write-TLB pointer would mutate the sibling's copy behind
        // the CoW machinery's back, so retire the source's write TLB by
        // bumping its epoch (read entries stay valid — the allocations
        // survive and shared pages are read-safe). The snapshot starts
        // with cold TLBs of its own.
        self.write_epoch.fetch_add(1, Ordering::Relaxed);
        PagedMemory {
            pages: self.pages.clone(),
            zero_spans: self.zero_spans.clone(),
            stats: self.stats,
            ..PagedMemory::default()
        }
    }
}

impl PagedMemory {
    /// Fresh, fully-unmapped memory.
    pub fn new() -> PagedMemory {
        PagedMemory::default()
    }

    /// True when page `p` lies inside a zero span (mapped, reads as zero,
    /// no table entry yet).
    #[inline]
    fn span_contains(&self, p: u64) -> bool {
        self.zero_spans
            .binary_search_by(|&(a, b)| {
                if b < p {
                    std::cmp::Ordering::Less
                } else if a > p {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Number of currently mapped pages (materialised + zero-span).
    pub fn mapped_pages(&self) -> usize {
        let span_pages: u64 = self.zero_spans.iter().map(|&(a, b)| b - a + 1).sum();
        let outside = self.pages.keys().filter(|&&p| !self.span_contains(p)).count();
        span_pages as usize + outside
    }

    /// Number of mapped pages exclusively owned by this memory (i.e. already
    /// unshared from any snapshot and from the zero page).
    pub fn private_pages(&self) -> usize {
        self.pages.values().filter(|p| Arc::strong_count(p) == 1).count()
    }

    #[inline]
    fn page_of(addr: u64) -> (u64, usize) {
        (addr / PAGE_SIZE, (addr % PAGE_SIZE) as usize)
    }

    /// TLB-miss path for stores: probe the page table, unshare the page
    /// (CoW), and refresh both TLBs — the write entry because the page is
    /// now exclusively owned, the read entry because unsharing may have
    /// *replaced* the backing allocation a read entry points at.
    fn store_page_slow(&mut self, p: u64, fault_addr: u64) -> Result<&mut Page, MemFault> {
        if !self.pages.contains_key(&p) {
            if !self.span_contains(p) {
                return Err(MemFault::Unmapped(fault_addr));
            }
            // Materialise: first store to a zero-span page. The static
            // zero page's refcount never drops to one, so `make_mut`
            // below copies it — the normal CoW unshare.
            self.pages.insert(p, Arc::clone(zero_page()));
        }
        let arc = self.pages.get_mut(&p).expect("just checked/inserted");
        let ptr: *mut Page = Arc::make_mut(arc);
        let i = tlb_idx(p);
        self.write_tlb[i] =
            TlbEntry { page: p, epoch: self.write_epoch.load(Ordering::Relaxed), ptr };
        self.read_tlb[i] = TlbEntry { page: p, epoch: self.read_epoch, ptr };
        // SAFETY: `ptr` was just derived from the exclusively-owned page.
        Ok(unsafe { &mut *ptr })
    }

    /// Read raw bytes without alignment checks (used by loaders/debuggers).
    ///
    /// Walks page-by-page (one page-table probe per page, `copy_from_slice`
    /// for the bytes). A range crossing an unmapped hole faults with the
    /// first unmapped address, exactly like the byte-at-a-time walk.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let (p, off) = Self::page_of(a);
            let n = (PAGE_SIZE as usize - off).min(buf.len() - done);
            let page: &Page = match self.pages.get(&p) {
                Some(arc) => arc,
                None if self.span_contains(p) => zero_page(),
                None => return Err(MemFault::Unmapped(a)),
            };
            buf[done..done + n].copy_from_slice(&page[off..off + n]);
            done += n;
        }
        Ok(())
    }

    /// Write raw bytes without alignment checks (used by loaders).
    ///
    /// Page-granular like [`read_bytes`](Self::read_bytes); pages before an
    /// unmapped hole are written before the fault is reported (the same
    /// partial effect as the byte-at-a-time walk, which always faults on a
    /// page boundary).
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let (p, off) = Self::page_of(a);
            let n = (PAGE_SIZE as usize - off).min(buf.len() - done);
            let page = self.store_page_slow(p, a)?;
            page[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Load `size` bytes (1, 2, 4 or 8) from `addr` as little-endian bits.
    #[inline]
    pub fn load(&mut self, addr: u64, size: u32) -> Result<u64, MemFault> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        // `size` is a power of two, so the natural-alignment check is a
        // mask — not the hardware division `addr % size` would cost.
        if addr & (size as u64 - 1) != 0 {
            return Err(MemFault::Misaligned(addr));
        }
        self.stats.loads += 1;
        let (p, off) = Self::page_of(addr);
        let i = tlb_idx(p);
        let e = self.read_tlb[i];
        let page: &Page = if e.page == p && e.epoch == self.read_epoch {
            // SAFETY: a live read entry points at the current backing
            // allocation of a still-mapped page (see module docs).
            unsafe { &*e.ptr }
        } else {
            self.stats.read_tlb_misses += 1;
            let ptr = match self.pages.get(&p) {
                Some(arc) => Arc::as_ptr(arc) as *mut Page,
                // A zero-span page reads through the static zero page; the
                // pointer stays valid forever, and a store materialising
                // the page refreshes this entry (`store_page_slow`).
                None if self.span_contains(p) => Arc::as_ptr(zero_page()) as *mut Page,
                None => return Err(MemFault::Unmapped(addr)),
            };
            self.read_tlb[i] = TlbEntry { page: p, epoch: self.read_epoch, ptr };
            // SAFETY: `ptr` points into an `Arc` the page table holds, or
            // into the immortal static zero page.
            unsafe { &*ptr }
        };
        // Natural alignment guarantees the value does not straddle a page.
        Ok(match size {
            1 => page[off] as u64,
            2 => u16::from_le_bytes(page[off..off + 2].try_into().unwrap()) as u64,
            4 => u32::from_le_bytes(page[off..off + 4].try_into().unwrap()) as u64,
            _ => u64::from_le_bytes(page[off..off + 8].try_into().unwrap()),
        })
    }

    /// Store the low `size` bytes of `bits` to `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, size: u32, bits: u64) -> Result<(), MemFault> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        if addr & (size as u64 - 1) != 0 {
            return Err(MemFault::Misaligned(addr));
        }
        self.stats.stores += 1;
        let (p, off) = Self::page_of(addr);
        let e = self.write_tlb[tlb_idx(p)];
        let page: &mut Page = if e.page == p && e.epoch == self.write_epoch.load(Ordering::Relaxed)
        {
            // SAFETY: a live write entry points at the exclusively-owned
            // backing allocation of a still-mapped page — exclusivity
            // can only be lost through `clone()`/`unmap_region`, both of
            // which bump `write_epoch` (see module docs).
            unsafe { &mut *e.ptr }
        } else {
            self.stats.write_tlb_misses += 1;
            self.store_page_slow(p, addr)?
        };
        match size {
            1 => page[off] = bits as u8,
            2 => page[off..off + 2].copy_from_slice(&(bits as u16).to_le_bytes()),
            4 => page[off..off + 4].copy_from_slice(&(bits as u32).to_le_bytes()),
            _ => page[off..off + 8].copy_from_slice(&bits.to_le_bytes()),
        }
        Ok(())
    }

    /// Make `[addr, addr+len)` accessible (zero-filled).
    pub fn map_region(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        // One interval insert, however large the region. Already-mapped
        // pages keep their allocation (`pages` takes precedence over the
        // span on every access), so live TLB entries stay correct; fresh
        // pages cannot have live entries (unmap bumped the epochs when
        // they were last dropped). Overlapping or adjacent spans coalesce
        // to keep the list sorted, disjoint and non-adjacent.
        let mut merged = (first, last);
        let mut out = Vec::with_capacity(self.zero_spans.len() + 1);
        for &(a, b) in &self.zero_spans {
            if b.saturating_add(1) >= merged.0 && a <= merged.1.saturating_add(1) {
                merged = (merged.0.min(a), merged.1.max(b));
            } else {
                out.push((a, b));
            }
        }
        out.push(merged);
        out.sort_unstable();
        self.zero_spans = out;
    }

    /// Release the mapping for `[addr, addr+len)` (page granular).
    pub fn unmap_region(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        // Drop materialised pages in the range; walk whichever side is
        // smaller so unmapping a huge never-written span stays cheap.
        if ((last - first) as u128) < self.pages.len() as u128 {
            for p in first..=last {
                self.pages.remove(&p);
            }
        } else {
            self.pages.retain(|&p, _| p < first || p > last);
        }
        // Split any zero span straddling the range (stays sorted/disjoint).
        let mut out = Vec::with_capacity(self.zero_spans.len() + 1);
        for &(a, b) in &self.zero_spans {
            if b < first || a > last {
                out.push((a, b));
                continue;
            }
            if a < first {
                out.push((a, first - 1));
            }
            if b > last {
                out.push((last + 1, b));
            }
        }
        self.zero_spans = out;
        // Dropping a page may free its allocation: retire both TLBs.
        self.read_epoch += 1;
        self.write_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// True if `addr` lies in a mapped page.
    pub fn is_mapped(&self, addr: u64) -> bool {
        let p = addr / PAGE_SIZE;
        self.pages.contains_key(&p) || self.span_contains(p)
    }

    /// True when the two memories are certain to answer every future access
    /// alike: equal zero spans, the same set of materialised pages, and each
    /// pair of pages either one shared allocation or byte-equal.
    ///
    /// Conservative: a page materialised as all-zero on one side and still a
    /// zero span on the other reads the same but compares unequal — `false`
    /// may be a missed equality, `true` never a wrong one. `stats` and the
    /// TLBs are left out: counters and caches, not contents.
    pub fn same_contents(&self, other: &PagedMemory) -> bool {
        self.zero_spans == other.zero_spans
            && self.pages.len() == other.pages.len()
            && self.pages.iter().all(|(p, mine)| {
                other.pages.get(p).is_some_and(|theirs| Arc::ptr_eq(mine, theirs) || mine == theirs)
            })
    }

    /// What turns `older` into this memory: the [`LINE_SIZE`]-byte lines
    /// that differ, the pages materialised since (even all-zero ones:
    /// [`same_contents`](Self::same_contents) tells a zero page from a zero
    /// span), the pages dropped since, and the zero spans when they changed.
    /// Only pages whose allocation differs from `older`'s are read, so a
    /// copy-on-write clone taken as `older` costs what was written since.
    pub fn delta_since(&self, older: &PagedMemory) -> MemDelta {
        let mut changed: Vec<(u64, Option<&Page>, &Page)> = (self.pages.iter())
            .filter_map(|(&p, mine)| match older.pages.get(&p) {
                Some(theirs) if Arc::ptr_eq(mine, theirs) => None,
                theirs => Some((p, theirs.map(|t| &**t), &**mine)),
            })
            .collect();
        changed.sort_unstable_by_key(|c| c.0);
        let mut out = DeltaBuilder::default();
        let mut fresh = 0;
        for (p, theirs, mine) in changed {
            fresh += theirs.is_none() as usize;
            let base = theirs.unwrap_or(zero_page());
            let (lines, was) = (mine.as_chunks::<LINE_SIZE>().0, base.as_chunks::<LINE_SIZE>().0);
            for (at, (line, was)) in lines.iter().zip(was).enumerate() {
                if line_differs(line, was) {
                    out.line(at as u8, line);
                }
            }
            out.close_page(p, theirs.is_none());
        }
        // Every page here is in `older` or fresh, so this many of `older`'s
        // are gone: skip the scan when none is.
        let mut dropped = Vec::new();
        if older.pages.len() + fresh > self.pages.len() {
            dropped.extend(older.pages.keys().filter(|p| !self.pages.contains_key(p)));
            dropped.sort_unstable();
        }
        let spans = (self.zero_spans != older.zero_spans).then(|| self.zero_spans.clone().into());
        out.finish(dropped.into(), spans)
    }

    /// Bring this memory forward by `delta`, as taken from a memory with
    /// these contents. Every page it writes goes through the store slow
    /// path, which unshares the page and refreshes both TLBs; new spans
    /// and dropped pages retire both TLBs like an unmap.
    pub fn apply(&mut self, delta: &MemDelta) {
        if let Some(spans) = &delta.zero_spans {
            self.zero_spans = spans.to_vec();
        }
        for p in &delta.dropped {
            self.pages.remove(p);
        }
        if delta.zero_spans.is_some() || !delta.dropped.is_empty() {
            self.read_epoch += 1;
            self.write_epoch.fetch_add(1, Ordering::Relaxed);
        }
        for (entry, at, lines) in delta.page_entries() {
            if entry.fresh {
                self.pages.insert(entry.page, Arc::clone(zero_page()));
            }
            let page = self.store_page_slow(entry.page, entry.page * PAGE_SIZE).expect("mapped");
            for (&at, line) in at.iter().zip(lines) {
                page[at as usize * LINE_SIZE..][..LINE_SIZE].copy_from_slice(line);
            }
        }
    }
}

/// Bytes in one line of a [`MemDelta`].
pub const LINE_SIZE: usize = 64;

type Line = [u8; LINE_SIZE];

/// True when two lines differ, compared 8 bytes at a time.
#[inline]
fn line_differs(a: &Line, b: &Line) -> bool {
    let word = |s: &Line, i: usize| u64::from_ne_bytes(s[i * 8..][..8].try_into().expect("8"));
    (0..LINE_SIZE / 8).fold(0, |acc, i| acc | (word(a, i) ^ word(b, i))) != 0
}

/// One page's entry in a [`MemDelta`].
#[derive(Clone, Debug, PartialEq)]
struct PageLines {
    page: u64,
    /// The page starts over from zeros before its lines land: it was
    /// materialised (or re-materialised) since the older memory.
    fresh: bool,
    /// One past this page's last line in the delta's line list.
    end: u32,
}

/// The difference between two states of one [`PagedMemory`], taken by
/// [`PagedMemory::delta_since`] and replayed by [`PagedMemory::apply`]:
/// changed lines grouped by page, dropped pages, and the zero spans when
/// they changed. Held in boxed slices, so it keeps no spare capacity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemDelta {
    /// In page order.
    pages: Box<[PageLines]>,
    /// Each line's index within its page, beside `lines`.
    at: Box<[u8]>,
    lines: Box<[Line]>,
    /// In page order.
    dropped: Box<[u64]>,
    zero_spans: Option<Box<[(u64, u64)]>>,
}

impl MemDelta {
    /// Each page entry with its line indexes and lines.
    fn page_entries(&self) -> impl Iterator<Item = (&PageLines, &[u8], &[Line])> {
        let starts = std::iter::once(0).chain(self.pages.iter().map(|e| e.end as usize));
        self.pages.iter().zip(starts).map(|(e, start)| {
            let range = start..e.end as usize;
            (e, &self.at[range.clone()], &self.lines[range])
        })
    }
}

/// A [`MemDelta`] under construction, page by page in page order.
#[derive(Default)]
struct DeltaBuilder {
    pages: Vec<PageLines>,
    at: Vec<u8>,
    lines: Vec<Line>,
}

impl DeltaBuilder {
    fn line(&mut self, at: u8, line: &Line) {
        self.at.push(at);
        self.lines.push(*line);
    }

    /// End page `page`'s entry. A page that is neither fresh nor changed
    /// (written back to what it held) gets none.
    fn close_page(&mut self, page: u64, fresh: bool) {
        let end = self.lines.len() as u32;
        if fresh || self.pages.last().map_or(0, |e| e.end) < end {
            self.pages.push(PageLines { page, fresh, end });
        }
    }

    fn finish(self, dropped: Box<[u64]>, zero_spans: Option<Box<[(u64, u64)]>>) -> MemDelta {
        MemDelta {
            pages: self.pages.into(),
            at: self.at.into(),
            lines: self.lines.into(),
            dropped,
            zero_spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults_with_address() {
        let mut m = PagedMemory::new();
        assert_eq!(m.load(0x4000_0000, 8), Err(MemFault::Unmapped(0x4000_0000)));
        assert_eq!(m.store(0x123450, 8, 0), Err(MemFault::Unmapped(0x123450)));
    }

    #[test]
    fn misaligned_access_is_a_bus_error() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, PAGE_SIZE);
        assert_eq!(m.load(0x1001, 8), Err(MemFault::Misaligned(0x1001)));
        assert_eq!(m.load(0x1004, 8), Err(MemFault::Misaligned(0x1004)));
        assert!(m.load(0x1004, 4).is_ok());
        assert!(m.load(0x1001, 1).is_ok());
    }

    #[test]
    fn round_trip_all_sizes() {
        let mut m = PagedMemory::new();
        m.map_region(0x2000, PAGE_SIZE);
        for (size, val) in
            [(1u32, 0xabu64), (2, 0xbeef), (4, 0xdead_beef), (8, 0x0123_4567_89ab_cdef)]
        {
            m.store(0x2000, size, val).unwrap();
            assert_eq!(m.load(0x2000, size).unwrap(), val);
        }
    }

    #[test]
    fn stores_do_not_leak_beyond_size() {
        let mut m = PagedMemory::new();
        m.map_region(0x3000, PAGE_SIZE);
        m.store(0x3000, 8, u64::MAX).unwrap();
        m.store(0x3000, 2, 0).unwrap();
        assert_eq!(m.load(0x3000, 8).unwrap(), !0xffff);
    }

    #[test]
    fn map_and_unmap_page_granularity() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, 2 * PAGE_SIZE);
        assert!(m.is_mapped(0x1000));
        assert!(m.is_mapped(0x1fff));
        assert!(m.is_mapped(0x2000));
        assert!(!m.is_mapped(0x3000));
        m.unmap_region(0x1000, PAGE_SIZE);
        assert!(!m.is_mapped(0x1000));
        assert!(m.is_mapped(0x2000));
    }

    #[test]
    fn raw_byte_io() {
        let mut m = PagedMemory::new();
        m.map_region(0x5000, PAGE_SIZE);
        m.write_bytes(0x5003, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        m.read_bytes(0x5003, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert!(m.read_bytes(0x9000, &mut buf).is_err());
    }

    #[test]
    fn bulk_io_crosses_pages() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, 3 * PAGE_SIZE);
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        m.write_bytes(0x1000 + PAGE_SIZE / 2, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read_bytes(0x1000 + PAGE_SIZE / 2, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn bulk_read_across_unmapped_hole_faults_with_first_unmapped_address() {
        let mut m = PagedMemory::new();
        // Mapped page at 0x1000, hole at 0x2000, mapped again at 0x3000.
        m.map_region(0x1000, PAGE_SIZE);
        m.map_region(0x3000, PAGE_SIZE);
        let mut buf = [0u8; 0x30];
        // Read starts mid-page and crosses into the hole: the fault address
        // must be the first byte of the unmapped page, not the range start.
        assert_eq!(m.read_bytes(0x1ff0, &mut buf), Err(MemFault::Unmapped(0x2000)));
        // A read starting inside the hole faults at its own first byte.
        assert_eq!(m.read_bytes(0x2ff8, &mut buf), Err(MemFault::Unmapped(0x2ff8)));
        // Same contract for writes.
        assert_eq!(m.write_bytes(0x1ff0, &buf), Err(MemFault::Unmapped(0x2000)));
        // And a multi-page gap still reports the *first* unmapped address.
        let mut big = vec![0u8; 3 * PAGE_SIZE as usize];
        assert_eq!(m.read_bytes(0x1000, &mut big), Err(MemFault::Unmapped(0x2000)));
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, 4 * PAGE_SIZE);
        m.store(0x1000, 8, 0x1111).unwrap();
        let mut snap = m.clone();
        // All pages shared between m, snap (and the zero page for untouched
        // ones): nothing exclusively owned.
        assert_eq!(m.private_pages(), 0);
        assert_eq!(snap.private_pages(), 0);
        // Writes diverge without affecting the other side.
        snap.store(0x1000, 8, 0x2222).unwrap();
        snap.store(0x2000, 8, 0x3333).unwrap();
        assert_eq!(m.load(0x1000, 8).unwrap(), 0x1111);
        assert_eq!(m.load(0x2000, 8).unwrap(), 0);
        assert_eq!(snap.load(0x1000, 8).unwrap(), 0x2222);
        assert_eq!(snap.load(0x2000, 8).unwrap(), 0x3333);
        assert_eq!(snap.private_pages(), 2);
    }

    #[test]
    fn fresh_mappings_alias_the_zero_page() {
        let mut a = PagedMemory::new();
        a.map_region(0, 1024 * PAGE_SIZE);
        assert_eq!(a.mapped_pages(), 1024);
        // Zero-filled but not materialised: no page is exclusively owned.
        assert_eq!(a.private_pages(), 0);
        assert_eq!(a.load(512 * PAGE_SIZE, 8).unwrap(), 0);
        a.store(512 * PAGE_SIZE, 8, 7).unwrap();
        assert_eq!(a.private_pages(), 1);
    }

    #[test]
    fn values_never_straddle_pages_when_aligned() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, PAGE_SIZE);
        // Last aligned u64 slot of the page.
        let addr = 0x1000 + PAGE_SIZE - 8;
        m.store(addr, 8, 42).unwrap();
        assert_eq!(m.load(addr, 8).unwrap(), 42);
    }

    // ------------------------------------------------------------------
    // TLB invalidation: each test arms a TLB entry, triggers one of the
    // invalidation events, and checks the next access cannot go stale.
    // ------------------------------------------------------------------

    #[test]
    fn stale_write_tlb_after_clone_cannot_corrupt_the_snapshot() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, PAGE_SIZE);
        // Arm the write TLB with an exclusively-owned page.
        m.store(0x1000, 8, 0xAAAA).unwrap();
        assert_eq!(m.private_pages(), 1);
        let mut snap = m.clone();
        // This store must miss the (retired) write TLB, unshare the page,
        // and leave the snapshot's copy untouched.
        m.store(0x1000, 8, 0xBBBB).unwrap();
        assert_eq!(snap.load(0x1000, 8).unwrap(), 0xAAAA);
        assert_eq!(m.load(0x1000, 8).unwrap(), 0xBBBB);
        // And again with the roles flipped (snapshot writes first).
        let mut m2 = snap.clone();
        snap.store(0x1000, 8, 0xCCCC).unwrap();
        assert_eq!(m2.load(0x1000, 8).unwrap(), 0xAAAA);
        assert_eq!(snap.load(0x1000, 8).unwrap(), 0xCCCC);
        m2.store(0x1000, 8, 0xDDDD).unwrap();
        assert_eq!(snap.load(0x1000, 8).unwrap(), 0xCCCC);
    }

    #[test]
    fn repeated_clones_each_retire_the_write_tlb() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, PAGE_SIZE);
        for round in 0..4u64 {
            // Re-arm the write TLB (store unshares + fills the entry)...
            m.store(0x1000, 8, round).unwrap();
            // ...then clone and make sure the sibling never sees the next
            // round's write.
            let mut snap = m.clone();
            m.store(0x1000, 8, round + 100).unwrap();
            assert_eq!(snap.load(0x1000, 8).unwrap(), round);
        }
    }

    #[test]
    fn read_tlb_is_updated_when_a_store_unshares_the_page() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, PAGE_SIZE);
        m.store(0x1000, 8, 0x1111).unwrap();
        let snap = m.clone();
        // Arm m's read TLB on the (now shared) page...
        assert_eq!(m.load(0x1000, 8).unwrap(), 0x1111);
        // ...then unshare it via a store: the read entry must follow the
        // page to its new allocation, not keep serving the snapshot's copy.
        m.store(0x1008, 8, 0x2222).unwrap();
        assert_eq!(m.load(0x1000, 8).unwrap(), 0x1111);
        assert_eq!(m.load(0x1008, 8).unwrap(), 0x2222);
        drop(snap);
    }

    #[test]
    fn read_tlb_is_updated_when_a_store_materialises_a_zero_page() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, PAGE_SIZE);
        // Arm the read TLB on the zero-page alias.
        assert_eq!(m.load(0x1000, 8).unwrap(), 0);
        // First write replaces the alias with a private allocation; reads
        // must see it immediately.
        m.store(0x1000, 8, 77).unwrap();
        assert_eq!(m.load(0x1000, 8).unwrap(), 77);
    }

    #[test]
    fn unmap_invalidates_both_tlbs() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, PAGE_SIZE);
        m.store(0x1000, 8, 5).unwrap(); // arms write TLB
        assert_eq!(m.load(0x1000, 8).unwrap(), 5); // arms read TLB
        m.unmap_region(0x1000, PAGE_SIZE);
        // Stale entries must not let accesses reach the freed page.
        assert_eq!(m.load(0x1000, 8), Err(MemFault::Unmapped(0x1000)));
        assert_eq!(m.store(0x1000, 8, 9), Err(MemFault::Unmapped(0x1000)));
        // Remapping yields a fresh zero page, not the old contents.
        m.map_region(0x1000, PAGE_SIZE);
        assert_eq!(m.load(0x1000, 8).unwrap(), 0);
    }

    #[test]
    fn tlb_handles_colliding_pages() {
        // Pages 0x1000 and 0x1000 + TLB_WAYS*PAGE_SIZE map to the same
        // direct-mapped slot; alternating accesses must stay correct.
        let a = 0x1000u64;
        let b = a + TLB_WAYS as u64 * PAGE_SIZE;
        let mut m = PagedMemory::new();
        m.map_region(a, PAGE_SIZE);
        m.map_region(b, PAGE_SIZE);
        for i in 0..8u64 {
            m.store(a, 8, i).unwrap();
            m.store(b, 8, 1000 + i).unwrap();
            assert_eq!(m.load(a, 8).unwrap(), i);
            assert_eq!(m.load(b, 8).unwrap(), 1000 + i);
        }
    }

    #[test]
    fn mem_stats_count_accesses_and_misses() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, PAGE_SIZE);
        // First store misses (cold TLB), the rest hit.
        for i in 0..10u64 {
            m.store(0x1000 + i * 8, 8, i).unwrap();
        }
        // Every load hits: the store slow path pre-warmed the read TLB.
        for i in 0..10u64 {
            assert_eq!(m.load(0x1000 + i * 8, 8).unwrap(), i);
        }
        let s = m.stats;
        assert_eq!(s.loads, 10);
        assert_eq!(s.stores, 10);
        assert_eq!(s.accesses(), 20);
        assert_eq!(s.read_tlb_misses, 0);
        assert_eq!(s.write_tlb_misses, 1);
        assert_eq!(s.hits(), 19);
        assert!((s.hit_rate() - 0.95).abs() < 1e-12);
        // Deltas relative to a snapshot of the counters.
        let base = m.stats;
        m.load(0x1000, 8).unwrap();
        let d = m.stats.since(&base);
        assert_eq!((d.loads, d.stores, d.read_tlb_misses), (1, 0, 0));
        // Faulting accesses still count as accesses (they passed the
        // alignment gate), matching the old access_count semantics.
        let before = m.stats.loads;
        assert!(m.load(0x9000_0000, 8).is_err());
        assert_eq!(m.stats.loads, before + 1);
        // merge() accumulates elementwise.
        let mut acc = MemStats::default();
        acc.merge(&d);
        acc.merge(&d);
        assert_eq!(acc.loads, 2);
        // An idle memory reports a perfect hit rate rather than NaN.
        assert_eq!(MemStats::default().hit_rate(), 1.0);
    }

    #[test]
    fn same_contents_is_byte_equality_of_the_same_mapping() {
        let mut a = PagedMemory::new();
        a.map_region(0x1000, 4 * PAGE_SIZE);
        a.store(0x1000, 8, 0x1111).unwrap();
        // A clone shares every allocation; counters and TLBs are not contents.
        let mut b = a.clone();
        b.load(0x1000, 8).unwrap();
        assert_ne!(a.stats, b.stats);
        assert!(a.same_contents(&b) && b.same_contents(&a));
        // Equal bytes in distinct allocations: both sides unshare the page.
        a.store(0x1008, 8, 7).unwrap();
        b.store(0x1008, 8, 7).unwrap();
        assert!(a.same_contents(&b));
        // One flipped byte in a private page.
        b.store(0x1010, 1, 1).unwrap();
        assert!(!a.same_contents(&b) && !b.same_contents(&a));
        b.store(0x1010, 1, 0).unwrap();
        assert!(a.same_contents(&b));
        // A page materialised as all-zero reads like its zero span and still
        // compares unequal: a missed equality, never a wrong one.
        b.store(0x3000, 8, 0).unwrap();
        assert_eq!(a.load(0x3000, 8), b.load(0x3000, 8));
        assert!(!a.same_contents(&b) && !b.same_contents(&a));
        // A different mapping with the same materialised pages.
        let mut c = a.clone();
        c.map_region(0x9000, PAGE_SIZE);
        assert!(!a.same_contents(&c));
    }

    #[test]
    fn write_bytes_keeps_tlbs_coherent() {
        let mut m = PagedMemory::new();
        m.map_region(0x1000, 2 * PAGE_SIZE);
        // Arm the read TLB on the second page.
        assert_eq!(m.load(0x2000, 8).unwrap(), 0);
        let snap = m.clone();
        // Bulk write spans both pages, unsharing them.
        let data = vec![0xAB; PAGE_SIZE as usize + 16];
        m.write_bytes(0x1ff0, &data).unwrap();
        assert_eq!(m.load(0x2000, 8).unwrap(), 0xABAB_ABAB_ABAB_ABAB);
        // The snapshot still reads zeros.
        let mut s = snap;
        assert_eq!(s.load(0x2000, 8).unwrap(), 0);
    }
}
