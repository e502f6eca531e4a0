//! Model-based property test for the software TLB in
//! [`tinyir::mem::PagedMemory`].
//!
//! The TLB is a pure cache: a TLB-enabled memory and a TLB-free reference
//! must behave identically over *arbitrary* interleavings of map / unmap /
//! load / store / bulk I/O / clone — including the dangerous cases the
//! direct-mapped entries must not survive: stores right after a `clone()`
//! (copy-on-write unsharing while a write entry is still armed), unmap +
//! remap of a cached page, and faults of both kinds. The reference model
//! here is the pre-TLB implementation in miniature: a plain
//! `HashMap<page, Box<[u8]>>` walked on every access.
//!
//! A retired clone may be dropped mid-case, after which the memory it
//! shared pages with writes them without unsharing — the order of a
//! campaign cursor whose fork has run its suffix and gone.
//!
//! The same interleavings take bases and bring them forward by deltas
//! ([`PagedMemory::delta_since`], [`PagedMemory::apply`]), one at a time or
//! two in turn: a base brought forward must equal the memory the delta was
//! taken from, and go on answering like the reference — its TLBs, armed
//! before the delta landed, included.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tinyir::mem::{MemFault, PagedMemory, PAGE_SIZE};

/// TLB-free reference memory: same fault rules, no caching, eager page
/// copies on `clone()` (no CoW — sharing must be unobservable).
#[derive(Clone, Default)]
struct RefMemory {
    pages: std::collections::HashMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl RefMemory {
    fn load(&self, addr: u64, size: u32) -> Result<u64, MemFault> {
        if !addr.is_multiple_of(size as u64) {
            return Err(MemFault::Misaligned(addr));
        }
        let page = self.pages.get(&(addr / PAGE_SIZE)).ok_or(MemFault::Unmapped(addr))?;
        let off = (addr % PAGE_SIZE) as usize;
        let mut bits = 0u64;
        for i in 0..size as usize {
            bits |= (page[off + i] as u64) << (8 * i);
        }
        Ok(bits)
    }

    fn store(&mut self, addr: u64, size: u32, bits: u64) -> Result<(), MemFault> {
        if !addr.is_multiple_of(size as u64) {
            return Err(MemFault::Misaligned(addr));
        }
        let page = self.pages.get_mut(&(addr / PAGE_SIZE)).ok_or(MemFault::Unmapped(addr))?;
        let off = (addr % PAGE_SIZE) as usize;
        for i in 0..size as usize {
            page[off + i] = (bits >> (8 * i)) as u8;
        }
        Ok(())
    }

    fn map_region(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        for p in addr / PAGE_SIZE..=(addr + len - 1) / PAGE_SIZE {
            self.pages.entry(p).or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
        }
    }

    fn unmap_region(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        for p in addr / PAGE_SIZE..=(addr + len - 1) / PAGE_SIZE {
            self.pages.remove(&p);
        }
    }

    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        for (i, b) in buf.iter_mut().enumerate() {
            let a = addr + i as u64;
            let page = self.pages.get(&(a / PAGE_SIZE)).ok_or(MemFault::Unmapped(a))?;
            *b = page[(a % PAGE_SIZE) as usize];
        }
        Ok(())
    }

    fn write_bytes(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemFault> {
        for (i, &b) in buf.iter().enumerate() {
            let a = addr + i as u64;
            let page = self.pages.get_mut(&(a / PAGE_SIZE)).ok_or(MemFault::Unmapped(a))?;
            page[(a % PAGE_SIZE) as usize] = b;
        }
        Ok(())
    }
}

/// The universe the ops draw addresses from: a handful of pages (so
/// map/unmap/collision cases actually hit) starting at a non-zero base.
/// Two of the pages are exactly `TLB_WAYS` apart, so direct-mapped slot
/// collisions occur too (64-entry TLB, 64 * 4 KiB span here).
const BASE: u64 = 0x4000_0000;
const PAGES: u64 = 66;
const SPAN: u64 = PAGES * PAGE_SIZE;

/// One operation of the interleaving. All addresses are offsets into the
/// universe; sizes/alignment are chosen by the generator so both aligned
/// and faulting accesses occur.
#[derive(Clone, Debug)]
enum Op {
    Map {
        off: u64,
        len: u64,
    },
    Unmap {
        off: u64,
        len: u64,
    },
    Load {
        off: u64,
        size: u32,
    },
    Store {
        off: u64,
        size: u32,
        bits: u64,
    },
    ReadBytes {
        off: u64,
        len: u64,
    },
    WriteBytes {
        off: u64,
        len: u64,
        seed: u8,
    },
    /// Snapshot the current memory; subsequent ops apply to the *snapshot*
    /// or keep going on the original, per `switch`.
    Clone {
        switch: bool,
    },
    /// Keep a clone of the working memory as a base for `Rebuild`.
    Base,
    /// Bring the latest base forward by the delta from it to the working
    /// memory, and go on with the base.
    Rebuild,
    /// Check the newest retired memory against its reference and drop it.
    /// Pages it shared with the working memory are then the working
    /// memory's alone, so the next store to one writes in place, through a
    /// write TLB the clone retired.
    Drop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SPAN, 1u64..3 * PAGE_SIZE).prop_map(|(off, len)| Op::Map { off, len }),
        (0..SPAN, 1u64..3 * PAGE_SIZE).prop_map(|(off, len)| Op::Unmap { off, len }),
        (0..SPAN, 0u32..4).prop_map(|(off, s)| Op::Load { off, size: 1 << s }),
        (0..SPAN, 0u32..4, any::<u64>()).prop_map(|(off, s, bits)| Op::Store {
            off,
            size: 1 << s,
            bits
        }),
        (0..SPAN, 0u64..2 * PAGE_SIZE).prop_map(|(off, len)| Op::ReadBytes { off, len }),
        (0..SPAN, 0u64..2 * PAGE_SIZE, any::<u8>()).prop_map(|(off, len, seed)| Op::WriteBytes {
            off,
            len,
            seed
        }),
        any::<bool>().prop_map(|switch| Op::Clone { switch }),
        Just(Op::Base),
        Just(Op::Rebuild),
        Just(Op::Drop),
    ]
}

/// Load one word of every page of the universe through `mem`, arming its
/// read TLB, and check each against `reference`.
fn arm_read_tlb(mem: &mut PagedMemory, reference: &RefMemory) -> Result<(), TestCaseError> {
    for page in (BASE..BASE + SPAN).step_by(PAGE_SIZE as usize) {
        prop_assert_eq!(mem.load(page, 8), reference.load(page, 8));
    }
    Ok(())
}

/// `mem` agrees with `reference` byte for byte across the whole universe,
/// page by page, so mapping status is compared too.
fn same_pages(mem: &PagedMemory, reference: &RefMemory) -> Result<(), TestCaseError> {
    for p in 0..PAGES {
        let addr = BASE + p * PAGE_SIZE;
        let mut got = vec![0u8; PAGE_SIZE as usize];
        let mut want = vec![0u8; PAGE_SIZE as usize];
        let ga = mem.read_bytes(addr, &mut got);
        let wa = reference.read_bytes(addr, &mut want);
        prop_assert_eq!(ga, wa);
        if ga.is_ok() {
            prop_assert_eq!(&got, &want);
        }
    }
    Ok(())
}

/// The words that differ from `was` to `now`, on pages both map.
fn changed_words(was: &RefMemory, now: &RefMemory) -> Vec<u64> {
    let mut changed = Vec::new();
    for p in BASE / PAGE_SIZE..(BASE + SPAN) / PAGE_SIZE {
        let (Some(a), Some(b)) = (was.pages.get(&p), now.pages.get(&p)) else { continue };
        let words = a.chunks_exact(8).zip(b.chunks_exact(8));
        for (w, _) in words.enumerate().filter(|(_, (x, y))| x != y) {
            changed.push(p * PAGE_SIZE + 8 * w as u64);
        }
    }
    changed
}

/// Clamp a (offset, len) pair into the universe so the test exercises
/// in-range holes rather than wrapping arithmetic.
fn clamp(off: u64, len: u64) -> (u64, u64) {
    (BASE + off, len.min(SPAN - off))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 64 } else { 256 },
        ..ProptestConfig::default()
    })]

    /// Every observable of the TLB'd memory — load results, fault
    /// addresses, bulk I/O, and the final byte-for-byte contents of both
    /// the working memory and every live snapshot — matches the TLB-free
    /// reference. A base brought forward by a delta equals the memory the
    /// delta was taken from, as does one brought forward by two deltas in
    /// turn, and from there every load through its TLBs and every later op
    /// answers like the reference.
    #[test]
    fn tlb_memory_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut mem = PagedMemory::new();
        let mut refm = RefMemory::default();
        // Retired (memory, reference) pairs from Clone ops; checked when
        // dropped or at the end, to catch CoW corruption of a forked sibling.
        let mut retired: Vec<(PagedMemory, RefMemory)> = Vec::new();
        // Bases from `Base` ops, oldest first, with their references.
        let mut bases: Vec<(PagedMemory, RefMemory)> = Vec::new();

        for op in &ops {
            match *op {
                Op::Map { off, len } => {
                    let (addr, len) = clamp(off, len);
                    mem.map_region(addr, len);
                    refm.map_region(addr, len);
                }
                Op::Unmap { off, len } => {
                    let (addr, len) = clamp(off, len);
                    mem.unmap_region(addr, len);
                    refm.unmap_region(addr, len);
                }
                Op::Load { off, size } => {
                    let addr = BASE + off;
                    prop_assert_eq!(mem.load(addr, size), refm.load(addr, size));
                }
                Op::Store { off, size, bits } => {
                    let addr = BASE + off;
                    prop_assert_eq!(
                        mem.store(addr, size, bits),
                        refm.store(addr, size, bits)
                    );
                }
                Op::ReadBytes { off, len } => {
                    let (addr, len) = clamp(off, len);
                    let mut a = vec![0u8; len as usize];
                    let mut b = vec![0u8; len as usize];
                    let ra = mem.read_bytes(addr, &mut a);
                    let rb = refm.read_bytes(addr, &mut b);
                    prop_assert_eq!(ra, rb);
                    if ra.is_ok() {
                        prop_assert_eq!(&a, &b);
                    }
                }
                Op::WriteBytes { off, len, seed } => {
                    let (addr, len) = clamp(off, len);
                    let data: Vec<u8> =
                        (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
                    // Bulk-write partial effects differ only *within* the
                    // faulting page walk, and both sides fault at a page
                    // boundary — so results and subsequent state agree.
                    prop_assert_eq!(
                        mem.write_bytes(addr, &data),
                        refm.write_bytes(addr, &data)
                    );
                }
                Op::Clone { switch } => {
                    let msnap = mem.clone();
                    let rsnap = refm.clone();
                    if switch {
                        // Continue on the snapshot; retire the original.
                        retired.push((
                            std::mem::replace(&mut mem, msnap),
                            std::mem::replace(&mut refm, rsnap),
                        ));
                    } else {
                        retired.push((msnap, rsnap));
                    }
                }
                Op::Base => bases.push((mem.clone(), refm.clone())),
                Op::Rebuild => {
                    let Some((mut base, base_ref)) = bases.pop() else { continue };
                    let delta = mem.delta_since(&base);
                    if let Some((older, _)) = bases.last() {
                        // Two deltas in turn.
                        let mut stepwise = older.clone();
                        stepwise.apply(&base.delta_since(older));
                        stepwise.apply(&delta);
                        prop_assert!(stepwise.same_contents(&mem), "deltas in turn");
                    }
                    // Arm the base's read TLB, then let the delta land. A clone
                    // shares every page with the base, so the delta lands on
                    // shared pages and must leave the clone as it was.
                    arm_read_tlb(&mut base, &base_ref)?;
                    let changed = changed_words(&base_ref, &refm);
                    retired.push((base.clone(), base_ref));
                    base.apply(&delta);
                    prop_assert!(base.same_contents(&mem), "rebuilt base");
                    mem = base;
                    // Every changed word, through the entries armed before the
                    // delta landed.
                    for addr in changed {
                        prop_assert_eq!(mem.load(addr, 8), refm.load(addr, 8), "at {addr:#x}");
                    }
                }
                Op::Drop => {
                    let Some((m, r)) = retired.pop() else { continue };
                    same_pages(&m, &r)?;
                }
            }
        }

        // Final state: the working pair and every retired snapshot pair
        // still alive must agree.
        retired.push((mem, refm));
        for (m, r) in &retired {
            same_pages(m, r)?;
        }
    }
}
