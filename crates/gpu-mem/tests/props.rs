//! Property-based tests for the device-memory substrate and the
//! two-level heap allocator's invariants.

use gpu_mem::{
    coalesce, coalesce_row, coalesce_strided, AccessError, AllocError, Backing, DeviceMemory,
    DevicePtr, RegionInfo, SECTOR_BYTES,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Sort-and-deduplicate reference coalescer: (sectors, lines, useful bytes).
fn coalesce_reference(active: &[u64], size: u32) -> (u32, u32, u64) {
    let mut sectors = BTreeSet::new();
    let mut lines = BTreeSet::new();
    for &a in active {
        let end = a + u64::from(size) - 1;
        sectors.extend(a / SECTOR_BYTES..=end / SECTOR_BYTES);
        lines.extend(a / 128..=end / 128);
    }
    let useful = active.len() as u64 * u64::from(size);
    (sectors.len() as u32, lines.len() as u32, useful)
}

/// The region containing `addr` and the access's expected outcome, by a
/// linear scan of the live regions — the reference for resolution.
fn resolve_reference(mem: &DeviceMemory, addr: u64, size: u64) -> Result<RegionInfo, AccessError> {
    if addr == 0 {
        return Err(AccessError::Null);
    }
    let r = mem
        .live_regions()
        .into_iter()
        .find(|r| r.start <= addr && addr < r.start + r.len)
        .ok_or(AccessError::Unmapped { addr })?;
    if addr + size > r.start + r.len {
        return Err(AccessError::OutOfBounds {
            addr,
            size,
            region_end: r.start + r.len,
        });
    }
    if r.backing == Backing::Reserved {
        return Err(AccessError::Reserved { addr });
    }
    Ok(r)
}

proptest! {
    /// Live allocations never overlap and stay inside the heap, across an
    /// arbitrary interleaving of allocs and frees.
    #[test]
    fn allocations_never_overlap(ops in prop::collection::vec((0u8..2, 1u64..10_000), 1..120)) {
        let mut mem = DeviceMemory::new(1 << 22);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (start, requested len)
        for (op, size) in ops {
            if op == 0 {
                if let Ok(p) = mem.alloc(size) {
                    for &(s, l) in &live {
                        let sep = p.0 + size <= s || s + l <= p.0;
                        prop_assert!(sep, "overlap: [{:#x},+{}) vs [{:#x},+{})", p.0, size, s, l);
                    }
                    live.push((p.0, size));
                }
            } else if let Some((s, _)) = live.pop() {
                mem.free(DevicePtr(s)).unwrap();
            }
        }
    }

    /// Accounting invariant: after freeing everything, the heap is whole.
    #[test]
    fn full_free_restores_capacity(sizes in prop::collection::vec(1u64..100_000, 1..60)) {
        let mut mem = DeviceMemory::new(1 << 24);
        let ptrs: Vec<_> = sizes.iter().filter_map(|&s| mem.alloc(s).ok()).collect();
        // Free in a scrambled (reversed-evens-then-odds) order.
        for (i, p) in ptrs.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            let _ = i;
            mem.free(*p).unwrap();
        }
        for (i, p) in ptrs.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            let _ = i;
            mem.free(*p).unwrap();
        }
        prop_assert_eq!(mem.free_bytes(), 1 << 24);
        prop_assert_eq!(mem.stats().live_allocations, 0);
    }

    /// Stored scalars read back exactly, at any in-bounds offset.
    #[test]
    fn store_load_roundtrip(vals in prop::collection::vec(any::<f64>(), 1..100)) {
        let mut mem = DeviceMemory::new(1 << 20);
        let p = mem.alloc(vals.len() as u64 * 8).unwrap();
        for (i, v) in vals.iter().enumerate() {
            mem.store::<f64>(p.elem_add::<f64>(i as u64), *v).unwrap();
        }
        for (i, v) in vals.iter().enumerate() {
            let got = mem.load::<f64>(p.elem_add::<f64>(i as u64)).unwrap();
            prop_assert!(got == *v || (got.is_nan() && v.is_nan()));
        }
    }

    /// Coalescing bounds: sector count is between 1 and 2×lanes for any
    /// non-empty access set, and moved ≥ useful.
    #[test]
    fn coalesce_bounds(addrs in prop::collection::vec(0u64..1_000_000, 1..32), size in prop::sample::select(vec![1u32, 2, 4, 8])) {
        let lanes: Vec<Option<u64>> = addrs.iter().map(|&a| Some(a)).collect();
        let r = coalesce(&lanes, size);
        prop_assert!(r.sectors >= 1);
        prop_assert!(r.sectors as u64 <= 2 * lanes.len() as u64);
        prop_assert!(r.moved_bytes >= r.useful_bytes);
        prop_assert_eq!(r.moved_bytes, r.sectors as u64 * SECTOR_BYTES);
    }

    /// The allocation-free coalescer (streaming pass for ascending lanes,
    /// stack-buffer sort otherwise, general path past a warp or a sector)
    /// equals the sort-and-deduplicate reference: arbitrary and ascending
    /// addresses, inactive lanes, sizes 1 to 64 and sector-straddling
    /// accesses, both as `Option` lanes and as `0`-marked rows.
    #[test]
    fn coalesce_matches_sort_dedup_reference(
        lanes in prop::collection::vec((any::<bool>(), 1u64..4096), 0..40),
        ascending in any::<bool>(),
        wide in any::<bool>(),
        size in prop::sample::select(vec![1u32, 2, 4, 8, 16, 32, 64]),
    ) {
        let base = if wide { 0x7000_0000_0000 } else { 0 };
        let mut lanes: Vec<(bool, u64)> = lanes.into_iter().map(|(on, a)| (on, base + a)).collect();
        if ascending {
            lanes.sort_by_key(|&(_, a)| a);
        }
        let active: Vec<u64> = lanes.iter().filter(|l| l.0).map(|l| l.1).collect();
        let (sectors, lines, useful) = coalesce_reference(&active, size);
        let opts: Vec<Option<u64>> = lanes.iter().map(|&(on, a)| on.then_some(a)).collect();
        let row: Vec<u64> = lanes.iter().map(|&(on, a)| if on { a } else { 0 }).collect();
        for r in [coalesce(&opts, size), coalesce_row(&row, size)] {
            prop_assert_eq!((r.sectors, r.lines, r.useful_bytes), (sectors, lines, useful));
            prop_assert_eq!(r.moved_bytes, u64::from(sectors) * SECTOR_BYTES);
        }
    }

    /// Region resolution (recent-region cache, then the tree) agrees with
    /// a linear scan of the live regions on every probe — hit region,
    /// error and payload — across interleaved allocs, frees and accesses
    /// cycling through more regions than the cache holds.
    #[test]
    fn resolution_matches_linear_scan(
        ops in prop::collection::vec((0u8..4, 1u64..3000, any::<u64>()), 1..150),
    ) {
        let mut mem = DeviceMemory::new(1 << 22);
        let mut live: Vec<DevicePtr> = Vec::new();
        for (op, n, pick) in ops {
            match op {
                0 => {
                    let backing = if n % 5 == 0 { Backing::Reserved } else { Backing::Materialized };
                    if let Ok(p) = mem.alloc_tagged(n, backing, (n % 3) as u32) {
                        live.push(p);
                    }
                }
                1 if !live.is_empty() => {
                    let p = live.swap_remove((pick % live.len() as u64) as usize);
                    mem.free(p).unwrap();
                }
                _ => {
                    // Probe near a live region (or a freed one's old spot).
                    let anchor = live.get((pick % 16) as usize).map_or(0x7000_0000_0000, |p| p.0);
                    let addr = (anchor + n).saturating_sub(pick % 512);
                    let want8 = resolve_reference(&mem, addr, 8);
                    let got8 = mem.store_hit::<u64>(DevicePtr(addr), pick);
                    prop_assert_eq!(got8, want8.clone());
                    let want1 = resolve_reference(&mem, addr, 1);
                    prop_assert_eq!(mem.load_hit::<u8>(DevicePtr(addr)).map(|(_, h)| h), want1);
                    if want8.is_ok() {
                        prop_assert_eq!(mem.load::<u64>(DevicePtr(addr)), Ok(pick));
                    }
                }
            }
        }
    }

    /// Coalescing is monotone in stride: a larger stride never touches
    /// fewer sectors (for aligned element-sized accesses).
    #[test]
    fn coalesce_monotone_in_stride(base in 0u64..10_000, lanes in 1u32..33) {
        let mut prev = 0;
        for stride_elems in 1u64..8 {
            let addrs: Vec<Option<u64>> =
                (0..lanes as u64).map(|l| Some(base * 8 + l * stride_elems * 8)).collect();
            let r = coalesce(&addrs, 8);
            prop_assert!(r.sectors >= prev, "stride {stride_elems}: {} < {prev}", r.sectors);
            prev = r.sectors;
        }
    }

    /// The strided fast path agrees with the exact path.
    #[test]
    fn strided_fast_path_is_exact(base in 0u64..100_000, stride in prop::sample::select(vec![4u64, 8, 16, 32, 64, 256]), lanes in 1u32..64, size in prop::sample::select(vec![4u32, 8])) {
        // Fast path only specializes aligned element streams; compare there.
        prop_assume!(stride >= size as u64);
        let exact = {
            let addrs: Vec<Option<u64>> = (0..lanes as u64).map(|l| Some(base + l * stride)).collect();
            coalesce(&addrs, size)
        };
        let fast = coalesce_strided(base, stride, size, lanes);
        prop_assert_eq!(exact.useful_bytes, fast.useful_bytes);
        if lanes <= 64 {
            prop_assert_eq!(exact.sectors, fast.sectors);
        }
    }

    /// Reserved allocations consume capacity exactly like materialized
    /// ones (the OOM-modeling contract).
    #[test]
    fn reserved_and_materialized_account_identically(size in 256u64..1_000_000) {
        let mut a = DeviceMemory::new(1 << 22);
        let mut b = DeviceMemory::new(1 << 22);
        a.alloc_tagged(size, Backing::Materialized, 0).unwrap();
        b.alloc_tagged(size, Backing::Reserved, 0).unwrap();
        prop_assert_eq!(a.free_bytes(), b.free_bytes());
        prop_assert_eq!(a.stats().bytes_in_use, b.stats().bytes_in_use);
    }
}

// ---------------------------------------------------------------------------
// Two-level allocator invariants: arbitrary op interleavings, every step
// validated against `debug_validate`'s full O(n) re-derivation of the
// incremental ledger (free-byte counter, hole multiset, largest hole,
// per-tag accounting, ring contents, byte conservation, exact tiling).
// ---------------------------------------------------------------------------

const CAPACITY: u64 = 1 << 20; // 1 MiB: small enough that OOM paths fire.

/// One scripted heap operation. Free indices are taken modulo the
/// current live set so every generated script is valid by construction.
#[derive(Debug, Clone)]
enum Op {
    Alloc { len: u64, tag: u32 },
    Free { idx: usize },
    FreeByTag { tag: u32 },
    SetFreeLists { enabled: bool },
    PruneStale,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's `prop_oneof!` chooses uniformly; repeating the hot arms
    // biases scripts toward allocation/free churn.
    prop_oneof![
        (1u64..200_000, 0u32..5).prop_map(|(len, tag)| Op::Alloc { len, tag }),
        (1u64..200_000, 0u32..5).prop_map(|(len, tag)| Op::Alloc { len, tag }),
        (1u64..200_000, 0u32..5).prop_map(|(len, tag)| Op::Alloc { len, tag }),
        (1u64..200_000, 0u32..5).prop_map(|(len, tag)| Op::Alloc { len, tag }),
        any::<usize>().prop_map(|idx| Op::Free { idx }),
        any::<usize>().prop_map(|idx| Op::Free { idx }),
        any::<usize>().prop_map(|idx| Op::Free { idx }),
        (0u32..5).prop_map(|tag| Op::FreeByTag { tag }),
        any::<bool>().prop_map(|enabled| Op::SetFreeLists { enabled }),
        Just(Op::PruneStale),
    ]
}

/// Run a script against a fresh heap, validating after every op and
/// checking the generation counter never moves backwards. Returns the
/// heap with all remaining live pointers freed (and validated).
fn run_script(ops: &[Op], free_lists_at_start: bool) -> DeviceMemory {
    let mut mem = DeviceMemory::new(CAPACITY);
    mem.set_free_lists(free_lists_at_start);
    let mut live: Vec<DevicePtr> = Vec::new();
    let mut last_generation = mem.generation();
    for op in ops {
        match op {
            Op::Alloc { len, tag } => match mem.alloc_tagged(*len, Backing::Materialized, *tag) {
                Ok(ptr) => live.push(ptr),
                Err(AllocError::OutOfMemory { free, .. }) => {
                    // The OOM report's `free` is the incremental counter;
                    // it must agree with the heap's own view.
                    assert_eq!(free, mem.free_bytes());
                }
                Err(e) => panic!("unexpected alloc error: {e:?}"),
            },
            Op::Free { idx } => {
                if !live.is_empty() {
                    let ptr = live.swap_remove(idx % live.len());
                    mem.free(ptr).expect("live pointer frees cleanly");
                }
            }
            Op::FreeByTag { tag } => {
                mem.free_by_tag(*tag);
                // Anything the allocator no longer knows is gone.
                live.retain(|p| mem.region_of(p.0).is_some());
            }
            Op::SetFreeLists { enabled } => mem.set_free_lists(*enabled),
            Op::PruneStale => {
                mem.prune_stale(4);
            }
        }
        mem.debug_validate().expect("heap invariants hold after op");
        let generation = mem.generation();
        assert!(
            generation >= last_generation,
            "generation went backwards: {last_generation} -> {generation}"
        );
        last_generation = generation;
    }
    for ptr in live {
        mem.free(ptr).expect("teardown free succeeds");
        mem.debug_validate()
            .expect("heap invariants hold during teardown");
    }
    mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core invariant suite: any op interleaving with free lists ON
    /// keeps every ledger consistent with a full scan.
    #[test]
    fn heap_invariants_hold_with_free_lists(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_script(&ops, true);
    }

    /// Same scripts with free lists OFF at the start: the legacy
    /// single-level configuration obeys the same invariants (and any
    /// mid-script `SetFreeLists` flip must flush cleanly both ways).
    #[test]
    fn heap_invariants_hold_without_free_lists(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_script(&ops, false);
    }

    /// After every script, full teardown restores the pristine heap: one
    /// maximal hole, zero bytes in use, zero bytes parked.
    #[test]
    fn full_teardown_restores_one_maximal_hole(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut mem = run_script(&ops, true);
        mem.set_free_lists(false); // flush rings back into the global list
        mem.debug_validate().expect("flush preserves invariants");
        prop_assert_eq!(mem.stats().bytes_in_use, 0);
        prop_assert_eq!(mem.cached_bytes(), 0);
        prop_assert_eq!(mem.free_bytes(), CAPACITY);
        prop_assert_eq!(mem.largest_free_block(), CAPACITY);
        prop_assert_eq!(mem.fragmentation(), 0.0);
    }

    /// Byte conservation as a standalone property: in-use + free is the
    /// capacity at every step, whichever level owns the free bytes.
    #[test]
    fn bytes_are_conserved(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut mem = DeviceMemory::new(CAPACITY);
        mem.set_free_lists(true);
        let mut live: Vec<DevicePtr> = Vec::new();
        for op in &ops {
            match op {
                Op::Alloc { len, tag } => {
                    if let Ok(p) = mem.alloc_tagged(*len, Backing::Materialized, *tag) {
                        live.push(p);
                    }
                }
                Op::Free { idx } => {
                    if !live.is_empty() {
                        let p = live.swap_remove(idx % live.len());
                        mem.free(p).expect("live pointer frees cleanly");
                    }
                }
                Op::FreeByTag { tag } => {
                    mem.free_by_tag(*tag);
                    live.retain(|p| mem.region_of(p.0).is_some());
                }
                Op::SetFreeLists { enabled } => mem.set_free_lists(*enabled),
                Op::PruneStale => {
                    mem.prune_stale(4);
                }
            }
            prop_assert_eq!(mem.stats().bytes_in_use + mem.free_bytes(), CAPACITY);
        }
    }

    /// Recycled blocks never leak tag accounting: allocating and bulk-
    /// freeing a tag always returns its bytes, no matter what another
    /// tag holds concurrently.
    #[test]
    fn free_by_tag_reclaims_every_byte(
        sizes in prop::collection::vec(1u64..50_000, 1..12),
        other in prop::collection::vec(1u64..50_000, 0..6),
    ) {
        let mut mem = DeviceMemory::new(CAPACITY);
        mem.set_free_lists(true);
        for len in &other {
            mem.alloc_tagged(*len, Backing::Materialized, 7).expect("other-tag alloc fits");
        }
        let before = mem.stats().bytes_in_use;
        for len in &sizes {
            mem.alloc_tagged(*len, Backing::Materialized, 3).expect("tag-3 alloc fits");
        }
        mem.free_by_tag(3);
        mem.debug_validate().expect("invariants hold after bulk free");
        prop_assert_eq!(mem.stats().bytes_in_use, before);
        prop_assert_eq!(mem.tag_peak_bytes(3) > 0, true);
    }
}
