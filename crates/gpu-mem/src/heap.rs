use crate::Scalar;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

/// Base of the simulated device heap. A large, distinctive constant so that
/// device addresses are never confused with host addresses or small indices.
const HEAP_BASE: u64 = 0x7000_0000_0000;

/// Alignment guaranteed for every allocation (matches CUDA `malloc`).
const MIN_ALIGN: u64 = 256;

/// Capacity of one per-team size-class ring: how many freed blocks of a
/// given aligned size a team keeps around for reuse before the oldest one
/// spills back into the global free list. Small on purpose — the rings
/// exist to serve the free-then-realloc churn of iterative kernels, not to
/// hoard memory away from other teams.
const RING_CAP: usize = 8;

/// How many recently resolved regions an access checks before searching
/// the region tree. Kernels interleave a handful of arrays (an index, its
/// values, a vector or two), so a few entries catch nearly every access.
const RECENT: usize = 8;

/// The null device pointer.
pub const NULL_DEVICE_PTR: DevicePtr = DevicePtr(0);

/// An address in the simulated device's global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// Pointer arithmetic in bytes.
    pub fn byte_add(self, off: u64) -> DevicePtr {
        DevicePtr(self.0 + off)
    }

    /// Pointer arithmetic in elements of a scalar type.
    pub fn elem_add<T: Scalar>(self, idx: u64) -> DevicePtr {
        DevicePtr(self.0 + idx * T::SIZE as u64)
    }

    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// Identifier of one live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u32);

/// Whether an allocation is backed by host memory or accounting-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backing {
    /// Loads and stores work; contents are stored on the host.
    Materialized,
    /// Occupies address space and counts toward capacity, but cannot be
    /// accessed. Used to model paper-scale footprints cheaply.
    Reserved,
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocError {
    /// Not enough free device memory for the request.
    OutOfMemory { requested: u64, free: u64 },
    /// Zero-byte allocation.
    ZeroSize,
    /// The pointer passed to `free` does not start a live region.
    InvalidFree { addr: u64 },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory { requested, free } => write!(
                f,
                "device out of memory: requested {requested} B with {free} B free"
            ),
            AllocError::ZeroSize => write!(f, "zero-size device allocation"),
            AllocError::InvalidFree { addr } => {
                write!(f, "free of {addr:#x} which is not a live allocation")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Errors raised by loads/stores through simulated memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// Address not inside any live region.
    Unmapped { addr: u64 },
    /// Access overruns the end of its region.
    OutOfBounds {
        addr: u64,
        size: u64,
        region_end: u64,
    },
    /// Access targets a reserved (non-materialized) region.
    Reserved { addr: u64 },
    /// Null-pointer access.
    Null,
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::Unmapped { addr } => write!(f, "access to unmapped address {addr:#x}"),
            AccessError::OutOfBounds {
                addr,
                size,
                region_end,
            } => write!(
                f,
                "access of {size} B at {addr:#x} overruns region end {region_end:#x}"
            ),
            AccessError::Reserved { addr } => write!(
                f,
                "access to reserved (accounting-only) allocation at {addr:#x}"
            ),
            AccessError::Null => write!(f, "null device pointer dereference"),
        }
    }
}

impl std::error::Error for AccessError {}

/// Metadata describing one live region, as reported to callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionInfo {
    pub id: RegionId,
    pub start: u64,
    pub len: u64,
    pub backing: Backing,
    /// Caller-chosen tag; the ensemble loader uses the instance id so the
    /// interference model can count distinct active heaps.
    pub tag: u32,
}

/// Allocator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapStats {
    pub bytes_in_use: u64,
    pub peak_bytes_in_use: u64,
    pub live_allocations: u64,
    pub total_allocations: u64,
    pub total_frees: u64,
    pub failed_allocations: u64,
    /// Allocations served by the global first-fit path while per-team
    /// free lists were enabled (cold allocations and size-class misses).
    pub alloc_fallbacks: u64,
    /// Allocations served from a per-team size-class ring (exact reuse of
    /// a previously freed block).
    pub recycled_allocations: u64,
    /// Times an out-of-memory condition forced every team cache to spill
    /// back into the global free list before retrying.
    pub cache_flushes: u64,
}

/// One entry of the recent-region cache: a live region's bounds and slot.
/// The empty entry has `len` 0 and so contains no address.
#[derive(Debug, Clone, Copy, Default)]
struct Recent {
    start: u64,
    len: u64,
    slot: usize,
}

struct Region {
    info: RegionInfo,
    data: Option<Vec<u8>>,
}

impl Region {
    fn contains(&self, addr: u64) -> bool {
        addr >= self.info.start && addr - self.info.start < self.info.len
    }
}

/// One block parked in a per-team size-class ring, remembering the
/// allocator generation at which it was freed (generational pruning).
#[derive(Debug, Clone, Copy)]
struct CachedBlock {
    start: u64,
    freed_gen: u64,
}

/// The simulated device's global memory: address space, heap allocator and
/// backing store.
///
/// The allocator is two-level:
///
/// 1. **Per-team free lists** (opt-in via [`DeviceMemory::set_free_lists`]):
///    freed blocks park in a bounded ring per (tag, aligned size) and are
///    handed back on exact-size re-allocation by the same team — the
///    free-then-realloc churn of iterative kernels never touches the
///    global list. Rings are generation-stamped so stale blocks can be
///    pruned ([`DeviceMemory::prune_stale`]), and a failed global
///    allocation flushes every ring back (coalescing) before reporting OOM.
/// 2. **Global first-fit** over an address-ordered free list with
///    coalescing on release — deterministic and the only level active by
///    default, which keeps the legacy single-level behaviour bit-identical.
///
/// Free-space accounting is an incremental ledger: a running free-byte
/// counter plus a hole-size multiset replace the historical O(n) free-list
/// scans on the OOM path and in [`DeviceMemory::fragmentation`] /
/// [`DeviceMemory::largest_free_block`].
pub struct DeviceMemory {
    capacity: u64,
    free_list: Vec<(u64, u64)>, // (start, len), address-ordered, non-adjacent
    /// Running sum of free-list hole bytes (the incremental ledger).
    free_list_bytes: u64,
    /// Multiset of free-list hole lengths: len -> count.
    hole_sizes: BTreeMap<u64, u32>,
    /// Live regions: start address -> index into `slots`.
    regions: BTreeMap<u64, usize>,
    /// Region storage; `None` marks a vacant slot, listed in `vacant` and
    /// reused (last freed, first reused) by the next allocation.
    slots: Vec<Option<Region>>,
    vacant: Vec<usize>,
    /// Recently resolved live regions, checked before the tree so that
    /// accesses cycling through a few arrays cost no search at all.
    /// Filled round-robin (`recent_next`) and emptied by every free, so an
    /// entry always describes a live region.
    recent: [Cell<Recent>; RECENT],
    recent_next: Cell<usize>,
    next_region: u32,
    stats: HeapStats,
    generation: u64,
    /// Live bytes per region tag (instance heap sizes under ensembles).
    tag_bytes: BTreeMap<u32, u64>,
    /// High-water mark of `tag_bytes` since creation (or the last
    /// [`DeviceMemory::reset_tag_peaks`]) — the per-instance heap peak the
    /// observability layer reports.
    tag_peaks: BTreeMap<u32, u64>,
    /// Per-team recycling on/off. Off by default: the global first-fit
    /// path alone is bit-identical to the historical allocator.
    free_lists_enabled: bool,
    /// tag -> aligned size -> ring of parked blocks, oldest first.
    team_caches: BTreeMap<u32, BTreeMap<u64, VecDeque<CachedBlock>>>,
    /// Total bytes parked across all team rings.
    cached_bytes: u64,
}

impl DeviceMemory {
    /// Create a device memory of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        let mut hole_sizes = BTreeMap::new();
        hole_sizes.insert(capacity, 1);
        Self {
            capacity,
            free_list: vec![(HEAP_BASE, capacity)],
            free_list_bytes: capacity,
            hole_sizes,
            regions: BTreeMap::new(),
            slots: Vec::new(),
            vacant: Vec::new(),
            recent: Default::default(),
            recent_next: Cell::new(0),
            next_region: 1,
            stats: HeapStats::default(),
            generation: 0,
            tag_bytes: BTreeMap::new(),
            tag_peaks: BTreeMap::new(),
            free_lists_enabled: false,
            team_caches: BTreeMap::new(),
            cached_bytes: 0,
        }
    }

    /// Monotone counter bumped on every allocation or free; lets callers
    /// cache region layouts and detect staleness cheaply.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Enable or disable the per-team free lists. Disabling flushes every
    /// parked block back into the global list, restoring the exact state a
    /// single-level allocator would be in.
    pub fn set_free_lists(&mut self, enabled: bool) {
        if !enabled {
            self.flush_caches();
        }
        self.free_lists_enabled = enabled;
    }

    /// Whether per-team free lists are currently enabled.
    pub fn free_lists_enabled(&self) -> bool {
        self.free_lists_enabled
    }

    /// Total bytes currently parked in per-team rings (free for reuse but
    /// not yet returned to the global list).
    pub fn cached_bytes(&self) -> u64 {
        self.cached_bytes
    }

    /// High-water mark of live bytes carrying `tag` since creation or the
    /// last [`DeviceMemory::reset_tag_peaks`]. Under ensemble execution the
    /// tag is the instance id, so this is the instance's heap peak.
    pub fn tag_peak_bytes(&self, tag: u32) -> u64 {
        self.tag_peaks.get(&tag).copied().unwrap_or(0)
    }

    /// All per-tag high-water marks, tag-ordered.
    pub fn tag_peaks(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.tag_peaks.iter().map(|(&t, &b)| (t, b))
    }

    /// Restart per-tag high-water tracking (e.g. between the sequential
    /// launches of a batched ensemble, which reuse instance tags).
    pub fn reset_tag_peaks(&mut self) {
        self.tag_peaks.clear();
        for (&tag, &bytes) in &self.tag_bytes {
            if bytes > 0 {
                self.tag_peaks.insert(tag, bytes);
            }
        }
    }

    /// Free bytes remaining: the global free list's running counter plus
    /// any bytes parked in team rings. O(1) — maintained incrementally at
    /// every free-list mutation, never by scanning.
    pub fn free_bytes(&self) -> u64 {
        self.free_list_bytes + self.cached_bytes
    }

    /// Fraction of capacity currently allocated, [0, 1] — the heap
    /// counter the utilization timeline reports.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.stats.bytes_in_use as f64 / self.capacity as f64
    }

    /// Fraction of capacity at the allocation high-water mark, [0, 1].
    pub fn peak_utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.stats.peak_bytes_in_use as f64 / self.capacity as f64
    }

    /// Largest single free-list hole — the biggest allocation the global
    /// path could satisfy right now without flushing team rings, the
    /// operational headroom gauge the monitor exports. O(log n) via the
    /// hole-size multiset.
    pub fn largest_free_block(&self) -> u64 {
        self.hole_sizes
            .keys()
            .next_back()
            .copied()
            .unwrap_or_default()
    }

    /// External fragmentation, [0, 1]: the share of free bytes that is
    /// *not* in the largest hole. 0 when free space is one hole (or the
    /// heap is full) — a first-fit allocator's health indicator. O(log n):
    /// computed from the incremental ledger, not a free-list scan.
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_bytes();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_block() as f64 / free as f64
    }

    fn hole_added(&mut self, len: u64) {
        self.free_list_bytes += len;
        *self.hole_sizes.entry(len).or_insert(0) += 1;
    }

    fn hole_removed(&mut self, len: u64) {
        self.free_list_bytes -= len;
        match self.hole_sizes.get_mut(&len) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.hole_sizes.remove(&len);
            }
            None => debug_assert!(false, "hole of {len} B missing from the size multiset"),
        }
    }

    /// First-fit carve of `alen` bytes out of the global free list.
    fn carve_first_fit(&mut self, alen: u64) -> Option<u64> {
        let i = self.free_list.iter().position(|&(_, l)| l >= alen)?;
        let (start, hole_len) = self.free_list[i];
        self.hole_removed(hole_len);
        if hole_len == alen {
            self.free_list.remove(i);
        } else {
            self.free_list[i] = (start + alen, hole_len - alen);
            self.hole_added(hole_len - alen);
        }
        Some(start)
    }

    /// Insert a block into the global free list, address-ordered, and
    /// coalesce with its neighbours.
    fn release_to_free_list(&mut self, start: u64, len: u64) {
        let pos = self
            .free_list
            .binary_search_by_key(&start, |&(s, _)| s)
            .unwrap_err();
        self.free_list.insert(pos, (start, len));
        self.hole_added(len);
        self.coalesce_free_list(pos);
    }

    fn coalesce_free_list(&mut self, pos: usize) {
        // Merge with successor first so indices stay valid.
        if pos + 1 < self.free_list.len() {
            let (s, l) = self.free_list[pos];
            let (ns, nl) = self.free_list[pos + 1];
            if s + l == ns {
                self.hole_removed(l);
                self.hole_removed(nl);
                self.hole_added(l + nl);
                self.free_list[pos] = (s, l + nl);
                self.free_list.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (ps, pl) = self.free_list[pos - 1];
            let (s, l) = self.free_list[pos];
            if ps + pl == s {
                self.hole_removed(pl);
                self.hole_removed(l);
                self.hole_added(pl + l);
                self.free_list[pos - 1] = (ps, pl + l);
                self.free_list.remove(pos);
            }
        }
    }

    /// Exact-size reuse from `tag`'s ring: most recently freed block first
    /// (LIFO keeps the hottest rows local to the team).
    fn take_cached(&mut self, tag: u32, alen: u64) -> Option<u64> {
        if !self.free_lists_enabled {
            return None;
        }
        let ring = self.team_caches.get_mut(&tag)?.get_mut(&alen)?;
        let block = ring.pop_back()?;
        self.cached_bytes -= alen;
        self.stats.recycled_allocations += 1;
        Some(block.start)
    }

    /// Park a freed block in `tag`'s size-class ring, spilling the oldest
    /// entry to the global list when the ring is full.
    fn cache_block(&mut self, tag: u32, start: u64, len: u64) {
        let ring = self
            .team_caches
            .entry(tag)
            .or_default()
            .entry(len)
            .or_default();
        ring.push_back(CachedBlock {
            start,
            freed_gen: self.generation,
        });
        self.cached_bytes += len;
        if ring.len() > RING_CAP {
            let oldest = ring.pop_front().expect("ring just overflowed");
            self.cached_bytes -= len;
            self.release_to_free_list(oldest.start, len);
        }
    }

    /// Return every parked block of every team to the global free list.
    fn flush_caches(&mut self) {
        let caches = std::mem::take(&mut self.team_caches);
        for (_, classes) in caches {
            for (len, ring) in classes {
                for block in ring {
                    self.cached_bytes -= len;
                    self.release_to_free_list(block.start, len);
                }
            }
        }
        debug_assert_eq!(self.cached_bytes, 0);
    }

    /// Return `tag`'s parked blocks to the global free list (teardown).
    fn flush_tag_cache(&mut self, tag: u32) {
        let Some(classes) = self.team_caches.remove(&tag) else {
            return;
        };
        for (len, ring) in classes {
            for block in ring {
                self.cached_bytes -= len;
                self.release_to_free_list(block.start, len);
            }
        }
    }

    /// Generational pruning: release every parked block freed more than
    /// `max_age` allocator generations ago. Returns how many blocks were
    /// returned to the global list.
    pub fn prune_stale(&mut self, max_age: u64) -> usize {
        let mut released = Vec::new();
        for classes in self.team_caches.values_mut() {
            for (&len, ring) in classes.iter_mut() {
                while let Some(block) = ring.front() {
                    if self.generation.saturating_sub(block.freed_gen) <= max_age {
                        break;
                    }
                    let block = ring.pop_front().expect("front exists");
                    released.push((block.start, len));
                }
            }
        }
        for &(start, len) in &released {
            self.cached_bytes -= len;
            self.release_to_free_list(start, len);
        }
        released.len()
    }

    fn oom(&mut self, requested: u64) -> AllocError {
        self.stats.failed_allocations += 1;
        AllocError::OutOfMemory {
            requested,
            free: self.free_bytes(),
        }
    }

    /// Allocate `len` bytes with the given backing and tag.
    pub fn alloc_tagged(
        &mut self,
        len: u64,
        backing: Backing,
        tag: u32,
    ) -> Result<DevicePtr, AllocError> {
        if len == 0 {
            return Err(AllocError::ZeroSize);
        }
        let alen = len.div_ceil(MIN_ALIGN) * MIN_ALIGN;
        let start = match self.take_cached(tag, alen) {
            Some(start) => start,
            None => {
                if self.free_lists_enabled {
                    self.stats.alloc_fallbacks += 1;
                }
                match self.carve_first_fit(alen) {
                    Some(start) => start,
                    None if self.free_lists_enabled && self.cached_bytes > 0 => {
                        // Last resort before OOM: spill every team ring back
                        // into the global list — coalescing may reassemble a
                        // hole large enough — and retry once.
                        self.stats.cache_flushes += 1;
                        self.flush_caches();
                        match self.carve_first_fit(alen) {
                            Some(start) => start,
                            None => return Err(self.oom(len)),
                        }
                    }
                    None => return Err(self.oom(len)),
                }
            }
        };
        let id = RegionId(self.next_region);
        self.next_region += 1;
        // The backing covers the full aligned length: the bytes between
        // `len` and `alen` are real, addressable memory (as they are under
        // CUDA `malloc`), and the region accounting already charges them.
        let data = match backing {
            Backing::Materialized => Some(vec![0u8; alen as usize]),
            Backing::Reserved => None,
        };
        let region = Region {
            info: RegionInfo {
                id,
                start,
                len: alen,
                backing,
                tag,
            },
            data,
        };
        let slot = match self.vacant.pop() {
            Some(slot) => {
                self.slots[slot] = Some(region);
                slot
            }
            None => {
                self.slots.push(Some(region));
                self.slots.len() - 1
            }
        };
        self.regions.insert(start, slot);
        self.stats.bytes_in_use += alen;
        self.stats.peak_bytes_in_use = self.stats.peak_bytes_in_use.max(self.stats.bytes_in_use);
        self.stats.live_allocations += 1;
        self.stats.total_allocations += 1;
        let tag_live = self.tag_bytes.entry(tag).or_insert(0);
        *tag_live += alen;
        let peak = self.tag_peaks.entry(tag).or_insert(0);
        *peak = (*peak).max(*tag_live);
        self.generation += 1;
        Ok(DevicePtr(start))
    }

    /// Allocate materialized memory with tag 0.
    pub fn alloc(&mut self, len: u64) -> Result<DevicePtr, AllocError> {
        self.alloc_tagged(len, Backing::Materialized, 0)
    }

    /// Allocate and initialize from a host slice.
    pub fn alloc_from_slice<T: Scalar>(
        &mut self,
        src: &[T],
        tag: u32,
    ) -> Result<DevicePtr, AllocError> {
        let ptr = self.alloc_tagged(
            (src.len() * T::SIZE).max(1) as u64,
            Backing::Materialized,
            tag,
        )?;
        self.write_slice(ptr, src)
            .expect("fresh allocation is materialized");
        Ok(ptr)
    }

    /// Free the allocation starting at `ptr`.
    pub fn free(&mut self, ptr: DevicePtr) -> Result<(), AllocError> {
        let Some(slot) = self.regions.remove(&ptr.0) else {
            return Err(AllocError::InvalidFree { addr: ptr.0 });
        };
        let region = self.slots[slot].take().expect("indexed slot is live");
        self.vacant.push(slot);
        for entry in &self.recent {
            entry.take();
        }
        let (start, len, tag) = (region.info.start, region.info.len, region.info.tag);
        self.stats.bytes_in_use -= len;
        self.stats.live_allocations -= 1;
        self.stats.total_frees += 1;
        if let Some(tag_live) = self.tag_bytes.get_mut(&tag) {
            *tag_live = tag_live.saturating_sub(len);
        }
        self.generation += 1;
        if self.free_lists_enabled {
            self.cache_block(tag, start, len);
        } else {
            self.release_to_free_list(start, len);
        }
        Ok(())
    }

    /// Free every region whose tag equals `tag` (instance teardown). The
    /// team's parked blocks are flushed back to the global list first —
    /// a torn-down instance keeps nothing cached.
    pub fn free_by_tag(&mut self, tag: u32) -> usize {
        self.flush_tag_cache(tag);
        let starts: Vec<u64> = self
            .live()
            .filter(|r| r.info.tag == tag)
            .map(|r| r.info.start)
            .collect();
        let n = starts.len();
        for s in starts {
            self.free(DevicePtr(s)).expect("region listed as live");
        }
        // The frees above may have re-parked the regions; teardown means
        // the team is gone, so flush again.
        self.flush_tag_cache(tag);
        n
    }

    /// Live regions, address-ordered.
    fn live(&self) -> impl Iterator<Item = &Region> + '_ {
        self.regions
            .values()
            .map(|&slot| self.slots[slot].as_ref().expect("indexed slot is live"))
    }

    /// Slot of the live region containing `addr`: from the recent-region
    /// cache when it holds the region, else by one tree search whose
    /// answer enters the cache. Regions never overlap, so either way the
    /// answer is the unique live region containing `addr`.
    fn slot_of(&self, addr: u64) -> Option<usize> {
        for entry in &self.recent {
            let e = entry.get();
            if addr.wrapping_sub(e.start) < e.len {
                return Some(e.slot);
            }
        }
        let (_, &slot) = self.regions.range(..=addr).next_back()?;
        let r = self.slots[slot].as_ref().expect("indexed slot is live");
        if !r.contains(addr) {
            return None;
        }
        let next = self.recent_next.get();
        self.recent[next].set(Recent {
            start: r.info.start,
            len: r.info.len,
            slot,
        });
        self.recent_next.set((next + 1) % RECENT);
        Some(slot)
    }

    /// Look up the region containing `addr`.
    pub fn region_of(&self, addr: u64) -> Option<RegionInfo> {
        let slot = self.slot_of(addr)?;
        self.slots[slot].as_ref().map(|r| r.info)
    }

    /// All live regions, address-ordered.
    pub fn live_regions(&self) -> Vec<RegionInfo> {
        self.live().map(|r| r.info).collect()
    }

    /// Check every allocator invariant, returning a description of the
    /// first violation. Used by the property tests after each heap
    /// operation; O(n) by design (it exists to validate the O(1) ledger).
    pub fn debug_validate(&self) -> Result<(), String> {
        // Free list: address-ordered, disjoint, coalesced, in range.
        for w in self.free_list.windows(2) {
            let (s, l) = w[0];
            let (ns, _) = w[1];
            if s + l > ns {
                return Err(format!("free list overlaps: ({s:#x},{l}) then {ns:#x}"));
            }
            if s + l == ns {
                return Err(format!("free list uncoalesced at {ns:#x}"));
            }
        }
        for &(s, l) in &self.free_list {
            if s < HEAP_BASE || s + l > HEAP_BASE + self.capacity {
                return Err(format!("free hole ({s:#x},{l}) outside the heap"));
            }
        }
        // Incremental ledger matches a full scan.
        let scan_bytes: u64 = self.free_list.iter().map(|&(_, l)| l).sum();
        if scan_bytes != self.free_list_bytes {
            return Err(format!(
                "free-byte counter {} != scanned {scan_bytes}",
                self.free_list_bytes
            ));
        }
        let mut scan_holes: BTreeMap<u64, u32> = BTreeMap::new();
        for &(_, l) in &self.free_list {
            *scan_holes.entry(l).or_insert(0) += 1;
        }
        if scan_holes != self.hole_sizes {
            return Err(format!(
                "hole multiset {:?} != scanned {:?}",
                self.hole_sizes, scan_holes
            ));
        }
        let scan_largest = self.free_list.iter().map(|&(_, l)| l).max().unwrap_or(0);
        if scan_largest != self.largest_free_block() {
            return Err(format!(
                "largest-hole counter {} != scanned {scan_largest}",
                self.largest_free_block()
            ));
        }
        // Slot storage: every slot is either indexed by exactly one live
        // region or listed vacant.
        if self.regions.len() + self.vacant.len() != self.slots.len()
            || self.regions.values().any(|&s| self.slots[s].is_none())
            || self.vacant.iter().any(|&s| self.slots[s].is_some())
        {
            return Err("region slots and the start index disagree".into());
        }
        // Region accounting: bytes in use and per-tag sums.
        let region_bytes: u64 = self.live().map(|r| r.info.len).sum();
        if region_bytes != self.stats.bytes_in_use {
            return Err(format!(
                "bytes_in_use {} != live region bytes {region_bytes}",
                self.stats.bytes_in_use
            ));
        }
        let mut scan_tags: BTreeMap<u32, u64> = BTreeMap::new();
        for r in self.live() {
            *scan_tags.entry(r.info.tag).or_insert(0) += r.info.len;
        }
        for (&tag, &bytes) in self.tag_bytes.iter() {
            if scan_tags.get(&tag).copied().unwrap_or(0) != bytes {
                return Err(format!("tag {tag} accounts {bytes} B, regions disagree"));
            }
        }
        for (&tag, &bytes) in &scan_tags {
            if self.tag_bytes.get(&tag).copied().unwrap_or(0) != bytes {
                return Err(format!("tag {tag} holds {bytes} B unaccounted"));
            }
        }
        let tag_total: u64 = self.tag_bytes.values().sum();
        if tag_total != self.stats.bytes_in_use {
            return Err(format!(
                "tag accounting sums to {tag_total}, bytes_in_use is {}",
                self.stats.bytes_in_use
            ));
        }
        // Cached bytes match the rings.
        let scan_cached: u64 = self
            .team_caches
            .values()
            .flat_map(|c| c.iter())
            .map(|(&len, ring)| len * ring.len() as u64)
            .sum();
        if scan_cached != self.cached_bytes {
            return Err(format!(
                "cached-byte counter {} != ring contents {scan_cached}",
                self.cached_bytes
            ));
        }
        // Byte conservation over the whole address space.
        if self.stats.bytes_in_use + self.free_list_bytes + self.cached_bytes != self.capacity {
            return Err(format!(
                "conservation broken: {} in use + {} free + {} cached != {} capacity",
                self.stats.bytes_in_use, self.free_list_bytes, self.cached_bytes, self.capacity
            ));
        }
        // The three owners tile the address space exactly: regions, free
        // holes, and parked blocks are disjoint and leave no gaps.
        let mut spans: Vec<(u64, u64)> = self
            .live()
            .map(|r| (r.info.start, r.info.len))
            .chain(self.free_list.iter().copied())
            .chain(self.team_caches.values().flat_map(|c| {
                c.iter()
                    .flat_map(|(&len, ring)| ring.iter().map(move |b| (b.start, len)))
            }))
            .collect();
        spans.sort_unstable();
        let mut cursor = HEAP_BASE;
        for (s, l) in spans {
            if s != cursor {
                return Err(format!(
                    "address space not tiled: gap or overlap at {cursor:#x} (next span {s:#x})"
                ));
            }
            cursor = s + l;
        }
        if cursor != HEAP_BASE + self.capacity {
            return Err(format!(
                "address space ends at {cursor:#x}, capacity says {:#x}",
                HEAP_BASE + self.capacity
            ));
        }
        Ok(())
    }

    /// Resolve a `size`-byte access at `addr` to the slot of its region,
    /// checking, in order: null, unmapped, overrun of the region end,
    /// reserved (accounting-only) backing.
    fn resolve(&self, addr: u64, size: u64) -> Result<usize, AccessError> {
        if addr == 0 {
            return Err(AccessError::Null);
        }
        let slot = self.slot_of(addr).ok_or(AccessError::Unmapped { addr })?;
        let region = self.slots[slot].as_ref().expect("resolved slot is live");
        let end = region.info.start + region.info.len;
        if size > end - addr {
            return Err(AccessError::OutOfBounds {
                addr,
                size,
                region_end: end,
            });
        }
        if region.data.is_none() {
            return Err(AccessError::Reserved { addr });
        }
        Ok(slot)
    }

    /// Load a scalar from device memory.
    pub fn load<T: Scalar>(&self, ptr: DevicePtr) -> Result<T, AccessError> {
        self.load_hit(ptr).map(|(v, _)| v)
    }

    /// Store a scalar to device memory.
    pub fn store<T: Scalar>(&mut self, ptr: DevicePtr, v: T) -> Result<(), AccessError> {
        self.store_hit(ptr, v).map(|_| ())
    }

    /// [`DeviceMemory::load`] that also reports the region the access
    /// resolved to — one region resolution for both, so the functional
    /// executor can attribute the access without searching again.
    pub fn load_hit<T: Scalar>(&self, ptr: DevicePtr) -> Result<(T, RegionInfo), AccessError> {
        let slot = self.resolve(ptr.0, T::SIZE as u64)?;
        let region = self.slots[slot].as_ref().expect("resolved slot is live");
        let data = region.data.as_ref().expect("resolved materialized");
        let off = (ptr.0 - region.info.start) as usize;
        Ok((T::load_le(&data[off..off + T::SIZE]), region.info))
    }

    /// [`DeviceMemory::store`] that also reports the region the access
    /// resolved to — one region resolution for both.
    pub fn store_hit<T: Scalar>(
        &mut self,
        ptr: DevicePtr,
        v: T,
    ) -> Result<RegionInfo, AccessError> {
        let slot = self.resolve(ptr.0, T::SIZE as u64)?;
        let region = self.slots[slot].as_mut().expect("resolved slot is live");
        let off = (ptr.0 - region.info.start) as usize;
        let data = region.data.as_mut().expect("resolved materialized");
        v.store_le(&mut data[off..off + T::SIZE]);
        Ok(region.info)
    }

    /// Copy a typed slice from host to device.
    pub fn write_slice<T: Scalar>(&mut self, ptr: DevicePtr, src: &[T]) -> Result<(), AccessError> {
        for (i, v) in src.iter().enumerate() {
            self.store(ptr.elem_add::<T>(i as u64), *v)?;
        }
        Ok(())
    }

    /// Copy a typed slice from device to host.
    pub fn read_slice<T: Scalar>(&self, ptr: DevicePtr, len: usize) -> Result<Vec<T>, AccessError> {
        (0..len)
            .map(|i| self.load(ptr.elem_add::<T>(i as u64)))
            .collect()
    }

    /// Copy raw bytes from host to device.
    pub fn write_bytes(&mut self, ptr: DevicePtr, src: &[u8]) -> Result<(), AccessError> {
        self.write_slice(ptr, src)
    }

    /// Copy raw bytes from device to host.
    pub fn read_bytes(&self, ptr: DevicePtr, len: usize) -> Result<Vec<u8>, AccessError> {
        self.read_slice(ptr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut mem = DeviceMemory::new(1 << 20);
        let a = mem.alloc(1000).unwrap();
        let b = mem.alloc(2000).unwrap();
        assert_ne!(a, b);
        assert_eq!(mem.stats().live_allocations, 2);
        mem.free(a).unwrap();
        mem.free(b).unwrap();
        assert_eq!(mem.stats().live_allocations, 0);
        assert_eq!(mem.free_bytes(), 1 << 20);
        // After freeing everything the free list must be one hole again.
        assert_eq!(mem.free_list.len(), 1);
        mem.debug_validate().unwrap();
    }

    #[test]
    fn alignment_is_256() {
        let mut mem = DeviceMemory::new(1 << 20);
        let a = mem.alloc(1).unwrap();
        let b = mem.alloc(1).unwrap();
        assert_eq!(a.0 % MIN_ALIGN, 0);
        assert_eq!(b.0 % MIN_ALIGN, 0);
        assert_eq!(b.0 - a.0, MIN_ALIGN);
    }

    #[test]
    fn oom_reports_and_counts() {
        let mut mem = DeviceMemory::new(4096);
        let err = mem.alloc(8192).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        assert_eq!(mem.stats().failed_allocations, 1);
    }

    #[test]
    fn reserved_counts_but_rejects_access() {
        let mut mem = DeviceMemory::new(1 << 20);
        let p = mem.alloc_tagged(4096, Backing::Reserved, 7).unwrap();
        assert_eq!(mem.stats().bytes_in_use, 4096);
        assert_eq!(
            mem.load::<u32>(p).unwrap_err(),
            AccessError::Reserved { addr: p.0 }
        );
    }

    #[test]
    fn load_store_typed() {
        let mut mem = DeviceMemory::new(1 << 20);
        let p = mem.alloc(64).unwrap();
        mem.store::<f64>(p, 2.5).unwrap();
        mem.store::<u32>(p.byte_add(8), 77).unwrap();
        assert_eq!(mem.load::<f64>(p).unwrap(), 2.5);
        assert_eq!(mem.load::<u32>(p.byte_add(8)).unwrap(), 77);
    }

    #[test]
    fn slice_roundtrip() {
        let mut mem = DeviceMemory::new(1 << 20);
        let src: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let p = mem.alloc_from_slice(&src, 3).unwrap();
        assert_eq!(mem.read_slice::<f64>(p, 100).unwrap(), src);
        assert_eq!(mem.region_of(p.0).unwrap().tag, 3);
    }

    /// Regression test for the unbacked aligned tail: a 16-byte request is
    /// rounded to a 256-byte region, and every byte of that region —
    /// including the last aligned word — must be readable and writable.
    /// On the old heap the backing vec was only 16 bytes long, so the
    /// store at offset 248 failed with `OutOfBounds`.
    #[test]
    fn aligned_tail_is_backed() {
        let mut mem = DeviceMemory::new(1 << 20);
        let p = mem.alloc(16).unwrap();
        let region = mem.region_of(p.0).unwrap();
        assert_eq!(region.len, 256, "16 B request rounds to one align unit");
        // The last aligned 8 bytes of the region.
        let tail = p.byte_add(region.len - 8);
        mem.store::<u64>(tail, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(mem.load::<u64>(tail).unwrap(), 0xdead_beef_cafe_f00d);
        // A straddling read inside the region also works now.
        assert_eq!(mem.load::<u64>(p.byte_add(12)).unwrap(), 0);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut mem = DeviceMemory::new(1 << 20);
        let p = mem.alloc(16).unwrap();
        // Region-level overrun: past the aligned 256-byte length.
        assert!(matches!(
            mem.load::<u64>(p.byte_add(252)),
            Err(AccessError::OutOfBounds { .. })
        ));
        // Far past the region: unmapped.
        assert!(mem.load::<u64>(p.byte_add(300)).is_err());
    }

    #[test]
    fn null_and_unmapped_access() {
        let mem = DeviceMemory::new(1 << 20);
        assert_eq!(
            mem.load::<u32>(NULL_DEVICE_PTR).unwrap_err(),
            AccessError::Null
        );
        assert!(matches!(
            mem.load::<u32>(DevicePtr(HEAP_BASE + 5000)),
            Err(AccessError::Unmapped { .. })
        ));
    }

    /// Every load/store error, in precedence order — null, unmapped,
    /// overrun of the region end, reserved backing — with its exact
    /// payload, and the region a successful access reports.
    #[test]
    fn access_errors_in_precedence_order() {
        let mut mem = DeviceMemory::new(1 << 20);
        let p = mem.alloc_tagged(16, Backing::Materialized, 3).unwrap();
        // First fit: the reserved region starts right at `p`'s end.
        let r = mem.alloc_tagged(256, Backing::Reserved, 4).unwrap();
        assert_eq!(r.0, p.0 + 256);
        assert_eq!(mem.load::<u64>(NULL_DEVICE_PTR), Err(AccessError::Null));
        assert_eq!(mem.store::<u8>(NULL_DEVICE_PTR, 1), Err(AccessError::Null));
        let below = HEAP_BASE - 1;
        assert_eq!(
            mem.load::<u8>(DevicePtr(below)),
            Err(AccessError::Unmapped { addr: below })
        );
        // The last byte of a region is accessible, and reports its region.
        let last = p.byte_add(255);
        mem.store::<u8>(last, 0xab).unwrap();
        let hit = mem.region_of(p.0).unwrap();
        assert_eq!((hit.start, hit.len, hit.tag), (p.0, 256, 3));
        assert_eq!(mem.load_hit::<u8>(last), Ok((0xab, hit)));
        assert_eq!(mem.store_hit::<u8>(last, 0xcd), Ok(hit));
        // A wider access there overruns the region end, even though the
        // next region begins at that very byte.
        assert_eq!(
            mem.load::<u16>(last),
            Err(AccessError::OutOfBounds {
                addr: last.0,
                size: 2,
                region_end: r.0
            })
        );
        assert_eq!(
            mem.store::<u64>(p.byte_add(250), 0),
            Err(AccessError::OutOfBounds {
                addr: p.0 + 250,
                size: 8,
                region_end: r.0
            })
        );
        // Reserved backing is refused in bounds; an overrun of a reserved
        // region is reported as the overrun.
        assert_eq!(mem.load::<u32>(r), Err(AccessError::Reserved { addr: r.0 }));
        assert_eq!(
            mem.store::<u16>(r.byte_add(255), 0),
            Err(AccessError::OutOfBounds {
                addr: r.0 + 255,
                size: 2,
                region_end: r.0 + 256
            })
        );
        let past = r.0 + 256;
        assert_eq!(
            mem.load::<u8>(DevicePtr(past)),
            Err(AccessError::Unmapped { addr: past })
        );
        // A freed region stops resolving even right after an access to it
        // primed the recent-region cache.
        mem.free(p).unwrap();
        assert_eq!(mem.load::<u8>(p), Err(AccessError::Unmapped { addr: p.0 }));
    }

    #[test]
    fn invalid_free_rejected() {
        let mut mem = DeviceMemory::new(1 << 20);
        let p = mem.alloc(16).unwrap();
        assert!(mem.free(DevicePtr(p.0 + 8)).is_err());
        mem.free(p).unwrap();
        assert!(mem.free(p).is_err());
    }

    #[test]
    fn free_by_tag_clears_instance() {
        let mut mem = DeviceMemory::new(1 << 20);
        let _a = mem.alloc_tagged(100, Backing::Materialized, 1).unwrap();
        let _b = mem.alloc_tagged(100, Backing::Materialized, 1).unwrap();
        let c = mem.alloc_tagged(100, Backing::Materialized, 2).unwrap();
        assert_eq!(mem.free_by_tag(1), 2);
        assert_eq!(mem.stats().live_allocations, 1);
        assert_eq!(mem.region_of(c.0).unwrap().tag, 2);
    }

    #[test]
    fn free_coalesces_middle_hole() {
        let mut mem = DeviceMemory::new(1 << 20);
        let a = mem.alloc(256).unwrap();
        let b = mem.alloc(256).unwrap();
        let c = mem.alloc(256).unwrap();
        mem.free(a).unwrap();
        mem.free(c).unwrap();
        mem.free(b).unwrap(); // merges with both neighbours
        assert_eq!(mem.free_list.len(), 1);
        assert_eq!(mem.free_bytes(), 1 << 20);
        mem.debug_validate().unwrap();
    }

    #[test]
    fn peak_tracking() {
        let mut mem = DeviceMemory::new(1 << 20);
        let a = mem.alloc(1024).unwrap();
        let b = mem.alloc(1024).unwrap();
        mem.free(a).unwrap();
        mem.free(b).unwrap();
        assert_eq!(mem.stats().peak_bytes_in_use, 2048);
        assert_eq!(mem.stats().bytes_in_use, 0);
    }

    #[test]
    fn per_tag_peaks_track_instance_heaps() {
        let mut mem = DeviceMemory::new(1 << 20);
        let a = mem.alloc_tagged(1024, Backing::Materialized, 1).unwrap();
        let b = mem.alloc_tagged(2048, Backing::Materialized, 1).unwrap();
        let c = mem.alloc_tagged(512, Backing::Materialized, 2).unwrap();
        assert_eq!(mem.tag_peak_bytes(1), 3072);
        assert_eq!(mem.tag_peak_bytes(2), 512);
        assert_eq!(mem.tag_peak_bytes(9), 0);
        // Frees do not lower the peak.
        mem.free(b).unwrap();
        assert_eq!(mem.tag_peak_bytes(1), 3072);
        // Re-allocating after a free only raises the peak past the old one.
        let d = mem.alloc_tagged(1024, Backing::Materialized, 1).unwrap();
        assert_eq!(mem.tag_peak_bytes(1), 3072);
        assert_eq!(
            mem.tag_peaks().collect::<Vec<_>>(),
            vec![(1, 3072), (2, 512)]
        );
        // Reset restarts tracking from the currently live bytes.
        mem.free(d).unwrap();
        mem.reset_tag_peaks();
        assert_eq!(mem.tag_peak_bytes(1), 1024); // only `a` is live
        assert_eq!(mem.tag_peak_bytes(2), 512);
        mem.free(a).unwrap();
        mem.free(c).unwrap();
        mem.reset_tag_peaks();
        assert_eq!(mem.tag_peaks().count(), 0);
    }

    #[test]
    fn utilization_fractions_track_heap() {
        let mut mem = DeviceMemory::new(1 << 20);
        assert_eq!(mem.utilization(), 0.0);
        assert_eq!(mem.peak_utilization(), 0.0);
        let a = mem.alloc(1 << 19).unwrap();
        assert_eq!(mem.utilization(), 0.5);
        mem.free(a).unwrap();
        assert_eq!(mem.utilization(), 0.0);
        // The peak fraction survives the free.
        assert_eq!(mem.peak_utilization(), 0.5);
        // Degenerate zero-capacity device divides to zero, not NaN.
        assert_eq!(DeviceMemory::new(0).utilization(), 0.0);
        assert_eq!(DeviceMemory::new(0).peak_utilization(), 0.0);
    }

    #[test]
    fn fragmentation_tracks_free_list_holes() {
        let mut mem = DeviceMemory::new(1 << 20);
        // Pristine heap: one hole, no fragmentation.
        assert_eq!(mem.largest_free_block(), 1 << 20);
        assert_eq!(mem.fragmentation(), 0.0);
        // Alternate-free three same-size blocks to split the free space.
        let a = mem.alloc(256).unwrap();
        let _b = mem.alloc(256).unwrap();
        let c = mem.alloc(256).unwrap();
        let _d = mem.alloc(256).unwrap();
        mem.free(a).unwrap();
        mem.free(c).unwrap();
        // Free space = two 256 B holes plus the big tail hole; the tail
        // dominates, so fragmentation is small but non-zero.
        let free = mem.free_bytes();
        let largest = mem.largest_free_block();
        assert_eq!(free - largest, 512);
        assert!((mem.fragmentation() - 512.0 / free as f64).abs() < 1e-12);
        // A full heap reports zero fragmentation, not NaN.
        let mut full = DeviceMemory::new(1024);
        let _ = full.alloc(1024).unwrap();
        assert_eq!(full.free_bytes(), 0);
        assert_eq!(full.fragmentation(), 0.0);
    }

    /// The incremental ledger must agree with a full scan after any
    /// sequence of operations — the counters replace the scans on the
    /// OOM path and the timeline sampler.
    #[test]
    fn incremental_counters_match_full_scans() {
        let mut mem = DeviceMemory::new(1 << 20);
        let mut ptrs = Vec::new();
        for i in 1..40u64 {
            ptrs.push(mem.alloc(i * 100).unwrap());
        }
        // Free every third block, then every other remaining block.
        for (i, p) in ptrs.iter().enumerate() {
            if i % 3 == 0 {
                mem.free(*p).unwrap();
            }
        }
        let scan_free: u64 = mem.free_list.iter().map(|&(_, l)| l).sum();
        let scan_largest = mem.free_list.iter().map(|&(_, l)| l).max().unwrap_or(0);
        assert_eq!(mem.free_bytes(), scan_free);
        assert_eq!(mem.largest_free_block(), scan_largest);
        mem.debug_validate().unwrap();
        // The OOM report uses the counter, so it must be scan-accurate.
        let err = mem.alloc(1 << 21).unwrap_err();
        assert_eq!(
            err,
            AllocError::OutOfMemory {
                requested: 1 << 21,
                free: scan_free
            }
        );
    }

    #[test]
    fn team_free_list_recycles_exact_size_classes() {
        let mut mem = DeviceMemory::new(1 << 20);
        mem.set_free_lists(true);
        let a = mem.alloc_tagged(1000, Backing::Materialized, 3).unwrap();
        mem.free(a).unwrap();
        // The block is parked, not returned to the global list.
        assert_eq!(mem.cached_bytes(), 1024);
        // Same team, same size class: exact reuse, same address.
        let b = mem.alloc_tagged(900, Backing::Materialized, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(mem.stats().recycled_allocations, 1);
        assert_eq!(mem.cached_bytes(), 0);
        // A different team never sees another team's parked blocks.
        mem.free(b).unwrap();
        let c = mem.alloc_tagged(900, Backing::Materialized, 4).unwrap();
        assert_ne!(b, c);
        assert_eq!(mem.stats().recycled_allocations, 1);
        assert!(mem.stats().alloc_fallbacks >= 1);
        mem.debug_validate().unwrap();
    }

    #[test]
    fn recycled_backing_is_zeroed() {
        let mut mem = DeviceMemory::new(1 << 20);
        mem.set_free_lists(true);
        let a = mem.alloc_tagged(64, Backing::Materialized, 1).unwrap();
        mem.store::<u64>(a, 0x1122_3344).unwrap();
        mem.free(a).unwrap();
        let b = mem.alloc_tagged(64, Backing::Materialized, 1).unwrap();
        assert_eq!(a, b, "exact-size reuse");
        assert_eq!(mem.load::<u64>(b).unwrap(), 0, "fresh allocation is zero");
    }

    /// OOM with parked blocks flushes every ring and retries: the flush
    /// coalesces the address space back together, so a request larger
    /// than any single parked block still succeeds.
    #[test]
    fn oom_flushes_team_caches_and_retries() {
        let mut mem = DeviceMemory::new(4096);
        mem.set_free_lists(true);
        let mut ptrs = Vec::new();
        for _ in 0..16 {
            ptrs.push(mem.alloc_tagged(256, Backing::Materialized, 1).unwrap());
        }
        for p in ptrs {
            mem.free(p).unwrap();
        }
        assert!(mem.cached_bytes() > 0);
        // 4096 contiguous bytes exist only after the rings flush.
        let big = mem.alloc_tagged(4096, Backing::Materialized, 2).unwrap();
        assert_eq!(mem.stats().cache_flushes, 1);
        assert_eq!(mem.cached_bytes(), 0);
        mem.free(big).unwrap();
        mem.debug_validate().unwrap();
    }

    #[test]
    fn ring_overflow_spills_oldest_to_global_list() {
        let mut mem = DeviceMemory::new(1 << 20);
        mem.set_free_lists(true);
        let ptrs: Vec<_> = (0..RING_CAP as u64 + 3)
            .map(|_| mem.alloc_tagged(256, Backing::Materialized, 1).unwrap())
            .collect();
        for p in &ptrs {
            mem.free(*p).unwrap();
        }
        // Only RING_CAP blocks stay parked; the overflow coalesced back.
        assert_eq!(mem.cached_bytes(), RING_CAP as u64 * 256);
        mem.debug_validate().unwrap();
    }

    #[test]
    fn free_by_tag_flushes_parked_blocks() {
        let mut mem = DeviceMemory::new(1 << 20);
        mem.set_free_lists(true);
        let a = mem.alloc_tagged(512, Backing::Materialized, 5).unwrap();
        let b = mem.alloc_tagged(512, Backing::Materialized, 5).unwrap();
        mem.free(a).unwrap();
        assert!(mem.cached_bytes() > 0);
        let _ = b;
        assert_eq!(mem.free_by_tag(5), 1); // only `b` was still live
        assert_eq!(mem.cached_bytes(), 0, "teardown keeps nothing parked");
        assert_eq!(mem.free_bytes(), 1 << 20);
        mem.debug_validate().unwrap();
    }

    #[test]
    fn prune_stale_releases_old_blocks() {
        let mut mem = DeviceMemory::new(1 << 20);
        mem.set_free_lists(true);
        let a = mem.alloc_tagged(256, Backing::Materialized, 1).unwrap();
        mem.free(a).unwrap();
        // Age the heap: other-team churn advances the generation.
        for _ in 0..10 {
            let p = mem.alloc_tagged(1024, Backing::Materialized, 2).unwrap();
            mem.free(p).unwrap();
        }
        // Young blocks survive a generous age bound...
        assert_eq!(mem.prune_stale(1_000), 0);
        // ...but a strict bound releases the stale tag-1 block (and any
        // tag-2 blocks older than 2 generations).
        let released = mem.prune_stale(2);
        assert!(released >= 1);
        mem.debug_validate().unwrap();
    }

    #[test]
    fn disabling_free_lists_flushes_and_restores_legacy_state() {
        let mut mem = DeviceMemory::new(1 << 20);
        mem.set_free_lists(true);
        let a = mem.alloc_tagged(256, Backing::Materialized, 1).unwrap();
        mem.free(a).unwrap();
        assert!(mem.cached_bytes() > 0);
        mem.set_free_lists(false);
        assert_eq!(mem.cached_bytes(), 0);
        assert_eq!(mem.free_bytes(), 1 << 20);
        assert_eq!(mem.free_list.len(), 1, "flush coalesced back to one hole");
        mem.debug_validate().unwrap();
    }

    /// With free lists disabled (the default), the allocator must behave
    /// bit-identically to the historical single-level heap: same
    /// addresses, same stats, no recycling counters moving.
    #[test]
    fn disabled_mode_matches_legacy_layout() {
        let mut mem = DeviceMemory::new(1 << 20);
        let a = mem.alloc_tagged(1000, Backing::Materialized, 1).unwrap();
        mem.free(a).unwrap();
        // Legacy first-fit reuses the same lowest address, with zero
        // cache traffic.
        let b = mem.alloc_tagged(1000, Backing::Materialized, 2).unwrap();
        assert_eq!(a, b);
        let s = mem.stats();
        assert_eq!(s.recycled_allocations, 0);
        assert_eq!(s.alloc_fallbacks, 0);
        assert_eq!(s.cache_flushes, 0);
        assert_eq!(mem.cached_bytes(), 0);
        mem.debug_validate().unwrap();
    }

    #[test]
    fn ensemble_oom_scenario() {
        // Four 10 GB instances fit a 40 GB device; the fifth fails —
        // the Page-Rank behaviour from the paper's §4.3.
        let mut mem = DeviceMemory::new(40 << 30);
        for tag in 0..4u32 {
            mem.alloc_tagged(10 << 30, Backing::Reserved, tag).unwrap();
        }
        assert!(matches!(
            mem.alloc_tagged(10 << 30, Backing::Reserved, 4),
            Err(AllocError::OutOfMemory { .. })
        ));
    }
}
