use crate::replay::EffectLog;
use crate::trace::{MixedSeg, Phase, TeamTrace};
use gpu_mem::{
    coalesce, coalesce_row, AccessError, AllocError, DeviceMemory, DevicePtr, RegionInfo, Scalar,
};
use std::cell::Cell;

/// Hook through which device code reaches the host (RPC). The offload
/// runtime installs an implementation backed by `host-rpc`; `service` keys
/// the target service, the payload is an opaque serialized request.
pub type HostCallHook<'a> = dyn FnMut(u32, &[u8]) -> Result<Vec<u8>, String> + 'a;

/// Instruction-cost constants of the functional execution model. These are
/// the per-operation charges folded into warp segments; they are mechanism
/// constants shared by all applications, not per-benchmark tuning.
mod cost {
    /// Issue cost of one global-memory load/store instruction.
    pub const MEM_OP: f64 = 1.0;
    /// Loop/bookkeeping overhead per parallel-for iteration.
    pub const ITER_OVERHEAD: f64 = 2.0;
    /// Shared-memory access.
    pub const SHARED_OP: f64 = 1.0;
    /// Global atomic read-modify-write beyond its memory transaction.
    pub const ATOMIC_EXTRA: f64 = 6.0;
    /// Device-side malloc/free bookkeeping.
    pub const MALLOC: f64 = 400.0;
    /// Kernel prologue per warp (argument setup, state machine).
    pub const WARP_PROLOGUE: f64 = 120.0;
}

/// Errors surfaced while executing a kernel functionally.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// Illegal device-memory access (the simulated `CUDA_ERROR_ILLEGAL_ADDRESS`).
    Access(AccessError),
    /// Device-side allocation failure.
    Alloc(AllocError),
    /// Shared-memory request beyond the per-block limit.
    SharedMemExhausted { requested: u64, limit: u64 },
    /// Device code called a host service that the compiled image does not
    /// provide an RPC stub for.
    HostCallUnavailable { service: u32 },
    /// The host service itself failed.
    HostCallFailed(String),
    /// The watchdog killed the team after it exceeded its per-instance
    /// cycle budget (see `TimingInputs::cycle_budget`).
    Timeout { budget_cycles: f64 },
    /// Application-level error.
    App(String),
}

impl From<AccessError> for KernelError {
    fn from(e: AccessError) -> Self {
        KernelError::Access(e)
    }
}

impl From<AllocError> for KernelError {
    fn from(e: AllocError) -> Self {
        KernelError::Alloc(e)
    }
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Access(e) => write!(f, "illegal device access: {e}"),
            KernelError::Alloc(e) => write!(f, "device allocation failed: {e}"),
            KernelError::SharedMemExhausted { requested, limit } => {
                write!(f, "shared memory exhausted: {requested} B > {limit} B")
            }
            KernelError::HostCallUnavailable { service } => {
                write!(f, "no RPC stub for host service {service}")
            }
            KernelError::HostCallFailed(m) => write!(f, "host call failed: {m}"),
            KernelError::Timeout { budget_cycles } => {
                write!(f, "watchdog timeout: exceeded {budget_cycles} cycle budget")
            }
            KernelError::App(m) => write!(f, "application error: {m}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Typed handle to a team-local shared-memory array.
#[derive(Debug, Clone, Copy)]
pub struct SharedBuf<T> {
    offset: usize,
    len: usize,
    _t: std::marker::PhantomData<T>,
}

impl<T> SharedBuf<T> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Lanes per warp.
const WARP: usize = 32;

/// Marks an inactive lane in a shared-memory record row. Offsets are
/// bounded by the per-block shared-memory limit, far below it.
const NO_SHARED: u32 = u32::MAX;

/// One lane's counters for the current round of a parallel phase.
#[derive(Debug, Default, Clone, Copy)]
struct LaneStats {
    insts: f64,
    rpc: u64,
    /// Device-heap allocator operations issued by this lane this round.
    alloc_ops: f64,
    /// The subset of `alloc_ops` served from a per-team free list.
    alloc_fast_ops: f64,
    /// Global accesses recorded this round: the lane's next record row.
    global: u32,
    /// Shared accesses recorded this round.
    shared: u32,
}

/// One warp's access records for the current round of a parallel phase,
/// struct-of-arrays: row `k` of a record matrix holds the `k`-th access of
/// every lane (`k * WARP + lane`), so the fold reads each warp-wide access
/// as one contiguous row.
#[derive(Debug, Default)]
struct WarpRecs {
    lanes: [LaneStats; WARP],
    /// Global-access addresses; `0` marks a lane without a `k`-th access.
    addrs: Vec<u64>,
    /// Per row: the widest access of the row, in bytes.
    row_size: Vec<u32>,
    /// Per row: the region of the row's first active lane. Lanes run in
    /// ascending order, so the lane that opens a row is that lane.
    row_region: Vec<RegionInfo>,
    /// Shared-memory byte offsets; [`NO_SHARED`] marks an inactive lane.
    shared: Vec<u32>,
}

impl WarpRecs {
    fn clear(&mut self) {
        self.lanes = Default::default();
        self.addrs.clear();
        self.row_size.clear();
        self.row_region.clear();
        self.shared.clear();
    }

    fn global(&mut self, lane: usize, addr: u64, size: u32, hit: RegionInfo) {
        let k = self.lanes[lane].global as usize;
        self.lanes[lane].global += 1;
        if k == self.row_size.len() {
            self.addrs.extend_from_slice(&[0; WARP]);
            self.row_size.push(size);
            self.row_region.push(hit);
        } else {
            self.row_size[k] = self.row_size[k].max(size);
        }
        self.addrs[k * WARP + lane] = addr;
    }

    fn shared(&mut self, lane: usize, off: u32) {
        let k = self.lanes[lane].shared as usize;
        self.lanes[lane].shared += 1;
        if k * WARP == self.shared.len() {
            self.shared.extend_from_slice(&[NO_SHARED; WARP]);
        }
        self.shared[k * WARP + lane] = off;
    }

    /// Fold this warp's round — `lanes` lanes wide — into its phase
    /// accumulator. Lockstep lanes issue for as long as the slowest; the
    /// `k`-th accesses of all lanes coalesce together. `relookup` is the
    /// live heap when a region was freed during the round: rows are then
    /// attributed to whatever region holds their address *now*, which a
    /// freed region no longer does.
    fn fold(&self, lanes: usize, accum: &mut MixedSeg, relookup: Option<&DeviceMemory>) {
        let mut max_insts = 0.0f64;
        let mut rpc = 0u64;
        let mut alloc_ops = 0.0f64;
        let mut alloc_fast_ops = 0.0f64;
        for s in &self.lanes[..lanes] {
            max_insts = max_insts.max(s.insts);
            rpc += s.rpc;
            alloc_ops += s.alloc_ops;
            alloc_fast_ops += s.alloc_fast_ops;
        }
        accum.insts += max_insts;
        accum.rpc_calls += rpc;
        accum.alloc_ops += alloc_ops;
        accum.alloc_fast_ops += alloc_fast_ops;

        // Shared memory: a warp access replays once per conflicting bank;
        // charge the extra replays as issue work.
        for row in self.shared.chunks_exact(WARP) {
            let mut offsets = [0u32; WARP];
            let mut n = 0;
            for &off in row.iter().filter(|&&off| off != NO_SHARED) {
                offsets[n] = off;
                n += 1;
            }
            accum.insts += (bank_conflict_degree(&offsets[..n]) - 1) as f64;
        }

        // Global memory: positional coalescing across lanes.
        let mut last = None;
        for (k, row) in self.addrs.chunks_exact(WARP).enumerate() {
            let r = coalesce_row(row, self.row_size[k]);
            accum.sectors += r.sectors as u64;
            accum.moved_bytes += r.moved_bytes as f64;
            accum.useful_bytes += r.useful_bytes as f64;
            let hit = match relookup {
                None => Some(self.row_region[k]),
                Some(mem) => row
                    .iter()
                    .find(|&&a| a != 0)
                    .and_then(|&a| mem.region_of(a)),
            };
            attribute(accum, &mut last, hit);
        }
    }
}

/// A serial section's records. A lone lane's accesses each coalesce
/// alone, so they fold into the segment as they happen.
#[derive(Debug, Default)]
struct SerialRecs {
    seg: MixedSeg,
    /// Every global access address, in program order — consulted only
    /// when a region was freed during the section.
    addrs: Vec<u64>,
    /// Region of the previous access.
    last: Option<RegionInfo>,
}

/// Where a lane's records go.
enum Sink<'t> {
    Serial(&'t mut SerialRecs),
    Lane(&'t mut WarpRecs, usize),
}

impl Sink<'_> {
    fn insts(&mut self, n: f64) {
        match self {
            Sink::Serial(s) => s.seg.insts += n,
            Sink::Lane(w, l) => w.lanes[*l].insts += n,
        }
    }

    fn global(&mut self, addr: u64, size: usize, hit: RegionInfo) {
        match self {
            Sink::Serial(s) => {
                let r = coalesce(&[Some(addr)], size as u32);
                s.seg.sectors += r.sectors as u64;
                s.seg.moved_bytes += r.moved_bytes as f64;
                s.seg.useful_bytes += r.useful_bytes as f64;
                s.addrs.push(addr);
                attribute(&mut s.seg, &mut s.last, Some(hit));
            }
            Sink::Lane(w, l) => w.global(*l, addr, size as u32, hit),
        }
    }

    fn shared(&mut self, off: usize) {
        // A lone lane never conflicts with itself: serial sections charge
        // no bank replays.
        if let Sink::Lane(w, l) = self {
            w.shared(*l, off as u32);
        }
    }

    fn rpc(&mut self) {
        match self {
            Sink::Serial(s) => s.seg.rpc_calls += 1,
            Sink::Lane(w, l) => w.lanes[*l].rpc += 1,
        }
    }

    fn alloc_op(&mut self, fast: bool) {
        let fast = if fast { 1.0 } else { 0.0 };
        match self {
            Sink::Serial(s) => {
                s.seg.alloc_ops += 1.0;
                s.seg.alloc_fast_ops += fast;
            }
            Sink::Lane(w, l) => {
                w.lanes[*l].alloc_ops += 1.0;
                w.lanes[*l].alloc_fast_ops += fast;
            }
        }
    }
}

/// Attribute an access to its region's heap tag and L2 footprint. `last`
/// is the previously attributed region: a run of accesses to one region
/// is attributed once (re-adding is a no-op anyway).
fn attribute(seg: &mut MixedSeg, last: &mut Option<RegionInfo>, hit: Option<RegionInfo>) {
    if let Some(hit) = hit {
        if *last != Some(hit) {
            seg.add_region_tag(hit.tag);
            seg.add_region_footprint(hit.start, hit.len);
            *last = Some(hit);
        }
    }
}

/// Number of shared-memory banks (4-byte wide), as on NVIDIA devices.
const SHARED_BANKS: u32 = 32;

/// Serialization degree of one warp-wide shared-memory access: the maximum
/// number of *distinct addresses* mapped to the same bank. Lanes reading
/// the same address broadcast and do not conflict.
fn bank_conflict_degree(offsets: &[u32]) -> u32 {
    let mut distinct = [0u32; SHARED_BANKS as usize];
    for (i, &off) in offsets.iter().enumerate() {
        let word = off / 4;
        if !offsets[..i].iter().any(|&o| o / 4 == word) {
            distinct[(word % SHARED_BANKS) as usize] += 1;
        }
    }
    distinct.into_iter().max().unwrap_or(0).max(1)
}

/// State shared between the team and its lanes during functional execution.
struct TeamInner<'g> {
    mem: &'g mut DeviceMemory,
    host_call: Option<&'g mut HostCallHook<'g>>,
    /// Services for which the compiled image generated RPC stubs; `None`
    /// means "all" (used by tests and raw simulator users).
    rpc_services: Option<Vec<u32>>,
    shared: Vec<u8>,
    shared_limit: u64,
    default_tag: u32,
    /// A region was freed since the current round or serial section
    /// began, so the regions recorded with its accesses may be stale.
    freed: bool,
    /// The team read its identity (team id or tag), so its trace may
    /// differ from an identical sibling's in more than its bases.
    identity_read: Cell<bool>,
    /// Stores, atomics and frees that hit a region of another tag.
    foreign_writes: u64,
    /// The effect log, while this team records for replay.
    log: Option<EffectLog>,
}

/// The execution context handed to one lane (thread) of a team.
///
/// All device work flows through this type: global loads/stores are
/// bounds-checked against simulated memory *and* recorded for coalescing
/// analysis; arithmetic is accounted through [`LaneCtx::work`].
pub struct LaneCtx<'t, 'g> {
    inner: &'t mut TeamInner<'g>,
    sink: Sink<'t>,
}

impl<'t, 'g> LaneCtx<'t, 'g> {
    /// The heap-region tag of this team — the instance id under ensemble
    /// execution. Reading it marks the team identity-dependent, which
    /// keeps it out of team replay.
    pub fn tag(&self) -> u32 {
        self.inner.identity_read.set(true);
        self.inner.default_tag
    }

    /// The instance label device-libc stubs stamp on RPC requests (the
    /// team's tag). Team replay relabels recorded requests for each
    /// sibling, so unlike [`LaneCtx::tag`] this read does not mark the
    /// team identity-dependent. Use it for nothing but request labels.
    pub fn rpc_instance(&self) -> u32 {
        self.inner.default_tag
    }

    /// Load a scalar from global memory.
    pub fn ld<T: Scalar>(&mut self, p: DevicePtr) -> Result<T, KernelError> {
        let (v, hit) = self.inner.mem.load_hit::<T>(p)?;
        self.sink.global(p.0, T::SIZE, hit);
        self.sink.insts(cost::MEM_OP);
        Ok(v)
    }

    /// Store a scalar to global memory.
    pub fn st<T: Scalar>(&mut self, p: DevicePtr, v: T) -> Result<(), KernelError> {
        let hit = self.inner.mem.store_hit::<T>(p, v)?;
        self.inner.note_write(hit.tag);
        self.sink.global(p.0, T::SIZE, hit);
        self.sink.insts(cost::MEM_OP);
        Ok(())
    }

    /// Load element `i` of a typed array at `base`.
    pub fn ld_idx<T: Scalar>(&mut self, base: DevicePtr, i: u64) -> Result<T, KernelError> {
        self.ld(base.elem_add::<T>(i))
    }

    /// Store element `i` of a typed array at `base`.
    pub fn st_idx<T: Scalar>(&mut self, base: DevicePtr, i: u64, v: T) -> Result<(), KernelError> {
        self.st(base.elem_add::<T>(i), v)
    }

    /// Account `insts` warp instructions of arithmetic (FLOPs, ALU ops,
    /// branches) executed by this lane.
    pub fn work(&mut self, insts: f64) {
        self.sink.insts(insts);
    }

    /// Global-memory atomic add on an `f64`; returns the previous value.
    pub fn atomic_add_f64(&mut self, p: DevicePtr, v: f64) -> Result<f64, KernelError> {
        let old = self.inner.mem.load::<f64>(p)?;
        let hit = self.inner.mem.store_hit::<f64>(p, old + v)?;
        self.inner.note_write(hit.tag);
        self.sink.global(p.0, 8, hit);
        self.sink.insts(cost::MEM_OP + cost::ATOMIC_EXTRA);
        Ok(old)
    }

    /// Global-memory atomic add on a `u64`; returns the previous value.
    pub fn atomic_add_u64(&mut self, p: DevicePtr, v: u64) -> Result<u64, KernelError> {
        let old = self.inner.mem.load::<u64>(p)?;
        let hit = self.inner.mem.store_hit::<u64>(p, old.wrapping_add(v))?;
        self.inner.note_write(hit.tag);
        self.sink.global(p.0, 8, hit);
        self.sink.insts(cost::MEM_OP + cost::ATOMIC_EXTRA);
        Ok(old)
    }

    /// Allocate `bytes` of device-heap memory, tagged with this team's tag.
    /// This is the primitive `device-libc`'s `malloc` is built on.
    pub fn dev_alloc(&mut self, bytes: u64) -> Result<DevicePtr, KernelError> {
        let p = self.alloc(bytes, gpu_mem::Backing::Materialized)?;
        self.sink.insts(cost::MALLOC);
        Ok(p)
    }

    /// Reserve `bytes` of device address space without materializing host
    /// backing. Applications use this to model their *paper-scale* data
    /// footprint (for out-of-memory behaviour) while running functionally
    /// on scaled-down materialized arrays.
    pub fn dev_reserve(&mut self, bytes: u64) -> Result<DevicePtr, KernelError> {
        self.alloc(bytes, gpu_mem::Backing::Reserved)
    }

    fn alloc(&mut self, bytes: u64, backing: gpu_mem::Backing) -> Result<DevicePtr, KernelError> {
        let inner = &mut *self.inner;
        let before = inner.mem.stats();
        let p = inner.mem.alloc_tagged(bytes, backing, inner.default_tag)?;
        let after = inner.mem.stats();
        let fast = after.recycled_allocations > before.recycled_allocations;
        if let Some(log) = &mut inner.log {
            let aligned = after.bytes_in_use - before.bytes_in_use;
            let free_lists = inner.mem.free_lists_enabled();
            log.allocated(free_lists, bytes, backing, p.0, aligned, fast);
        }
        self.sink.alloc_op(fast);
        Ok(p)
    }

    /// Free device-heap memory allocated with [`LaneCtx::dev_alloc`].
    pub fn dev_free(&mut self, p: DevicePtr) -> Result<(), KernelError> {
        let inner = &mut *self.inner;
        let region = inner.mem.region_of(p.0);
        let parked = inner.mem.cached_bytes();
        inner.mem.free(p)?;
        inner.freed = true;
        let region = region.expect("a freed pointer starts a live region");
        inner.note_write(region.tag);
        if let Some(log) = &mut inner.log {
            // A ring that overflows spills its oldest block to the global
            // list, where first fit may hand it to anyone.
            if inner.mem.free_lists_enabled() && inner.mem.cached_bytes() != parked + region.len {
                log.spoil("a free spilled a free-list ring");
            }
            log.freed(p.0);
        }
        self.sink.insts(cost::MALLOC);
        self.sink.alloc_op(false);
        Ok(())
    }

    /// Read from a shared-memory array.
    pub fn sh_ld<T: Scalar>(&mut self, buf: &SharedBuf<T>, i: usize) -> Result<T, KernelError> {
        assert!(i < buf.len, "shared read at {i} past length {}", buf.len);
        let off = buf.offset + i * T::SIZE;
        self.sink.insts(cost::SHARED_OP);
        self.sink.shared(off);
        Ok(T::load_le(&self.inner.shared[off..off + T::SIZE]))
    }

    /// Write to a shared-memory array.
    pub fn sh_st<T: Scalar>(
        &mut self,
        buf: &SharedBuf<T>,
        i: usize,
        v: T,
    ) -> Result<(), KernelError> {
        assert!(i < buf.len, "shared write at {i} past length {}", buf.len);
        let off = buf.offset + i * T::SIZE;
        self.sink.insts(cost::SHARED_OP);
        self.sink.shared(off);
        v.store_le(&mut self.inner.shared[off..off + T::SIZE]);
        Ok(())
    }

    /// Perform a blocking host RPC round trip.
    pub fn host_call(&mut self, service: u32, payload: &[u8]) -> Result<Vec<u8>, KernelError> {
        if let Some(allowed) = &self.inner.rpc_services {
            if !allowed.contains(&service) {
                return Err(KernelError::HostCallUnavailable { service });
            }
        }
        let Some(hook) = self.inner.host_call.as_mut() else {
            return Err(KernelError::HostCallUnavailable { service });
        };
        self.sink.rpc();
        let reply = hook(service, payload);
        if let Some(log) = &mut self.inner.log {
            log.host_call(service, payload, &reply);
        }
        reply.map_err(KernelError::HostCallFailed)
    }
}

impl TeamInner<'_> {
    /// Count a store, atomic or free that hit a region tagged `tag`.
    fn note_write(&mut self, tag: u32) {
        if tag != self.default_tag {
            self.foreign_writes += 1;
        }
    }
}

/// What a finished team hands back besides its trace: the facts team
/// replay decides on.
pub(crate) struct TeamRun {
    pub trace: TeamTrace,
    pub shared_bytes: u64,
    pub identity_read: bool,
    pub foreign_writes: u64,
    pub log: Option<EffectLog>,
}

/// Per-team execution context: the device-side view one application
/// instance gets under the direct GPU compilation scheme.
///
/// The OpenMP execution structure maps directly: [`TeamCtx::serial`] is the
/// sequential part of `__user_main` (one initial thread), and
/// [`TeamCtx::parallel_for`] is an `omp parallel for` with a static chunk-1
/// schedule across the team's `thread_limit` threads. An implicit barrier
/// separates phases.
pub struct TeamCtx<'g> {
    inner: TeamInner<'g>,
    trace: TeamTrace,
    team_id: u32,
    num_teams: u32,
    lane_count: u32,
    warps: Vec<WarpRecs>,
    serial: SerialRecs,
    error: Option<KernelError>,
}

impl<'g> TeamCtx<'g> {
    /// Create a context for team `team_id` of `num_teams`, with
    /// `lane_count` usable threads, allocating with `default_tag`.
    pub fn new(
        mem: &'g mut DeviceMemory,
        team_id: u32,
        num_teams: u32,
        lane_count: u32,
        default_tag: u32,
        shared_limit: u64,
    ) -> Self {
        assert!(lane_count >= 1, "a team needs at least one thread");
        let warp_count = lane_count.div_ceil(WARP as u32);
        let inner = TeamInner {
            mem,
            host_call: None,
            rpc_services: None,
            shared: Vec::new(),
            shared_limit,
            default_tag,
            freed: false,
            identity_read: Cell::new(false),
            foreign_writes: 0,
            log: None,
        };
        let mut trace = TeamTrace {
            phases: Vec::new(),
            warp_count,
        };
        // Kernel prologue: every warp pays its setup cost in phase 0.
        trace.phases.push(Phase {
            warps: (0..warp_count)
                .map(|_| MixedSeg {
                    insts: cost::WARP_PROLOGUE,
                    ..Default::default()
                })
                .collect(),
            label: "prologue".into(),
        });
        Self {
            inner,
            trace,
            team_id,
            num_teams,
            lane_count,
            warps: (0..warp_count).map(|_| WarpRecs::default()).collect(),
            serial: SerialRecs::default(),
            error: None,
        }
    }

    /// Install the host-RPC hook and the set of services the compiled image
    /// generated stubs for (`None` = all services reachable).
    pub fn set_host_call(&mut self, hook: &'g mut HostCallHook<'g>, services: Option<Vec<u32>>) {
        self.inner.host_call = Some(hook);
        self.inner.rpc_services = services;
    }

    /// This team's id. Reading it marks the team identity-dependent,
    /// which keeps it out of team replay.
    pub fn team_id(&self) -> u32 {
        self.inner.identity_read.set(true);
        self.team_id
    }

    /// This team's id, for a loader that picks the team's inputs by it —
    /// inputs the replay classes it supplies already tell apart. Unlike
    /// [`TeamCtx::team_id`] it does not mark the team identity-dependent.
    pub fn input_slot(&self) -> u32 {
        self.team_id
    }

    /// Mark the team identity-dependent: a loader calls this when the
    /// application read an identity the loader handed it.
    pub fn mark_identity_read(&self) {
        self.inner.identity_read.set(true);
    }

    pub fn num_teams(&self) -> u32 {
        self.num_teams
    }

    /// Usable threads in this team (the loader's `-t` thread limit).
    pub fn thread_limit(&self) -> u32 {
        self.lane_count
    }

    /// The tag new device allocations receive (the instance id under
    /// ensemble execution). Reading it marks the team identity-dependent.
    pub fn default_tag(&self) -> u32 {
        self.inner.identity_read.set(true);
        self.inner.default_tag
    }

    /// Allocate a team-local shared-memory array of `len` `T`s.
    pub fn shared_alloc<T: Scalar>(&mut self, len: usize) -> Result<SharedBuf<T>, KernelError> {
        let bytes = (len * T::SIZE) as u64;
        let used = self.inner.shared.len() as u64;
        if used + bytes > self.inner.shared_limit {
            return Err(KernelError::SharedMemExhausted {
                requested: used + bytes,
                limit: self.inner.shared_limit,
            });
        }
        let offset = self.inner.shared.len();
        self.inner.shared.resize(offset + len * T::SIZE, 0);
        Ok(SharedBuf {
            offset,
            len,
            _t: std::marker::PhantomData,
        })
    }

    /// Shared-memory bytes this team ended up using.
    pub fn shared_bytes_used(&self) -> u64 {
        self.inner.shared.len() as u64
    }

    /// Run a single-threaded region (the sequential portions of the user's
    /// `main`). Only the team's initial thread works; all other warps idle
    /// at the closing barrier.
    pub fn serial<R>(
        &mut self,
        label: &str,
        f: impl FnOnce(&mut LaneCtx<'_, 'g>) -> Result<R, KernelError>,
    ) -> Result<R, KernelError> {
        self.check_poisoned()?;
        self.inner.freed = false;
        let result = {
            let mut lane = LaneCtx {
                inner: &mut self.inner,
                sink: Sink::Serial(&mut self.serial),
            };
            f(&mut lane)
        };
        let mut seg = std::mem::take(&mut self.serial.seg);
        if self.inner.freed {
            // Attribute by the regions live at the end of the section.
            seg.region_tags.clear();
            seg.region_footprints.clear();
            let mut last = None;
            for &addr in &self.serial.addrs {
                attribute(&mut seg, &mut last, self.inner.mem.region_of(addr));
            }
        }
        self.serial.addrs.clear();
        self.serial.last = None;
        let mut warps = vec![MixedSeg::default(); self.trace.warp_count as usize];
        warps[0] = seg;
        self.trace.phases.push(Phase {
            warps,
            label: label.to_string(),
        });
        self.poison_on_err(result)
    }

    /// Run an OpenMP-style `parallel for` over `trip` iterations with a
    /// static chunk-1 schedule across this team's threads: thread `t`
    /// executes iterations `t, t+T, t+2T, …` — the distribution that makes
    /// adjacent lanes touch adjacent elements (coalescing-friendly), as the
    /// LLVM OpenMP device runtime does.
    pub fn parallel_for(
        &mut self,
        label: &str,
        trip: u64,
        mut f: impl FnMut(u64, &mut LaneCtx<'_, 'g>) -> Result<(), KernelError>,
    ) -> Result<(), KernelError> {
        self.check_poisoned()?;
        let lanes = self.lane_count as u64;
        let mut accums = vec![MixedSeg::default(); self.warps.len()];
        let rounds = trip.div_ceil(lanes);
        let mut result: Result<(), KernelError> = Ok(());

        'rounds: for round in 0..rounds {
            self.inner.freed = false;
            for w in self.warps.iter_mut() {
                w.clear();
            }
            for lane in 0..lanes {
                let i = round * lanes + lane;
                if i >= trip {
                    break;
                }
                let lane = lane as usize;
                let mut ctx = LaneCtx {
                    inner: &mut self.inner,
                    sink: Sink::Lane(&mut self.warps[lane / WARP], lane % WARP),
                };
                ctx.sink.insts(cost::ITER_OVERHEAD);
                if let Err(e) = f(i, &mut ctx) {
                    result = Err(e);
                    break 'rounds;
                }
            }
            let relookup = self.inner.freed.then_some(&*self.inner.mem);
            for (w, (warp, accum)) in self.warps.iter().zip(&mut accums).enumerate() {
                let warp_lanes = (self.lane_count as usize - w * WARP).min(WARP);
                warp.fold(warp_lanes, accum, relookup);
            }
        }

        self.trace.phases.push(Phase {
            warps: accums,
            label: label.to_string(),
        });
        self.poison_on_err(result)
    }

    /// `parallel_for` with a sum reduction: each iteration contributes an
    /// `f64`, combined with the OpenMP `reduction(+)` semantics. The
    /// tree-reduction epilogue is charged to the trace.
    pub fn parallel_for_reduce_f64(
        &mut self,
        label: &str,
        trip: u64,
        mut f: impl FnMut(u64, &mut LaneCtx<'_, 'g>) -> Result<f64, KernelError>,
    ) -> Result<f64, KernelError> {
        let mut acc = 0.0f64;
        self.parallel_for(label, trip, |i, lane| {
            acc += f(i, lane)?;
            lane.work(1.0);
            Ok(())
        })?;
        // Tree reduction across threads: log2(T) shared-memory rounds.
        let steps = (self.lane_count.max(2) as f64).log2().ceil();
        let warp_count = self.trace.warp_count as usize;
        self.trace.phases.push(Phase {
            warps: (0..warp_count)
                .map(|_| MixedSeg {
                    insts: 4.0 * steps,
                    ..Default::default()
                })
                .collect(),
            label: format!("{label}:reduce"),
        });
        Ok(acc)
    }

    /// Explicit team barrier with no work (rarely needed; phases already
    /// synchronize implicitly).
    pub fn barrier(&mut self) {
        let warp_count = self.trace.warp_count as usize;
        self.trace.phases.push(Phase {
            warps: vec![MixedSeg::default(); warp_count],
            label: "barrier".into(),
        });
    }

    /// Finish execution and hand back the trace.
    pub fn finish(self) -> TeamTrace {
        self.trace
    }

    /// Record an effect log for team replay from here on.
    pub(crate) fn record_effects(&mut self) {
        self.inner.log = Some(EffectLog::default());
    }

    /// Finish execution and hand back the trace with the replay facts.
    pub(crate) fn finish_run(self) -> TeamRun {
        TeamRun {
            shared_bytes: self.inner.shared.len() as u64,
            identity_read: self.inner.identity_read.get(),
            foreign_writes: self.inner.foreign_writes,
            log: self.inner.log,
            trace: self.trace,
        }
    }

    /// The trace built so far (for inspection in tests).
    pub fn trace(&self) -> &TeamTrace {
        &self.trace
    }

    /// Labels of the phases recorded so far, in execution order — the same
    /// order the timing engine's `PhaseSpan`s replay them. Observation
    /// only: never affects any recorded cost.
    pub fn phase_labels(&self) -> Vec<&str> {
        self.trace.phases.iter().map(|p| p.label.as_str()).collect()
    }

    fn check_poisoned(&self) -> Result<(), KernelError> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn poison_on_err<R>(&mut self, r: Result<R, KernelError>) -> Result<R, KernelError> {
        if let Err(e) = &r {
            self.error = Some(e.clone());
        }
        r
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod replay_diff;

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::DeviceMemory;
    use proptest::prelude::*;

    fn mem() -> DeviceMemory {
        DeviceMemory::new(1 << 24)
    }

    #[test]
    fn parallel_for_writes_functionally() {
        let mut m = mem();
        let buf = m.alloc(8 * 1000).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 128, 0, 48 << 10);
        ctx.parallel_for("fill", 1000, |i, lane| {
            lane.st_idx::<f64>(buf, i, i as f64 * 2.0)
        })
        .unwrap();
        let trace = ctx.finish();
        assert_eq!(m.read_slice::<f64>(buf, 3).unwrap(), vec![0.0, 2.0, 4.0]);
        assert_eq!(m.load::<f64>(buf.elem_add::<f64>(999)).unwrap(), 1998.0);
        // 128 threads = 4 warps, plus the prologue phase.
        assert_eq!(trace.warp_count, 4);
        assert_eq!(trace.phases.len(), 2);
    }

    #[test]
    fn dense_writes_are_coalesced() {
        let mut m = mem();
        let buf = m.alloc(8 * 1024).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 0, 48 << 10);
        ctx.parallel_for("fill", 1024, |i, lane| lane.st_idx::<f64>(buf, i, 1.0))
            .unwrap();
        let trace = ctx.finish();
        let seg = &trace.phases[1].warps[0];
        // 1024 f64 stores = 8192 useful bytes; perfectly coalesced = 256
        // sectors = 8192 moved bytes.
        assert_eq!(seg.useful_bytes, 8192.0);
        assert_eq!(seg.sectors, 256);
        assert!((seg.coalescing_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strided_reads_are_uncoalesced() {
        let mut m = mem();
        let n = 32 * 16usize;
        let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let buf = m.alloc_from_slice(&src, 0).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 0, 48 << 10);
        let mut sum = 0.0;
        ctx.parallel_for("gather", 32, |i, lane| {
            // Stride of 16 elements = 128 bytes: every lane its own line.
            sum += lane.ld_idx::<f64>(buf, i * 16)?;
            Ok(())
        })
        .unwrap();
        let trace = ctx.finish();
        let seg = &trace.phases[1].warps[0];
        assert_eq!(seg.sectors, 32);
        assert!(seg.coalescing_efficiency() < 0.3);
        assert_eq!(sum, (0..32).map(|i| (i * 16) as f64).sum::<f64>());
    }

    #[test]
    fn serial_only_occupies_warp_zero() {
        let mut m = mem();
        let buf = m.alloc(64).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 256, 0, 48 << 10);
        ctx.serial("init", |lane| {
            lane.st::<u64>(buf, 42)?;
            lane.work(100.0);
            Ok(())
        })
        .unwrap();
        let trace = ctx.finish();
        let phase = &trace.phases[1];
        assert!(phase.warps[0].insts > 100.0);
        for w in &phase.warps[1..] {
            assert!(w.is_empty());
        }
    }

    #[test]
    fn reduce_returns_sum_and_adds_phase() {
        let mut m = mem();
        let src: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let buf = m.alloc_from_slice(&src, 0).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 64, 0, 48 << 10);
        let total = ctx
            .parallel_for_reduce_f64("sum", 500, |i, lane| lane.ld_idx::<f64>(buf, i))
            .unwrap();
        assert_eq!(total, (0..500).map(|i| i as f64).sum::<f64>());
        let trace = ctx.finish();
        assert_eq!(trace.phases.len(), 3); // prologue, loop, reduce
    }

    #[test]
    fn region_tags_flow_into_trace() {
        let mut m = mem();
        let a = m
            .alloc_tagged(8 * 64, gpu_mem::Backing::Materialized, 5)
            .unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 5, 48 << 10);
        ctx.parallel_for("touch", 64, |i, lane| lane.st_idx::<f64>(a, i, 0.0))
            .unwrap();
        let trace = ctx.finish();
        assert_eq!(trace.region_tags(), vec![5]);
        let fps = trace.region_footprints();
        assert_eq!(fps.len(), 1);
        assert!(fps[0].1 >= 8 * 64);
    }

    #[test]
    fn access_fault_poisons_team() {
        let mut m = mem();
        let buf = m.alloc(8).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 0, 48 << 10);
        let err = ctx
            .parallel_for("oob", 64, |i, lane| lane.st_idx::<f64>(buf, i, 0.0))
            .unwrap_err();
        assert!(matches!(err, KernelError::Access(_)));
        // Subsequent regions refuse to run.
        assert!(ctx.serial("after", |_| Ok(())).is_err());
    }

    #[test]
    fn bank_conflict_degree_cases() {
        // Conflict-free: 32 consecutive 4-byte words.
        let stride1: Vec<u32> = (0..32).map(|l| l * 4).collect();
        assert_eq!(bank_conflict_degree(&stride1), 1);
        // 2-way: stride of 2 words folds lanes 0/16, 1/17, … per bank.
        let stride2: Vec<u32> = (0..32).map(|l| l * 8).collect();
        assert_eq!(bank_conflict_degree(&stride2), 2);
        // Worst case: all lanes hit distinct words of one bank.
        let same_bank: Vec<u32> = (0..32).map(|l| l * 128).collect();
        assert_eq!(bank_conflict_degree(&same_bank), 32);
        // Broadcast: identical address does not conflict.
        let broadcast: Vec<u32> = vec![64; 32];
        assert_eq!(bank_conflict_degree(&broadcast), 1);
        assert_eq!(bank_conflict_degree(&[]), 1);
    }

    #[test]
    fn bank_conflicts_charge_issue_work() {
        let run = |stride: u64| {
            let mut m = mem();
            let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 0, 48 << 10);
            let buf = ctx.shared_alloc::<u32>(32 * 32).unwrap();
            ctx.parallel_for("sh", 32, |i, lane| {
                lane.sh_ld::<u32>(&buf, (i * stride) as usize)?;
                Ok(())
            })
            .unwrap();
            ctx.finish().total_insts()
        };
        let conflict_free = run(1); // consecutive words
        let conflicted = run(32); // all lanes in bank 0
        assert!(
            conflicted > conflict_free + 30.0,
            "32-way conflict ({conflicted}) must cost more than stride-1 ({conflict_free})"
        );
    }

    #[test]
    fn shared_memory_roundtrip_and_limit() {
        let mut m = mem();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 0, 1024);
        let buf = ctx.shared_alloc::<f64>(16).unwrap();
        ctx.serial("sh", |lane| {
            lane.sh_st(&buf, 3, 7.5)?;
            assert_eq!(lane.sh_ld::<f64>(&buf, 3)?, 7.5);
            Ok(())
        })
        .unwrap();
        assert!(matches!(
            ctx.shared_alloc::<f64>(1024),
            Err(KernelError::SharedMemExhausted { .. })
        ));
        assert_eq!(ctx.shared_bytes_used(), 128);
    }

    #[test]
    fn dev_alloc_inside_kernel() {
        let mut m = mem();
        let mut ctx = TeamCtx::new(&mut m, 2, 4, 32, 9, 48 << 10);
        let p = ctx
            .serial("alloc", |lane| {
                let p = lane.dev_alloc(256)?;
                lane.st::<u32>(p, 123)?;
                Ok(p)
            })
            .unwrap();
        assert_eq!(m.load::<u32>(p).unwrap(), 123);
        assert_eq!(m.region_of(p.0).unwrap().tag, 9);
    }

    #[test]
    fn host_call_requires_stub() {
        let mut m = mem();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 0, 48 << 10);
        let mut hook = |svc: u32, payload: &[u8]| -> Result<Vec<u8>, String> {
            assert_eq!(svc, 1);
            Ok(payload.to_vec())
        };
        ctx.set_host_call(&mut hook, Some(vec![1]));
        let out = ctx
            .serial("rpc", |lane| {
                // Allowed service echoes.
                let echoed = lane.host_call(1, b"hi")?;
                // Service 2 has no stub.
                assert!(matches!(
                    lane.host_call(2, b"no"),
                    Err(KernelError::HostCallUnavailable { service: 2 })
                ));
                Ok(echoed)
            })
            .unwrap();
        assert_eq!(out, b"hi");
        let trace = ctx.finish();
        assert_eq!(trace.total_rpc_calls(), 1);
    }

    #[test]
    fn atomic_add_returns_old() {
        let mut m = mem();
        let p = m.alloc(8).unwrap();
        m.store::<f64>(p, 10.0).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 0, 48 << 10);
        ctx.serial("atomic", |lane| {
            assert_eq!(lane.atomic_add_f64(p, 2.5)?, 10.0);
            assert_eq!(lane.atomic_add_f64(p, 2.5)?, 12.5);
            Ok(())
        })
        .unwrap();
        assert_eq!(m.load::<f64>(p).unwrap(), 15.0);
    }

    #[test]
    fn iterations_beyond_lanes_wrap_rounds() {
        let mut m = mem();
        let buf = m.alloc(8 * 100).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 0, 48 << 10);
        // 100 iterations on 32 lanes = 4 rounds (ceil).
        ctx.parallel_for("fill", 100, |i, lane| lane.st_idx::<f64>(buf, i, i as f64))
            .unwrap();
        assert_eq!(m.load::<f64>(buf.elem_add::<f64>(99)).unwrap(), 99.0);
    }

    /// splitmix64: the random programs' deterministic generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One random operation of lane `i`: a global load or store of 1, 2, 4
    /// or 8 bytes (lane-strided or at a random, possibly sector-straddling
    /// offset), a shared access, arithmetic, or a device malloc/free —
    /// including frees of regions this round or section already touched.
    macro_rules! random_op {
        ($lane:ident, $r:ident, $i:expr, $live:ident, $sh:ident) => {{
            match $r.below(16) {
                0..=8 if !$live.is_empty() => {
                    let (p, len) = $live[$r.below($live.len() as u64) as usize];
                    let size = 1u64 << $r.below(4);
                    let off = if $r.below(2) == 0 {
                        ($i % (len / size).max(1)) * size
                    } else {
                        $r.below(len - size + 1)
                    };
                    let p = p.byte_add(off.min(len - size));
                    let store = $r.below(2) == 0;
                    let v = $r.next();
                    match (size, store) {
                        (1, false) => $lane.ld::<u8>(p).map(drop),
                        (2, false) => $lane.ld::<u16>(p).map(drop),
                        (4, false) => $lane.ld::<u32>(p).map(drop),
                        (_, false) => $lane.ld::<f64>(p).map(drop),
                        (1, true) => $lane.st::<u8>(p, v as u8),
                        (2, true) => $lane.st::<u16>(p, v as u16),
                        (4, true) => $lane.st::<u32>(p, v as u32),
                        (_, true) => $lane.st::<u64>(p, v),
                    }
                }
                9 | 10 => {
                    let idx = if $r.below(2) == 0 {
                        $i as usize % $sh.len()
                    } else {
                        $r.below($sh.len() as u64) as usize
                    };
                    if $r.below(2) == 0 {
                        $lane.sh_ld::<u32>(&$sh, idx).map(drop)
                    } else {
                        $lane.sh_st::<u32>(&$sh, idx, $i as u32)
                    }
                }
                14 => {
                    let len = 8 + $r.below(1500);
                    $lane.dev_alloc(len).map(|p| $live.push((p, len)))
                }
                15 if $live.len() > 1 => {
                    let (p, _) = $live.swap_remove($r.below($live.len() as u64) as usize);
                    $lane.dev_free(p)
                }
                _ => {
                    $lane.work($r.below(10) as f64);
                    Ok(())
                }
            }
        }};
    }

    /// Run the random program `seed` on `team` (either executor) and
    /// return its trace.
    macro_rules! run_random_program {
        ($team:ident, $seed:expr, $live:expr) => {{
            let mut rng = Rng($seed);
            let sh = $team.shared_alloc::<u32>(96).unwrap();
            let mut live: Vec<(DevicePtr, u64)> = $live;
            for _ in 0..1 + rng.below(8) {
                let seed = rng.next();
                if rng.below(3) == 0 {
                    let res = $team.serial("serial", |lane| {
                        let mut r = Rng(seed);
                        for _ in 0..r.below(60) {
                            random_op!(lane, r, 0u64, live, sh)?;
                        }
                        Ok(())
                    });
                    res.expect("random programs never fault");
                } else {
                    let trip = rng.below(300);
                    let res = $team.parallel_for("parallel", trip, |i, lane| {
                        let mut r = Rng(seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d));
                        for _ in 0..r.below(8) {
                            random_op!(lane, r, i, live, sh)?;
                        }
                        Ok(())
                    });
                    res.expect("random programs never fault");
                }
            }
            $team.finish()
        }};
    }

    /// A heap with a few pre-existing regions of other tags, as a team
    /// finds it under ensemble execution.
    fn seeded_heap(free_lists: bool) -> (DeviceMemory, Vec<(DevicePtr, u64)>) {
        let mut m = DeviceMemory::new(1 << 22);
        m.set_free_lists(free_lists);
        let live = [(4096, 1), (1000, 2), (300, 7)]
            .into_iter()
            .map(|(len, tag)| {
                let p = m
                    .alloc_tagged(len, gpu_mem::Backing::Materialized, tag)
                    .unwrap();
                (p, len)
            })
            .collect();
        (m, live)
    }

    proptest! {
        /// The record-and-fold hot path is bit-identical to the original
        /// executor on arbitrary programs: every segment field of every
        /// phase, for any lane count (partial warps included), access mix,
        /// and mallocs/frees inside rounds and serial sections.
        #[test]
        fn fold_matches_the_original_executor(
            seed in any::<u64>(),
            lanes in prop::sample::select(vec![1u32, 5, 32, 33, 64, 100]),
            free_lists in any::<bool>(),
        ) {
            let (mut m1, live) = seeded_heap(free_lists);
            let mut team = TeamCtx::new(&mut m1, 0, 1, lanes, 3, 48 << 10);
            let fast = run_random_program!(team, seed, live);
            let (mut m2, live) = seeded_heap(free_lists);
            let mut team = oracle::TeamCtx::new(&mut m2, lanes, 3);
            let reference = run_random_program!(team, seed, live);
            prop_assert_eq!(fast, reference);
        }

        /// The fixed-array bank-conflict degree equals the per-bank vector
        /// reference, broadcasts and partial warps included.
        #[test]
        fn bank_conflict_degree_matches_reference(
            offsets in prop::collection::vec(0u32..1024, 0..33),
        ) {
            prop_assert_eq!(
                bank_conflict_degree(&offsets),
                oracle::bank_conflict_degree(&offsets)
            );
        }
    }

    /// A region freed later in the same serial section or round
    /// contributes no tag and no footprint — the original executor
    /// attributed accesses by the regions live when the records were
    /// folded.
    #[test]
    fn region_freed_in_the_same_section_is_not_attributed() {
        let mut m = mem();
        let keep = m
            .alloc_tagged(256, gpu_mem::Backing::Materialized, 4)
            .unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 9, 48 << 10);
        ctx.serial("churn", |lane| {
            let tmp = lane.dev_alloc(512)?;
            lane.st::<u64>(tmp, 1)?;
            lane.st::<u64>(keep, 2)?;
            lane.dev_free(tmp)
        })
        .unwrap();
        let shared = std::cell::Cell::new(None);
        ctx.serial("alloc", |lane| {
            shared.set(Some(lane.dev_alloc(512)?));
            Ok(())
        })
        .unwrap();
        let p = shared.get().unwrap();
        ctx.parallel_for("churn", 32, |i, lane| {
            lane.st_idx::<u64>(p, i, 0)?;
            if i == 31 {
                lane.dev_free(p)?;
            }
            lane.st::<u64>(keep, 3)
        })
        .unwrap();
        let trace = ctx.finish();
        for phase in &trace.phases[1..] {
            let w = &phase.warps[0];
            if phase.label == "alloc" {
                continue;
            }
            assert_eq!(w.region_tags, vec![4], "{}", phase.label);
            assert_eq!(w.region_footprints, vec![(keep.0, 256)], "{}", phase.label);
        }
    }
}
