//! The functional executor's original record-and-fold path, kept as a test
//! oracle: each access resolved its region twice, pushed a record into a
//! per-lane vector, and the fold binary-searched a snapshot of the live
//! regions and sorted every warp-wide access. The optimized path must
//! produce bit-identical traces; `super::tests` runs both on the same
//! programs. Only the operations those programs use are kept (no host
//! calls, atomics or reservations).

use super::{cost, KernelError, SharedBuf};
use crate::trace::{MixedSeg, Phase, TeamTrace};
use gpu_mem::{DeviceMemory, DevicePtr, Scalar, SECTOR_BYTES};

/// Cache-line size (four sectors).
const LINE_BYTES: u64 = 128;

/// The original coalescer: collect every touched sector and line, sort,
/// deduplicate.
pub fn coalesce(addrs: &[Option<u64>], size: u32) -> (u32, u32, u64) {
    let mut sectors: Vec<u64> = Vec::with_capacity(addrs.len() * 2);
    let mut lines: Vec<u64> = Vec::with_capacity(addrs.len());
    let mut useful = 0u64;
    for addr in addrs.iter().flatten() {
        useful += size as u64;
        let first = addr / SECTOR_BYTES;
        let last = (addr + size as u64 - 1) / SECTOR_BYTES;
        sectors.extend(first..=last);
        let lfirst = addr / LINE_BYTES;
        let llast = (addr + size as u64 - 1) / LINE_BYTES;
        lines.extend(lfirst..=llast);
    }
    sectors.sort_unstable();
    sectors.dedup();
    lines.sort_unstable();
    lines.dedup();
    (sectors.len() as u32, lines.len() as u32, useful)
}

/// The original bank-conflict degree: one vector of distinct words per
/// bank.
pub fn bank_conflict_degree(offsets: &[u32]) -> u32 {
    let mut per_bank: [Vec<u32>; 32] = Default::default();
    for &off in offsets {
        let bank = ((off / 4) % 32) as usize;
        let word = off / 4;
        if !per_bank[bank].contains(&word) {
            per_bank[bank].push(word);
        }
    }
    per_bank
        .iter()
        .map(|b| b.len() as u32)
        .max()
        .unwrap_or(0)
        .max(1)
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    addr: u64,
    size: u8,
}

#[derive(Debug, Default)]
struct LaneScratch {
    recs: Vec<Rec>,
    shared_recs: Vec<u32>,
    insts: f64,
    alloc_ops: f64,
    alloc_fast_ops: f64,
}

impl LaneScratch {
    fn clear(&mut self) {
        self.recs.clear();
        self.shared_recs.clear();
        self.insts = 0.0;
        self.alloc_ops = 0.0;
        self.alloc_fast_ops = 0.0;
    }
}

struct TeamInner<'g> {
    mem: &'g mut DeviceMemory,
    shared: Vec<u8>,
    default_tag: u32,
    /// Snapshot of live regions: (start, end, tag, len), sorted by start.
    snapshot: Vec<(u64, u64, u32, u64)>,
}

impl TeamInner<'_> {
    fn refresh_snapshot(&mut self) {
        self.snapshot = self
            .mem
            .live_regions()
            .into_iter()
            .map(|r| (r.start, r.start + r.len, r.tag, r.len))
            .collect();
    }

    fn region_meta(&self, addr: u64) -> Option<(u32, u64, u64)> {
        let idx = self.snapshot.partition_point(|&(s, _, _, _)| s <= addr);
        if idx == 0 {
            return None;
        }
        let (s, e, tag, len) = self.snapshot[idx - 1];
        (addr < e).then_some((tag, s, len))
    }
}

pub struct LaneCtx<'t, 'g> {
    inner: &'t mut TeamInner<'g>,
    scratch: &'t mut LaneScratch,
}

impl LaneCtx<'_, '_> {
    pub fn ld<T: Scalar>(&mut self, p: DevicePtr) -> Result<T, KernelError> {
        let v = self.inner.mem.load::<T>(p)?;
        self.scratch.recs.push(Rec {
            addr: p.0,
            size: T::SIZE as u8,
        });
        self.scratch.insts += cost::MEM_OP;
        Ok(v)
    }

    pub fn st<T: Scalar>(&mut self, p: DevicePtr, v: T) -> Result<(), KernelError> {
        self.inner.mem.store::<T>(p, v)?;
        self.scratch.recs.push(Rec {
            addr: p.0,
            size: T::SIZE as u8,
        });
        self.scratch.insts += cost::MEM_OP;
        Ok(())
    }

    pub fn work(&mut self, insts: f64) {
        self.scratch.insts += insts;
    }

    pub fn dev_alloc(&mut self, bytes: u64) -> Result<DevicePtr, KernelError> {
        let tag = self.inner.default_tag;
        let recycled_before = self.inner.mem.stats().recycled_allocations;
        let p = self
            .inner
            .mem
            .alloc_tagged(bytes, gpu_mem::Backing::Materialized, tag)?;
        self.scratch.insts += cost::MALLOC;
        self.scratch.alloc_ops += 1.0;
        if self.inner.mem.stats().recycled_allocations > recycled_before {
            self.scratch.alloc_fast_ops += 1.0;
        }
        self.inner.refresh_snapshot();
        Ok(p)
    }

    pub fn dev_free(&mut self, p: DevicePtr) -> Result<(), KernelError> {
        self.inner.mem.free(p)?;
        self.scratch.insts += cost::MALLOC;
        self.scratch.alloc_ops += 1.0;
        self.inner.refresh_snapshot();
        Ok(())
    }

    pub fn sh_ld<T: Scalar>(&mut self, buf: &SharedBuf<T>, i: usize) -> Result<T, KernelError> {
        let off = buf.offset + i * T::SIZE;
        self.scratch.insts += cost::SHARED_OP;
        self.scratch.shared_recs.push(off as u32);
        Ok(T::load_le(&self.inner.shared[off..off + T::SIZE]))
    }

    pub fn sh_st<T: Scalar>(
        &mut self,
        buf: &SharedBuf<T>,
        i: usize,
        v: T,
    ) -> Result<(), KernelError> {
        let off = buf.offset + i * T::SIZE;
        self.scratch.insts += cost::SHARED_OP;
        self.scratch.shared_recs.push(off as u32);
        v.store_le(&mut self.inner.shared[off..off + T::SIZE]);
        Ok(())
    }
}

pub struct TeamCtx<'g> {
    inner: TeamInner<'g>,
    trace: TeamTrace,
    lane_count: u32,
    scratches: Vec<LaneScratch>,
}

impl<'g> TeamCtx<'g> {
    pub fn new(mem: &'g mut DeviceMemory, lane_count: u32, default_tag: u32) -> Self {
        let warp_count = lane_count.div_ceil(32);
        let mut inner = TeamInner {
            mem,
            shared: Vec::new(),
            default_tag,
            snapshot: Vec::new(),
        };
        inner.refresh_snapshot();
        let mut trace = TeamTrace {
            phases: Vec::new(),
            warp_count,
        };
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
            lane_count,
            scratches: (0..lane_count).map(|_| LaneScratch::default()).collect(),
        }
    }

    pub fn shared_alloc<T: Scalar>(&mut self, len: usize) -> Result<SharedBuf<T>, KernelError> {
        let offset = self.inner.shared.len();
        self.inner.shared.resize(offset + len * T::SIZE, 0);
        Ok(SharedBuf {
            offset,
            len,
            _t: std::marker::PhantomData,
        })
    }

    pub fn serial(
        &mut self,
        label: &str,
        f: impl FnOnce(&mut LaneCtx<'_, 'g>) -> Result<(), KernelError>,
    ) -> Result<(), KernelError> {
        self.inner.refresh_snapshot();
        self.scratches[0].clear();
        let result = {
            let mut lane = LaneCtx {
                inner: &mut self.inner,
                scratch: &mut self.scratches[0],
            };
            f(&mut lane)
        };
        let seg = Self::lone_lane_segment(&self.inner, &self.scratches[0]);
        let mut warps = vec![MixedSeg::default(); self.trace.warp_count as usize];
        warps[0] = seg;
        self.trace.phases.push(Phase {
            warps,
            label: label.to_string(),
        });
        result
    }

    pub fn parallel_for(
        &mut self,
        label: &str,
        trip: u64,
        mut f: impl FnMut(u64, &mut LaneCtx<'_, 'g>) -> Result<(), KernelError>,
    ) -> Result<(), KernelError> {
        self.inner.refresh_snapshot();
        let lanes = self.lane_count as u64;
        let mut accums = vec![MixedSeg::default(); self.trace.warp_count as usize];
        let mut result = Ok(());
        'rounds: for round in 0..trip.div_ceil(lanes) {
            for s in self.scratches.iter_mut() {
                s.clear();
            }
            for lane in 0..lanes {
                let i = round * lanes + lane;
                if i >= trip {
                    break;
                }
                let mut ctx = LaneCtx {
                    inner: &mut self.inner,
                    scratch: &mut self.scratches[lane as usize],
                };
                ctx.scratch.insts += cost::ITER_OVERHEAD;
                if let Err(e) = f(i, &mut ctx) {
                    result = Err(e);
                    break 'rounds;
                }
            }
            self.fold_round(&mut accums);
        }
        self.trace.phases.push(Phase {
            warps: accums,
            label: label.to_string(),
        });
        result
    }

    pub fn finish(self) -> TeamTrace {
        self.trace
    }

    fn lone_lane_segment(inner: &TeamInner<'g>, scratch: &LaneScratch) -> MixedSeg {
        let mut seg = MixedSeg {
            insts: scratch.insts,
            alloc_ops: scratch.alloc_ops,
            alloc_fast_ops: scratch.alloc_fast_ops,
            ..Default::default()
        };
        for rec in &scratch.recs {
            let (sectors, _, useful) = coalesce(&[Some(rec.addr)], rec.size as u32);
            seg.sectors += sectors as u64;
            seg.moved_bytes += (sectors as u64 * SECTOR_BYTES) as f64;
            seg.useful_bytes += useful as f64;
            if let Some((tag, start, len)) = inner.region_meta(rec.addr) {
                seg.add_region_tag(tag);
                seg.add_region_footprint(start, len);
            }
        }
        seg
    }

    fn fold_round(&mut self, accums: &mut [MixedSeg]) {
        let lanes = self.lane_count as usize;
        let mut addrs: Vec<Option<u64>> = Vec::with_capacity(32);
        for (w, accum) in accums.iter_mut().enumerate() {
            let lane_lo = w * 32;
            let lane_hi = (lane_lo + 32).min(lanes);
            let warp_scratches = &self.scratches[lane_lo..lane_hi];

            let mut max_insts = 0.0f64;
            let mut alloc_ops = 0.0f64;
            let mut alloc_fast_ops = 0.0f64;
            let mut max_recs = 0usize;
            let mut max_shared_recs = 0usize;
            for s in warp_scratches {
                max_insts = max_insts.max(s.insts);
                alloc_ops += s.alloc_ops;
                alloc_fast_ops += s.alloc_fast_ops;
                max_recs = max_recs.max(s.recs.len());
                max_shared_recs = max_shared_recs.max(s.shared_recs.len());
            }
            accum.insts += max_insts;
            accum.alloc_ops += alloc_ops;
            accum.alloc_fast_ops += alloc_fast_ops;

            let mut bank_offsets: Vec<u32> = Vec::with_capacity(32);
            for k in 0..max_shared_recs {
                bank_offsets.clear();
                for s in warp_scratches {
                    if let Some(&off) = s.shared_recs.get(k) {
                        bank_offsets.push(off);
                    }
                }
                accum.insts += (bank_conflict_degree(&bank_offsets) - 1) as f64;
            }

            for k in 0..max_recs {
                addrs.clear();
                let mut size = 0u32;
                let mut first_addr = None;
                for s in warp_scratches {
                    match s.recs.get(k) {
                        Some(rec) => {
                            addrs.push(Some(rec.addr));
                            size = size.max(rec.size as u32);
                            first_addr.get_or_insert(rec.addr);
                        }
                        None => addrs.push(None),
                    }
                }
                let (sectors, _, useful) = coalesce(&addrs, size);
                accum.sectors += sectors as u64;
                accum.moved_bytes += (sectors as u64 * SECTOR_BYTES) as f64;
                accum.useful_bytes += useful as f64;
                if let Some((tag, start, len)) = first_addr.and_then(|a| self.inner.region_meta(a))
                {
                    accum.add_region_tag(tag);
                    accum.add_region_footprint(start, len);
                }
            }
        }
    }
}
