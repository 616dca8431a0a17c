use serde::{Deserialize, Serialize};

/// DRAM sector size: the granularity of a global-memory transaction.
pub const SECTOR_BYTES: u64 = 32;

/// Cache-line size: four sectors.
pub const LINE_BYTES: u64 = 128;

/// Result of coalescing one warp-wide access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoalesceResult {
    /// Number of 32-byte sectors touched (the transaction count).
    pub sectors: u32,
    /// Number of distinct 128-byte lines touched.
    pub lines: u32,
    /// Bytes the program actually asked for.
    pub useful_bytes: u64,
    /// Bytes moved from DRAM (`sectors * 32`).
    pub moved_bytes: u64,
}

impl CoalesceResult {
    /// Fraction of moved bytes that were useful (1.0 = perfectly coalesced).
    pub fn efficiency(&self) -> f64 {
        if self.moved_bytes == 0 {
            1.0
        } else {
            self.useful_bytes as f64 / self.moved_bytes as f64
        }
    }

    /// Accumulate another result into this one.
    pub fn merge(&mut self, other: &CoalesceResult) {
        self.sectors += other.sectors;
        self.lines += other.lines;
        self.useful_bytes += other.useful_bytes;
        self.moved_bytes += other.moved_bytes;
    }
}

/// Lanes of one warp: the widest access the allocation-free path takes.
const WARP_LANES: usize = 32;

/// Coalesce one warp access: each active lane supplies the address of an
/// `size`-byte element; the hardware merges them into 32-byte sector
/// transactions.
///
/// `addrs` holds one entry per lane; `None` marks an inactive lane
/// (predicated off or beyond the loop bound). An access that straddles a
/// sector boundary touches both sectors, exactly as on real hardware.
pub fn coalesce(addrs: &[Option<u64>], size: u32) -> CoalesceResult {
    coalesce_active(addrs.iter().flatten().copied(), addrs.len(), size)
}

/// [`coalesce`] over a row of lane addresses in which `0` marks an
/// inactive lane — the null address can never be accessed, so it is free
/// to serve as the marker. The functional executor's record layout.
pub fn coalesce_row(addrs: &[u64], size: u32) -> CoalesceResult {
    coalesce_active(addrs.iter().copied().filter(|&a| a != 0), addrs.len(), size)
}

/// Coalesce the active lanes' addresses of a warp of `lanes` lanes.
///
/// An access of at most a sector touches one sector or two adjacent ones,
/// and the lines it touches are exactly those holding its sectors. So a
/// warp of such accesses touches at most 64 sectors, counted without
/// allocating: straight off the lanes when their addresses ascend (the
/// common, coalesced case), else after sorting them in a stack buffer.
/// Anything wider takes the general sort-and-deduplicate path.
fn coalesce_active<I>(active: I, lanes: usize, size: u32) -> CoalesceResult
where
    I: Iterator<Item = u64> + Clone,
{
    if size == 0 || u64::from(size) > SECTOR_BYTES || lanes > WARP_LANES {
        return coalesce_sorting(active, size);
    }
    let size = u64::from(size);
    let touched = active.clone().flat_map(move |addr| {
        let (first, last) = (addr / SECTOR_BYTES, (addr + size - 1) / SECTOR_BYTES);
        [Some(first), (last != first).then_some(last)]
    });
    let (sectors, lines) = count_ascending(touched.clone().flatten()).unwrap_or_else(|| {
        let mut buf = [0u64; 2 * WARP_LANES];
        let mut n = 0;
        for s in touched.flatten() {
            buf[n] = s;
            n += 1;
        }
        buf[..n].sort_unstable();
        count_ascending(buf[..n].iter().copied()).expect("sorted sectors ascend")
    });
    CoalesceResult {
        sectors,
        lines,
        useful_bytes: active.count() as u64 * size,
        moved_bytes: u64::from(sectors) * SECTOR_BYTES,
    }
}

/// Distinct sectors and distinct lines of a non-decreasing sequence of
/// sectors — each is new exactly when it differs from its predecessor.
/// `None` at the first descent.
fn count_ascending(sectors: impl Iterator<Item = u64>) -> Option<(u32, u32)> {
    let per_line = LINE_BYTES / SECTOR_BYTES;
    let (mut distinct, mut lines) = (0u32, 0u32);
    let mut prev = None;
    for s in sectors {
        match prev {
            Some(p) if s < p => return None,
            Some(p) if s == p => continue,
            Some(p) if s / per_line == p / per_line => {}
            _ => lines += 1,
        }
        distinct += 1;
        prev = Some(s);
    }
    Some((distinct, lines))
}

/// The general path: every touched sector and line collected, sorted and
/// deduplicated — any lane count, any access size.
fn coalesce_sorting(active: impl Iterator<Item = u64>, size: u32) -> CoalesceResult {
    let mut sectors: Vec<u64> = Vec::new();
    let mut lines: Vec<u64> = Vec::new();
    let mut useful = 0u64;
    for addr in active {
        useful += size as u64;
        let first = addr / SECTOR_BYTES;
        let last = (addr + size as u64 - 1) / SECTOR_BYTES;
        for s in first..=last {
            sectors.push(s);
        }
        let lfirst = addr / LINE_BYTES;
        let llast = (addr + size as u64 - 1) / LINE_BYTES;
        for l in lfirst..=llast {
            lines.push(l);
        }
    }
    sectors.sort_unstable();
    sectors.dedup();
    lines.sort_unstable();
    lines.dedup();
    CoalesceResult {
        sectors: sectors.len() as u32,
        lines: lines.len() as u32,
        useful_bytes: useful,
        moved_bytes: sectors.len() as u64 * SECTOR_BYTES,
    }
}

/// Coalesce a strided warp access analytically: `lanes` active lanes reading
/// `size`-byte elements starting at `base` with a byte stride of `stride`.
///
/// Fast path used by bulk device operations that would otherwise synthesize
/// thousands of identical per-lane address vectors.
pub fn coalesce_strided(base: u64, stride: u64, size: u32, lanes: u32) -> CoalesceResult {
    if lanes == 0 {
        return CoalesceResult::default();
    }
    if lanes <= 64 && stride != size as u64 {
        // Small irregular case: fall back to the exact path.
        let addrs: Vec<Option<u64>> = (0..lanes as u64).map(|l| Some(base + l * stride)).collect();
        return coalesce(&addrs, size);
    }
    let useful = lanes as u64 * size as u64;
    let (sectors, lines) = if stride == size as u64 {
        // Dense: the warp touches one contiguous byte range.
        let lo = base;
        let hi = base + useful;
        let sectors = hi.div_ceil(SECTOR_BYTES) - lo / SECTOR_BYTES;
        let lines = hi.div_ceil(LINE_BYTES) - lo / LINE_BYTES;
        (sectors, lines)
    } else if stride >= SECTOR_BYTES {
        // Fully scattered: one (or two, if straddling) sectors per lane.
        let per_lane = if base % SECTOR_BYTES + size as u64 > SECTOR_BYTES {
            2
        } else {
            1
        };
        (
            lanes as u64 * per_lane,
            lanes as u64, // approximately one line per lane
        )
    } else {
        // Partially dense: lanes per sector = sector / stride.
        let lanes_per_sector = (SECTOR_BYTES / stride).max(1);
        let sectors = (lanes as u64).div_ceil(lanes_per_sector);
        let lanes_per_line = (LINE_BYTES / stride).max(1);
        (sectors, (lanes as u64).div_ceil(lanes_per_line))
    };
    CoalesceResult {
        sectors: sectors as u32,
        lines: lines as u32,
        useful_bytes: useful,
        moved_bytes: sectors * SECTOR_BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(addrs: impl IntoIterator<Item = u64>) -> Vec<Option<u64>> {
        addrs.into_iter().map(Some).collect()
    }

    #[test]
    fn dense_f32_warp_is_four_sectors() {
        // 32 lanes × 4 B contiguous from an aligned base = 128 B = 4 sectors.
        let a = lanes((0..32).map(|l| 0x1000 + l * 4));
        let r = coalesce(&a, 4);
        assert_eq!(r.sectors, 4);
        assert_eq!(r.lines, 1);
        assert_eq!(r.useful_bytes, 128);
        assert!((r.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_f64_warp_is_eight_sectors() {
        let a = lanes((0..32).map(|l| 0x2000 + l * 8));
        let r = coalesce(&a, 8);
        assert_eq!(r.sectors, 8);
        assert_eq!(r.lines, 2);
        assert!((r.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_strided_warp_is_uncoalesced() {
        // Stride of 256 B: every lane its own sector, efficiency 4/32.
        let a = lanes((0..32).map(|l| 0x3000 + l * 256));
        let r = coalesce(&a, 4);
        assert_eq!(r.sectors, 32);
        assert!((r.efficiency() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn broadcast_is_one_sector() {
        let a = lanes(std::iter::repeat_n(0x4000u64, 32));
        let r = coalesce(&a, 8);
        assert_eq!(r.sectors, 1);
    }

    #[test]
    fn inactive_lanes_cost_nothing() {
        let mut a = lanes((0..16).map(|l| 0x1000 + l * 4));
        a.extend(std::iter::repeat_n(None, 16));
        let r = coalesce(&a, 4);
        assert_eq!(r.useful_bytes, 64);
        assert_eq!(r.sectors, 2);
    }

    #[test]
    fn straddling_access_touches_two_sectors() {
        let a = lanes([0x101Eu64]); // 8-byte access at offset 30 of a sector
        let r = coalesce(&a, 8);
        assert_eq!(r.sectors, 2);
    }

    #[test]
    fn empty_warp() {
        let r = coalesce(&[], 8);
        assert_eq!(r, CoalesceResult::default());
        assert!((r.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strided_fast_path_matches_exact_dense() {
        let exact = coalesce(&lanes((0..32).map(|l| 0x7000 + l * 8)), 8);
        let fast = coalesce_strided(0x7000, 8, 8, 32);
        assert_eq!(exact.sectors, fast.sectors);
        assert_eq!(exact.useful_bytes, fast.useful_bytes);
    }

    #[test]
    fn strided_fast_path_matches_exact_scattered() {
        let exact = coalesce(&lanes((0..32).map(|l| 0x9000 + l * 64)), 4);
        let fast = coalesce_strided(0x9000, 64, 4, 32);
        assert_eq!(exact.sectors, fast.sectors);
    }

    #[test]
    fn strided_large_lane_count_dense() {
        let r = coalesce_strided(0, 8, 8, 1024);
        assert_eq!(r.useful_bytes, 8192);
        assert_eq!(r.sectors, 256);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = coalesce(&lanes((0..32).map(|l| l * 4)), 4);
        let b = a;
        a.merge(&b);
        assert_eq!(a.sectors, 2 * b.sectors);
        assert_eq!(a.useful_bytes, 2 * b.useful_bytes);
    }
}
