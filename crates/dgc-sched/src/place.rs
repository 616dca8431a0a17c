//! Placement policies: how ensemble instances map onto fleet devices.

/// Placement policy for sharding an ensemble across devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Instance `i` → device `i mod M`. Cost-blind; the baseline every
    /// informed policy must beat on heterogeneous fleets.
    RoundRobin,
    /// In instance order, place each instance on the device whose load
    /// plus the instance's predicted time there is smallest (online
    /// list scheduling).
    Greedy,
    /// Longest-processing-time-first: sort instances by descending
    /// predicted time, then place greedily. The classic makespan
    /// 4/3-approximation; placing big instances first keeps them off
    /// already-loaded (or slow) devices.
    Lpt,
}

/// Unknown placement-policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementParseError(pub String);

impl std::fmt::Display for PlacementParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown placement '{}' (use round-robin, greedy or lpt)",
            self.0
        )
    }
}

impl std::error::Error for PlacementParseError {}

impl std::str::FromStr for Placement {
    type Err = PlacementParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "round-robin" | "rr" => Ok(Placement::RoundRobin),
            "greedy" => Ok(Placement::Greedy),
            "lpt" => Ok(Placement::Lpt),
            other => Err(PlacementParseError(other.to_string())),
        }
    }
}

impl Placement {
    pub fn name(self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::Greedy => "greedy",
            Placement::Lpt => "lpt",
        }
    }

    /// Every policy, for sweeps.
    pub fn all() -> [Placement; 3] {
        [Placement::RoundRobin, Placement::Greedy, Placement::Lpt]
    }

    /// Whether the policy consults the cost model (and therefore needs
    /// pilot runs).
    pub fn needs_costs(self) -> bool {
        !matches!(self, Placement::RoundRobin)
    }

    /// Assign `n` instances to `m` devices. `cost(i, d)` predicts the
    /// seconds instance `i` takes on device `d`; round-robin never calls
    /// it. Returns one instance list per device, each in ascending
    /// instance order (the order shards execute in).
    pub fn assign(self, n: u32, m: usize, cost: impl Fn(u32, usize) -> f64) -> Vec<Vec<u32>> {
        self.assign_mem_aware(n, m, cost, |_| 0, &[])
    }

    /// [`Placement::assign`] with memory-aware refusal: `peak(i)` is the
    /// pilot-measured peak heap footprint of instance `i` and `caps[d]`
    /// each device's heap capacity. The informed policies (`greedy`,
    /// `lpt`) refuse to place an instance on a device whose *summed
    /// placed peaks* would exceed its capacity, falling back to the
    /// least-loaded-by-memory device when nothing fits (that shard's
    /// round loop then sequences the overflow instead of OOMing).
    /// Round-robin stays cost- and memory-blind. An empty `caps` slice
    /// (or a zero capacity) disables the refusal entirely — the exact
    /// legacy assignment.
    pub fn assign_mem_aware(
        self,
        n: u32,
        m: usize,
        cost: impl Fn(u32, usize) -> f64,
        peak: impl Fn(u32) -> u64,
        caps: &[u64],
    ) -> Vec<Vec<u32>> {
        assert!(m >= 1, "placement needs at least one device");
        let mut shards: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut mem = vec![0u64; m];
        let cap_of = |d: usize| caps.get(d).copied().unwrap_or(0);
        // Pick the best device by `key`, skipping memory-full devices;
        // when every device is full, the one with the most free memory
        // takes the overflow.
        let place = |i: u32,
                     load: &mut [f64],
                     mem: &mut [u64],
                     shards: &mut [Vec<u32>],
                     cost: &dyn Fn(u32, usize) -> f64| {
            let p = peak(i);
            let fits = |d: usize, mem: &[u64]| {
                let cap = cap_of(d);
                cap == 0 || mem[d].saturating_add(p) <= cap
            };
            let d = argmin_where(load, |d, l| l + cost(i, d), |d| fits(d, mem))
                // Every device is memory-full: overflow onto the one
                // with the most free capacity (first wins ties), whose
                // round loop sequences the excess instead of OOMing.
                .unwrap_or_else(|| argmin(mem, |d, _| mem[d] as f64 - cap_of(d) as f64));
            load[d] += cost(i, d);
            mem[d] = mem[d].saturating_add(p);
            shards[d].push(i);
        };
        match self {
            Placement::RoundRobin => {
                for i in 0..n {
                    shards[i as usize % m].push(i);
                }
            }
            Placement::Greedy => {
                let mut load = vec![0.0f64; m];
                for i in 0..n {
                    place(i, &mut load, &mut mem, &mut shards, &cost);
                }
            }
            Placement::Lpt => {
                // Sort by descending predicted time on the fastest slot
                // (device 0 as the common yardstick); ties keep instance
                // order for determinism.
                let mut order: Vec<u32> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    cost(b, 0)
                        .partial_cmp(&cost(a, 0))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                let mut load = vec![0.0f64; m];
                for i in order {
                    place(i, &mut load, &mut mem, &mut shards, &cost);
                }
                for s in &mut shards {
                    s.sort_unstable();
                }
            }
        }
        shards
    }
}

/// Index minimizing `key(d, items[d])`; first wins ties (deterministic).
fn argmin<T: Copy>(items: &[T], key: impl Fn(usize, T) -> f64) -> usize {
    argmin_where(items, key, |_| true).expect("argmin over a non-empty slice")
}

/// [`argmin`] restricted to indices passing `ok`; `None` when none do.
fn argmin_where<T: Copy>(
    items: &[T],
    key: impl Fn(usize, T) -> f64,
    ok: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut best = None;
    let mut best_key = f64::INFINITY;
    for (d, &l) in items.iter().enumerate() {
        if !ok(d) {
            continue;
        }
        let k = key(d, l);
        if k < best_key || best.is_none() {
            best_key = k;
            best = Some(d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn names_round_trip() {
        for p in Placement::all() {
            assert_eq!(Placement::from_str(p.name()).unwrap(), p);
        }
        assert_eq!(Placement::from_str("rr").unwrap(), Placement::RoundRobin);
        assert!(Placement::from_str("optimal").is_err());
    }

    #[test]
    fn round_robin_ignores_costs() {
        let shards = Placement::RoundRobin.assign(5, 2, |_, _| panic!("cost-blind"));
        assert_eq!(shards, vec![vec![0, 2, 4], vec![1, 3]]);
    }

    #[test]
    fn greedy_balances_uniform_costs() {
        let shards = Placement::Greedy.assign(6, 3, |_, _| 1.0);
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![2, 2, 2]);
    }

    #[test]
    fn greedy_prefers_the_faster_device_for_expensive_work() {
        // Device 1 is 4× slower. One huge instance (id 0) and three small:
        // the huge one must land on device 0.
        let cost = |i: u32, d: usize| {
            let base = if i == 0 { 10.0 } else { 1.0 };
            base * if d == 1 { 4.0 } else { 1.0 }
        };
        let shards = Placement::Greedy.assign(4, 2, cost);
        assert!(shards[0].contains(&0), "{shards:?}");
    }

    #[test]
    fn lpt_places_the_big_instance_first() {
        // Big instance is id 3 — round-robin would put it on device 1;
        // LPT considers it first and keeps it on the fast device 0.
        let cost = |i: u32, d: usize| {
            let base = if i == 3 { 8.0 } else { 1.0 };
            base * if d == 1 { 3.0 } else { 1.0 }
        };
        let shards = Placement::Lpt.assign(4, 2, cost);
        assert!(shards[0].contains(&3), "{shards:?}");
        // Shards stay in ascending instance order.
        for s in &shards {
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{shards:?}");
        }
    }

    #[test]
    fn lpt_beats_round_robin_on_an_adversarial_mix() {
        // Two devices, equal speed. Costs 7,1,7,1: round-robin stacks the
        // two 7s on device 0 (makespan 14); LPT splits them (makespan 8).
        let cost = |i: u32, _: usize| if i.is_multiple_of(2) { 7.0 } else { 1.0 };
        let makespan = |shards: &[Vec<u32>]| -> f64 {
            shards
                .iter()
                .map(|s| s.iter().map(|&i| cost(i, 0)).sum::<f64>())
                .fold(0.0, f64::max)
        };
        let rr = makespan(&Placement::RoundRobin.assign(4, 2, cost));
        let lpt = makespan(&Placement::Lpt.assign(4, 2, cost));
        assert_eq!(rr, 14.0);
        assert_eq!(lpt, 8.0);
    }

    #[test]
    fn mem_aware_refuses_overfull_devices() {
        // Four instances of 6 units each onto two 12-unit devices with
        // uniform costs: plain greedy balances 2/2 anyway, but make
        // device 0 cheaper so cost-only greedy would stack all four
        // there — the memory cap forces an even split.
        let cost = |_: u32, d: usize| if d == 0 { 1.0 } else { 100.0 };
        let blind = Placement::Greedy.assign(4, 2, cost);
        assert_eq!(blind[0].len(), 4, "{blind:?}");
        let aware = Placement::Greedy.assign_mem_aware(4, 2, cost, |_| 6, &[12, 12]);
        assert_eq!(aware[0], vec![0, 1], "{aware:?}");
        assert_eq!(aware[1], vec![2, 3], "{aware:?}");
    }

    #[test]
    fn mem_aware_overflows_to_the_freest_device_when_nothing_fits() {
        // Three 10-unit instances, two 12-unit devices: the third fits
        // nowhere and lands on the device with the most free capacity.
        let shards = Placement::Lpt.assign_mem_aware(3, 2, |_, _| 1.0, |_| 10, &[12, 12]);
        let mut seen: Vec<u32> = shards.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        // Both devices hold at least one instance — no starvation.
        assert!(shards.iter().all(|s| !s.is_empty()), "{shards:?}");
    }

    #[test]
    fn empty_caps_keep_the_legacy_assignment_bit_identical() {
        let cost = |i: u32, d: usize| (i as f64 + 1.0) * (d as f64 + 1.0);
        for p in Placement::all() {
            let legacy = p.assign(9, 4, cost);
            let aware = p.assign_mem_aware(9, 4, cost, |_| u64::MAX, &[]);
            assert_eq!(legacy, aware, "{p:?}");
            let zero_caps = p.assign_mem_aware(9, 4, cost, |_| u64::MAX, &[0, 0, 0, 0]);
            assert_eq!(legacy, zero_caps, "{p:?}");
        }
    }

    #[test]
    fn every_instance_is_assigned_exactly_once() {
        for p in Placement::all() {
            let shards = p.assign(9, 4, |i, d| (i as f64 + 1.0) * (d as f64 + 1.0));
            let mut seen: Vec<u32> = shards.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..9).collect::<Vec<_>>(), "{p:?}");
        }
    }
}
