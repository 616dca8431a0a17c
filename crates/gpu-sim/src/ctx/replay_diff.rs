//! Differential test of memoized team replay: every launch runs twice on
//! fresh devices, once executing every team and once with replay classes,
//! and the two must agree on everything a caller can observe — the whole
//! `LaunchResult`, the heap's statistics, tag peaks and live regions, and
//! the host-call log. Random programs cover allocations, reservations and
//! frees, 1–8-byte accesses, shared memory, host calls through a small
//! test codec, partial warps and both allocator modes; one case per
//! exclusion rule checks that a team the rule excludes executes in full.

use super::{KernelError, LaneCtx, SharedBuf, TeamCtx};
use crate::{Gpu, InjectedTeamFault, KernelSpec, LaunchResult, TeamReplay};
use gpu_mem::{Backing, DeviceMemory, DevicePtr, HeapStats, RegionInfo};
use proptest::prelude::*;
use std::cell::RefCell;

/// Tag of the pre-existing region every team may read.
const GLOBAL_TAG: u32 = 1000;
/// Bytes of that region.
const GLOBAL_LEN: u64 = 2048;

/// Test codec: `[op][instance u32 LE][body]`.
const PRINT: u8 = 0;
/// Answered with an error (the program carries on).
const REFUSE: u8 = 1;
/// Answered from a counter every call advances: not relabelable.
const TICK: u8 = 2;

fn relabel(payload: &[u8], from: u32, to: u32) -> Option<Vec<u8>> {
    let issuer = u32::from_le_bytes(payload[1..5].try_into().unwrap());
    if payload[0] == TICK || issuer != from {
        return None;
    }
    let mut out = payload.to_vec();
    out[1..5].copy_from_slice(&to.to_le_bytes());
    Some(out)
}

fn call(lane: &mut LaneCtx<'_, '_>, op: u8, body: &[u8]) -> Result<Vec<u8>, KernelError> {
    let mut payload = vec![op];
    payload.extend_from_slice(&lane.rpc_instance().to_le_bytes());
    payload.extend_from_slice(body);
    lane.host_call(7, &payload)
}

/// splitmix64.
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

/// A team's live allocations: pointer, length, materialized.
type Live = Vec<(DevicePtr, u64, bool)>;

/// One random operation of lane `i`; frees only when `frees`.
fn random_op(
    lane: &mut LaneCtx<'_, '_>,
    r: &mut Rng,
    i: u64,
    frees: bool,
    live: &mut Live,
    sh: &SharedBuf<u32>,
    global: DevicePtr,
) -> Result<(), KernelError> {
    let materialized: Vec<(DevicePtr, u64)> = live
        .iter()
        .filter(|l| l.2)
        .map(|&(p, len, _)| (p, len))
        .collect();
    match r.below(20) {
        0..=7 if !materialized.is_empty() => {
            let (p, len) = materialized[r.below(materialized.len() as u64) as usize];
            let size = 1u64 << r.below(4);
            let off = if r.below(2) == 0 {
                (i % (len / size).max(1)) * size
            } else {
                r.below(len - size + 1)
            };
            let p = p.byte_add(off.min(len - size));
            let v = r.next();
            match (size, r.below(2) == 0) {
                (1, false) => lane.ld::<u8>(p).map(drop),
                (2, false) => lane.ld::<u16>(p).map(drop),
                (4, false) => lane.ld::<u32>(p).map(drop),
                (_, false) => lane.ld::<u64>(p).map(drop),
                (1, true) => lane.st::<u8>(p, v as u8),
                (2, true) => lane.st::<u16>(p, v as u16),
                (4, true) => lane.st::<u32>(p, v as u32),
                (_, true) => lane.atomic_add_u64(p, v).map(drop),
            }
        }
        8 | 9 => lane
            .ld::<u32>(global.byte_add(4 * ((i + r.below(64)) % (GLOBAL_LEN / 4))))
            .map(drop),
        10 | 11 => {
            let idx = (i + r.below(4)) as usize % sh.len();
            if r.below(2) == 0 {
                lane.sh_ld::<u32>(sh, idx).map(drop)
            } else {
                lane.sh_st::<u32>(sh, idx, i as u32)
            }
        }
        12 => {
            let len = 8 + r.below(1500);
            lane.dev_alloc(len).map(|p| live.push((p, len, true)))
        }
        13 => {
            let len = 1 + r.below(4096);
            lane.dev_reserve(len).map(|p| live.push((p, len, false)))
        }
        14 if frees && live.len() > 1 => {
            let (p, _, _) = live.swap_remove(r.below(live.len() as u64) as usize);
            lane.dev_free(p)
        }
        15 => call(lane, PRINT, &i.to_le_bytes()[..r.below(8) as usize]).map(drop),
        16 => {
            assert!(call(lane, REFUSE, b"").is_err());
            Ok(())
        }
        _ => {
            lane.work(r.below(10) as f64);
            Ok(())
        }
    }
}

/// The random program `seed`: serial sections and parallel loops of
/// random operations. It never faults and never reads its identity. Half
/// the programs never free, so that without free lists — where an
/// allocation after a free keeps a team out of replay — some replay too.
fn random_program(
    team: &mut TeamCtx<'_>,
    seed: u64,
    global: DevicePtr,
) -> Result<i32, KernelError> {
    let mut rng = Rng(seed);
    let frees = rng.below(2) == 0;
    let sh = team.shared_alloc::<u32>(8 + rng.below(64) as usize)?;
    let mut live: Live = Vec::new();
    for _ in 0..1 + rng.below(6) {
        let seed = rng.next();
        if rng.below(3) == 0 {
            team.serial("serial", |lane| {
                let mut r = Rng(seed);
                for _ in 0..r.below(40) {
                    random_op(lane, &mut r, 0, frees, &mut live, &sh, global)?;
                }
                Ok(())
            })?;
        } else {
            let trip = rng.below(160);
            team.parallel_for("parallel", trip, |i, lane| {
                let mut r = Rng(seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d));
                for _ in 0..r.below(6) {
                    random_op(lane, &mut r, i, frees, &mut live, &sh, global)?;
                }
                Ok(())
            })?;
        }
    }
    Ok((seed % 5) as i32)
}

/// A team body: the class's program, picked by the team's input slot.
type Body<'b> = &'b dyn Fn(&mut TeamCtx<'_>, u32, DevicePtr) -> Result<i32, KernelError>;

/// One launch's setup.
struct Case<'b> {
    lanes: u32,
    teams_per_block: u32,
    classes: Vec<u32>,
    free_lists: bool,
    /// Device heap capacity.
    capacity: u64,
    fault: Option<&'b dyn Fn(u32) -> Option<InjectedTeamFault>>,
    /// A tag that finds a 4 KiB block parked in its free-list ring.
    parked: Option<u32>,
    body: Body<'b>,
}

/// Everything observable after a launch.
#[derive(Debug, PartialEq)]
struct Observed {
    report: crate::SimReport,
    outcomes: Vec<crate::TeamOutcome>,
    summaries: Vec<crate::TeamSummary>,
    traces: Option<Vec<crate::BlockTrace>>,
    schedule: Option<crate::ScheduleDetail>,
    stalls: Option<crate::StallAttribution>,
    stats: HeapStats,
    tag_peaks: Vec<(u32, u64)>,
    live: Vec<RegionInfo>,
    host_calls: Vec<(u32, Vec<u8>)>,
}

/// Run `case` on a fresh device, with replay classes or without, and
/// return what was observed with the number of replayed teams.
fn launch(case: &Case<'_>, replay: bool) -> (Observed, u32) {
    let mut gpu = Gpu::a100();
    gpu.mem = DeviceMemory::new(case.capacity);
    // A heap with holes and a foreign region, as teams find it under
    // ensemble execution.
    let blocks: Vec<DevicePtr> = [700u64, 300, 5000, 256]
        .iter()
        .map(|&len| {
            gpu.mem
                .alloc_tagged(len, Backing::Materialized, GLOBAL_TAG)
                .unwrap()
        })
        .collect();
    let global = gpu
        .mem
        .alloc_tagged(GLOBAL_LEN, Backing::Materialized, GLOBAL_TAG)
        .unwrap();
    for i in 0..GLOBAL_LEN / 4 {
        gpu.mem
            .store::<u32>(global.byte_add(4 * i), i as u32 * 7)
            .unwrap();
    }
    gpu.mem.free(blocks[0]).unwrap();
    gpu.mem.free(blocks[2]).unwrap();
    gpu.mem.set_free_lists(case.free_lists);
    if let Some(tag) = case.parked {
        let p = gpu
            .mem
            .alloc_tagged(4096, Backing::Materialized, tag)
            .unwrap();
        gpu.mem.free(p).unwrap();
    }

    let teams = case.classes.len() as u32;
    let mut spec = KernelSpec::new("replay-diff", teams, case.lanes);
    spec.teams_per_block = case.teams_per_block;
    spec.keep_traces = true;
    spec.collect_detail = true;
    spec.collect_stalls = true;
    spec.fault_of_team = case.fault;
    if replay {
        spec.replay = Some(TeamReplay {
            class_of_team: &case.classes,
            relabel: &relabel,
        });
    }
    let log = RefCell::new(Vec::new());
    let mut tick = 0u64;
    let mut hook = |service: u32, payload: &[u8]| -> Result<Vec<u8>, String> {
        log.borrow_mut().push((service, payload.to_vec()));
        match payload[0] {
            PRINT => Ok((payload.len() as u64).to_le_bytes().to_vec()),
            REFUSE => Err("refused".into()),
            _ => {
                tick += 1;
                Ok(tick.to_le_bytes().to_vec())
            }
        }
    };
    let res: LaunchResult = gpu
        .launch(&spec, Some(&mut hook), |team| {
            let class = case.classes[team.input_slot() as usize];
            (case.body)(team, class, global)
        })
        .unwrap();
    let observed = Observed {
        report: res.report,
        outcomes: res.team_outcomes,
        summaries: res.team_summaries,
        traces: res.block_traces,
        schedule: res.schedule,
        stalls: res.stalls,
        stats: gpu.mem.stats(),
        tag_peaks: gpu.mem.tag_peaks().collect(),
        live: gpu.mem.live_regions(),
        host_calls: log.into_inner(),
    };
    (observed, res.replayed_teams)
}

/// Run `case` both ways, require identical observations, and return how
/// many teams replayed.
fn differential(case: &Case<'_>) -> u32 {
    let (plain, none) = launch(case, false);
    assert_eq!(none, 0, "no replay classes, no replay");
    let (replayed, n) = launch(case, true);
    assert_eq!(plain, replayed);
    n
}

fn case<'b>(classes: &[u32], body: Body<'b>) -> Case<'b> {
    Case {
        lanes: 33,
        teams_per_block: 1,
        classes: classes.to_vec(),
        free_lists: true,
        capacity: 1 << 26,
        fault: None,
        parked: None,
        body,
    }
}

/// Class `c` runs random program `100 + c`.
fn random_class(team: &mut TeamCtx<'_>, class: u32, global: DevicePtr) -> Result<i32, KernelError> {
    random_program(team, 100 + class as u64, global)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replay is invisible: any programs, any class layout, either
    /// allocator mode, partial warps and packed blocks included.
    #[test]
    fn replay_matches_full_execution(
        seed in any::<u64>(),
        teams in 2u32..=8,
        class_count in 2u32..=4,
        lanes in prop::sample::select(vec![1u32, 5, 32, 33, 64]),
        packed in any::<bool>(),
        free_lists in any::<bool>(),
    ) {
        let mut r = Rng(seed);
        let classes: Vec<u32> = (0..teams).map(|_| r.below(class_count as u64) as u32).collect();
        let seeds: Vec<u64> = (0..class_count).map(|_| r.next()).collect();
        let body = |team: &mut TeamCtx<'_>, class: u32, global: DevicePtr| -> Result<i32, KernelError> {
            random_program(team, seeds[class as usize], global)
        };
        let case = Case {
            lanes,
            teams_per_block: if packed { 2 } else { 1 },
            classes,
            free_lists,
            capacity: 1 << 26,
            fault: None,
            parked: None,
            body: &body,
        };
        let replayed = differential(&case);
        prop_assert!(replayed < teams);
    }
}

#[test]
fn siblings_replay_in_both_allocator_modes() {
    // Programs 101 and 105 never reallocate after a free, so their
    // siblings replay without free lists too; 102 runs alone.
    for free_lists in [false, true] {
        let mut c = case(&[1, 5, 1, 1, 5, 2], &random_class);
        c.free_lists = free_lists;
        assert_eq!(differential(&c), 3, "free_lists {free_lists}");
    }
}

/// A leader that does the full range of replayable effects.
fn effects(team: &mut TeamCtx<'_>, _class: u32, global: DevicePtr) -> Result<i32, KernelError> {
    let p = team.serial("setup", |lane| {
        let p = lane.dev_alloc(4096)?;
        lane.dev_reserve(1 << 20)?;
        let tmp = lane.dev_alloc(512)?;
        lane.st::<u64>(tmp, 9)?;
        lane.dev_free(tmp)?;
        call(lane, PRINT, b"hello")?;
        assert!(call(lane, REFUSE, b"").is_err());
        Ok(p)
    })?;
    team.parallel_for("fill", 512, |i, lane| {
        let g = lane.ld::<u32>(global.byte_add(4 * (i % 64)))?;
        lane.st::<u64>(p.byte_add(8 * i), g as u64 + i)
    })?;
    team.serial("again", |lane| {
        // Same size class as the freed block: a free-list hit.
        let q = lane.dev_alloc(500)?;
        lane.st::<u32>(q, 1)?;
        call(lane, PRINT, b"bye")?;
        Ok(())
    })?;
    Ok(3)
}

#[test]
fn every_sibling_of_a_clean_leader_replays() {
    assert_eq!(differential(&case(&[0, 0, 0, 0], &effects)), 3);
    assert_eq!(differential(&case(&[0, 1, 0, 1, 0], &effects)), 3);
    // A class of one records nothing.
    assert_eq!(differential(&case(&[0, 1, 2], &effects)), 0);
}

// ---- One case per exclusion rule: the excluded team executes. ----

#[test]
fn leader_that_traps_is_not_replayed() {
    let body = |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
        team.serial("alloc", |lane| lane.dev_alloc(64).map(drop))?;
        Err(KernelError::App("boom".into()))
    };
    assert_eq!(differential(&case(&[0, 0, 0], &body)), 0);
}

#[test]
fn leader_that_reads_its_identity_is_not_replayed() {
    let by_team_id = |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
        let _ = team.team_id();
        Ok(0)
    };
    let by_default_tag =
        |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
            let _ = team.default_tag();
            Ok(0)
        };
    let by_lane_tag = |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
        team.serial("tag", |lane| {
            let _ = lane.tag();
            Ok(())
        })?;
        Ok(0)
    };
    let by_loader = |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
        team.mark_identity_read();
        Ok(0)
    };
    for body in [
        &by_team_id as Body<'_>,
        &by_default_tag,
        &by_lane_tag,
        &by_loader,
    ] {
        assert_eq!(differential(&case(&[0, 0, 0], body)), 0);
    }
}

#[test]
fn leader_that_writes_a_foreign_region_is_not_replayed() {
    let store = |team: &mut TeamCtx<'_>, _: u32, global: DevicePtr| -> Result<i32, KernelError> {
        team.serial("store", |lane| lane.st::<u32>(global, 5))?;
        Ok(0)
    };
    let atomic = |team: &mut TeamCtx<'_>, _: u32, global: DevicePtr| -> Result<i32, KernelError> {
        team.serial("atomic", |lane| lane.atomic_add_u64(global, 1).map(drop))?;
        Ok(0)
    };
    let free = |team: &mut TeamCtx<'_>, _: u32, global: DevicePtr| -> Result<i32, KernelError> {
        // Only the first team frees: its siblings find nothing to free.
        team.serial("free", |lane| {
            if lane.ld::<u32>(global.byte_add(4)).is_ok() {
                lane.dev_free(global)?;
            }
            Ok(())
        })?;
        Ok(0)
    };
    for body in [&store as Body<'_>, &atomic] {
        assert_eq!(differential(&case(&[0, 0, 0], body)), 0);
    }
    assert_eq!(differential(&case(&[0, 0], &free)), 0);
}

#[test]
fn leader_with_a_stateful_host_call_is_not_replayed() {
    let body = |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
        team.serial("tick", |lane| call(lane, TICK, b"").map(drop))?;
        Ok(0)
    };
    assert_eq!(differential(&case(&[0, 0, 0], &body)), 0);
}

#[test]
fn leader_that_hits_out_of_memory_is_not_replayed() {
    let body = |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
        team.serial("try", |lane| {
            assert!(lane.dev_alloc(1 << 30).is_err());
            lane.dev_alloc(256).map(drop)
        })?;
        Ok(0)
    };
    assert_eq!(differential(&case(&[0, 0, 0], &body)), 0);
}

#[test]
fn leader_that_flushes_free_list_rings_is_not_replayed() {
    // 64 KiB heap: the second big block fits only once the parked one
    // returns to the global list.
    let body = |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
        team.serial("churn", |lane| {
            let a = lane.dev_alloc(24 << 10)?;
            lane.dev_free(a)?;
            lane.dev_alloc(40 << 10).map(drop)
        })?;
        Ok(0)
    };
    let mut c = case(&[0, 0], &body);
    c.capacity = 64 << 10;
    let (plain, _) = launch(&c, false);
    assert_eq!(plain.stats.cache_flushes, 1);
    assert_eq!(differential(&c), 0);
}

#[test]
fn leader_that_spills_a_free_list_ring_is_not_replayed() {
    let body = |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
        team.serial("spill", |lane| {
            let blocks = (0..9)
                .map(|_| lane.dev_alloc(256))
                .collect::<Result<Vec<_>, _>>()?;
            blocks.into_iter().try_for_each(|p| lane.dev_free(p))
        })?;
        Ok(0)
    };
    assert_eq!(differential(&case(&[0, 0, 0], &body)), 0);
}

#[test]
fn first_fit_reallocation_after_a_free_is_replayed_only_with_free_lists() {
    let body = |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
        team.serial("realloc", |lane| {
            let a = lane.dev_alloc(1000)?;
            lane.st::<u8>(a, 1)?;
            lane.dev_free(a)?;
            let b = lane.dev_alloc(600)?;
            lane.st::<u8>(b, 2)
        })?;
        Ok(0)
    };
    let mut c = case(&[0, 0, 0], &body);
    c.free_lists = false;
    assert_eq!(differential(&c), 0);
    c.free_lists = true;
    assert_eq!(differential(&c), 2);
}

#[test]
fn sibling_with_an_injected_fault_executes() {
    let fault = |team: u32| match team {
        1 => Some(InjectedTeamFault::Trap("planted".into())),
        2 => Some(InjectedTeamFault::Hang {
            stall_cycles: 5000.0,
        }),
        _ => None,
    };
    let mut c = case(&[0, 0, 0, 0], &effects);
    c.fault = Some(&fault);
    // Teams 1 and 2 carry faults; team 3 still replays team 0.
    assert_eq!(differential(&c), 1);
}

#[test]
fn sibling_without_a_large_enough_hole_executes() {
    // Each team reserves 40% of the heap: the third cannot fit and runs
    // out of memory, as it would executing.
    let body = |team: &mut TeamCtx<'_>, _: u32, _: DevicePtr| -> Result<i32, KernelError> {
        team.serial("reserve", |lane| lane.dev_reserve(400 << 10).map(drop))?;
        Ok(0)
    };
    let mut c = case(&[0, 0, 0], &body);
    c.capacity = 1 << 20;
    let (plain, _) = launch(&c, false);
    assert!(matches!(plain.outcomes[2], crate::TeamOutcome::Trap(_)));
    assert_eq!(differential(&c), 1);
}

#[test]
fn sibling_after_a_foreign_write_executes() {
    // Class 0 reads the foreign region; class 1 (one team) writes it.
    let body =
        |team: &mut TeamCtx<'_>, class: u32, global: DevicePtr| -> Result<i32, KernelError> {
            team.serial("touch", |lane| {
                let v = lane.ld::<u32>(global)?;
                if class == 1 {
                    lane.st::<u32>(global, v + 1)?;
                }
                lane.dev_alloc(64).map(drop)
            })?;
            Ok(0)
        };
    assert_eq!(differential(&case(&[0, 1, 0], &body)), 0);
    assert_eq!(differential(&case(&[0, 0, 1], &body)), 1);
}

#[test]
fn sibling_whose_tag_is_not_vacant_executes() {
    // Team 2's ring already holds a block of the leader's first size
    // class, so executing it takes a free-list hit the leader did not.
    let mut c = case(&[0, 0, 0], &effects);
    c.parked = Some(2);
    assert_eq!(differential(&c), 1);
    // A first member whose tag is not vacant executes without recording,
    // and the next member leads instead.
    c.parked = Some(0);
    assert_eq!(differential(&c), 1);
}
