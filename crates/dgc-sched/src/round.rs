//! The round loop: the one ensemble driver.
//!
//! Every run — the paper's single launch, batching past the §4.3 memory
//! wall, per-instance recovery, sharding across a fleet — is a
//! [`RunPlan`] over the same loop. Each round:
//!
//! 1. places the pending instances over the live devices;
//! 2. runs each device's shard as capacity-capped chunks of
//!    [`run_ensemble_injected`] — one scoped thread per device on a
//!    fleet, so device lanes run in parallel;
//! 3. merges the results in device order, then applies the recovery
//!    rules: retry, OOM split, backoff (optionally jittered), fail-fast
//!    and device death.
//!
//! Accounting, one rule per field:
//!
//! * `total_time_s` is the makespan. A device lane accumulates its
//!   chunks' `total_s`; a round costs its slowest lane, plus the backoff
//!   before it. On a one-device fleet the lane *is* the run's running
//!   accumulator; fleet lanes fold from zero and the round adds the
//!   slowest — exactly the association `SpanGraph::replay_makespan_s`
//!   replays.
//! * `kernel_time_s` follows the same rule over kernel time: the slowest
//!   lane's kernel sum per round, summed over rounds.
//! * Instance end times live on that kernel-time axis: offset by the
//!   kernel time accumulated before their chunk.
//! * `report` is the last kernel report of the round's slowest lane
//!   (first device wins ties), taken from the last round that launched.
//! * The launch rollup is named `app-x<N>` after the whole ensemble.

use crate::cost::{mem_cap_take, InstanceCosts};
use crate::place::Placement;
use crate::plan::{FaultSource, RecoveryPolicy, RecoveryStats, RunPlan};
use dgc_core::{
    ensure_arg_capacity, run_ensemble_injected, EnsembleError, EnsembleOptions, EnsembleResult,
    HeapUsage, HostApp, InstanceOutcome, LaunchFaults,
};
use dgc_obs::{
    DeviceStamped, InstanceMetrics, LaunchMetrics, LaunchTimeline, MonitorSink, Recorder,
    SpanGraph, Value, DEVICE_PID_STRIDE, PID_HOST,
};
use gpu_sim::{DeviceFleet, Gpu, InjectedTeamFault, SimReport};
use host_rpc::{HostServices, RpcStats};
use std::sync::Arc;

/// Result of a run: the merged ensemble result (final outcome per
/// instance, in global instance order), the recovery story and the
/// fleet's fate.
#[derive(Debug)]
pub struct RunResult {
    pub ensemble: EnsembleResult,
    pub recovery: RecoveryStats,
    /// Instance ids per device, as the first round placed them.
    pub assignment: Vec<Vec<u32>>,
    /// Busy time per device — its launches' `total_s`, summed over
    /// rounds (backoff waits excluded), seconds.
    pub per_device_time_s: Vec<f64>,
    /// Devices that died during the run, in death order.
    pub dead_devices: Vec<u32>,
    /// Launch-sequence name for the metrics rollup (`app-x<N>`).
    kernel: String,
}

impl RunResult {
    /// Launch rollup with the recovery (schema v3) and multi-device
    /// (schema v4) fields filled in. `failed`/`oom` count failures
    /// cumulatively across attempts; `unrecovered` is what survived.
    pub fn launch_metrics(&self) -> LaunchMetrics {
        let mut lm = self.ensemble.launch_metrics();
        lm.kernel = self.kernel.clone();
        lm.devices = self.per_device_time_s.len() as u32;
        lm.failed = self.recovery.failures;
        lm.oom = self.recovery.oom_failures;
        lm.attempts = self.recovery.attempts;
        lm.retried = self.recovery.retried;
        lm.recovered = self.recovery.recovered;
        lm.unrecovered = self.recovery.unrecovered;
        lm.oom_splits = self.recovery.oom_splits;
        lm.final_batch = self.recovery.final_batch;
        lm.backoff_s = self.recovery.backoff_s;
        lm
    }
}

/// Shard an ensemble across the fleet with the plain (single-attempt,
/// fault-free) plan: `batch` bounds each launch (`0` = unbounded),
/// `placement` spreads instances, `mem_aware` turns on memory-aware
/// packing.
///
/// Kept with this exact signature because the repository benchmark
/// (`perfbench`, `hetero_sharded` workload) calls it; everything else
/// builds a [`RunPlan`] for [`run_ensemble_plan`] directly.
#[allow(clippy::too_many_arguments)]
pub fn run_ensemble_sharded_mem_aware(
    fleet: &mut DeviceFleet,
    app: &HostApp,
    arg_lines: &[Vec<String>],
    opts: &EnsembleOptions,
    batch: u32,
    placement: Placement,
    obs: &mut Recorder,
    mem_aware: bool,
) -> Result<RunResult, EnsembleError> {
    let plan = RunPlan {
        batch: (batch > 0).then_some(batch),
        placement,
        mem_aware,
        ..RunPlan::default()
    };
    run_ensemble_plan(fleet, app, arg_lines, opts, plan, obs)
}

/// Where a device lane's launches sit in simulated time: a launch starts
/// at `origin + lane`, and the lane advances by each launch. A
/// one-device run keeps one running accumulator (`origin` 0, the lane
/// starting at the elapsed time); fleet lanes fold from zero on top of
/// the round's start.
#[derive(Clone, Copy)]
struct Clock {
    origin: f64,
    lane: f64,
}

impl Clock {
    fn for_round(elapsed: f64, concurrent: bool) -> Self {
        if concurrent {
            Clock {
                origin: elapsed,
                lane: 0.0,
            }
        } else {
            Clock {
                origin: 0.0,
                lane: elapsed,
            }
        }
    }
}

/// What every lane of one round shares.
struct RoundCtx<'a> {
    app: &'a HostApp,
    /// One argument line per global instance (cycling resolved).
    lines: &'a [Vec<String>],
    opts: &'a EnsembleOptions,
    faults: Option<&'a dyn FaultSource>,
    policy: &'a RecoveryPolicy,
    /// Pilot peaks capping each launch at device capacity
    /// (memory-aware runs only).
    mem_caps: Option<&'a InstanceCosts>,
    attempt: u32,
    batch: u32,
    base_us: f64,
    wall: Clock,
    kernel: Clock,
}

/// One launch of a lane, with where it started on both time axes.
struct Chunk {
    ids: Vec<u32>,
    res: EnsembleResult,
    start_s: f64,
    kernel_start_s: f64,
}

/// How a lane ended its round.
struct LaneEnd {
    /// Lane clocks after its last launch.
    wall: f64,
    kernel: f64,
    /// Sum of the lane's launch times (its device's busy time).
    busy: f64,
    /// Fail-fast stopped the lane early.
    aborted: bool,
    /// The shard's instances it never launched (empty unless aborted).
    unrun: Vec<u32>,
}

/// Run one device's shard for one round as chunks of at most `batch`
/// instances, each further capped by device capacity in memory-aware
/// mode. Every finished launch goes to `on_chunk` in order.
fn run_lane(
    cx: &RoundCtx<'_>,
    gpu: &mut Gpu,
    shard: &[u32],
    rec: &mut Recorder,
    on_chunk: &mut dyn FnMut(Chunk),
) -> Result<LaneEnd, EnsembleError> {
    let capacity = gpu.mem.capacity();
    let (mut wall, mut kernel, mut busy) = (cx.wall.lane, cx.kernel.lane, 0.0f64);
    let mut qi = 0usize;
    let mut aborted = false;
    while qi < shard.len() && !aborted {
        let want = (cx.batch as usize).min(shard.len() - qi);
        let take = match cx.mem_caps {
            Some(costs) => {
                let peaks: Vec<u64> = shard[qi..qi + want]
                    .iter()
                    .map(|&g| costs.peak_mem_bytes(g))
                    .collect();
                mem_cap_take(&peaks, capacity, want)
            }
            None => want,
        };
        let ids = shard[qi..qi + take].to_vec();
        qi += take;
        let count = ids.len() as u32;
        let lines: Vec<Vec<String>> = ids.iter().map(|&g| cx.lines[g as usize].clone()).collect();
        let opts = EnsembleOptions {
            num_instances: count,
            ..cx.opts.clone()
        };
        let team_fault = |team: u32| {
            cx.faults
                .and_then(|f| f.fault_for(ids[team as usize], cx.attempt, count))
        };
        let faults = LaunchFaults {
            team_fault: cx
                .faults
                .map(|_| &team_fault as &dyn Fn(u32) -> Option<InjectedTeamFault>),
            rpc_fault: cx.faults.and_then(|f| f.rpc_hook(cx.attempt, &ids)),
            cycle_budget: cx.policy.instance_cycle_budget,
        };
        let start_s = cx.wall.origin + wall;
        let kernel_start_s = cx.kernel.origin + kernel;
        rec.set_base_us(cx.base_us + start_s * 1e6);
        let res = run_ensemble_injected(
            gpu,
            cx.app,
            &lines,
            &opts,
            HostServices::default(),
            rec,
            faults,
        )?;
        wall += res.total_time_s;
        kernel += res.kernel_time_s;
        busy += res.total_time_s;

        let failed: Vec<u32> = ids
            .iter()
            .zip(&res.instances)
            .filter(|(_, o)| o.error.is_some())
            .map(|(&g, _)| g)
            .collect();
        // Recovery markers only when something actually failed, so a
        // clean run's trace is the plain launch sequence's.
        if !failed.is_empty() && rec.is_enabled() {
            rec.set_base_us(cx.base_us);
            for &g in &failed {
                rec.instant_args(
                    PID_HOST,
                    0,
                    &format!("instance {g} failed"),
                    "recovery",
                    (cx.wall.origin + wall) * 1e6,
                    vec![("attempt".into(), Value::U64(u64::from(cx.attempt)))],
                );
            }
        }
        // Fail-fast: an instance out of attempts stops this lane. Other
        // lanes finish their round (they run in parallel; stopping them
        // mid-flight would make the outcome timing-dependent).
        aborted =
            cx.policy.fail_fast && !failed.is_empty() && cx.attempt + 1 >= cx.policy.max_attempts;
        on_chunk(Chunk {
            ids,
            res,
            start_s,
            kernel_start_s,
        });
    }
    Ok(LaneEnd {
        wall,
        kernel,
        busy,
        aborted,
        unrun: shard[qi..].to_vec(),
    })
}

/// Per-instance final state and the run-wide rollups, folded one launch
/// at a time in device order.
struct Tally<'p> {
    n: u32,
    outcome: Vec<Option<InstanceOutcome>>,
    stdout: Vec<String>,
    end_s: Vec<f64>,
    metrics: Vec<Option<InstanceMetrics>>,
    failed_once: Vec<bool>,
    retried: Vec<bool>,
    stats: RecoveryStats,
    rpc: RpcStats,
    timeline: LaunchTimeline,
    graph: SpanGraph,
    heap: HeapUsage,
    /// Instances to re-launch next round.
    next_pending: Vec<u32>,
    round_oom: bool,
    /// Instances whose outcome is final (the progress numerator).
    finished: u32,
    monitor: Option<Arc<dyn MonitorSink>>,
    progress: Option<&'p mut dyn FnMut(u32, u32)>,
}

impl Tally<'_> {
    /// Fold one launch of round `attempt` on `device`; returns its report.
    fn absorb(
        &mut self,
        chunk: Chunk,
        device: u32,
        concurrent: bool,
        attempt: u32,
        policy: &RecoveryPolicy,
    ) -> SimReport {
        let Chunk {
            ids,
            res,
            start_s,
            kernel_start_s,
        } = chunk;
        for (li, &g) in ids.iter().enumerate() {
            self.end_s[g as usize] = kernel_start_s + res.instance_end_times_s[li];
        }
        for (li, mut m) in res.metrics.into_iter().enumerate() {
            m.instance = ids[li];
            m.end_time_s += kernel_start_s;
            m.attempt = attempt;
            m.device = device;
            self.metrics[ids[li] as usize] = Some(m);
        }
        for (li, out) in res.instances.into_iter().enumerate() {
            let g = ids[li] as usize;
            let failed = !out.succeeded();
            if failed {
                self.stats.failures += 1;
                self.failed_once[g] = true;
            }
            if out.oom {
                self.stats.oom_failures += 1;
                self.round_oom = true;
            }
            if out.timed_out {
                self.stats.timeouts += 1;
            }
            if !failed && self.failed_once[g] {
                self.stats.recovered += 1;
                if let Some(m) = &self.monitor {
                    m.instance_recovered(device);
                }
            }
            // A trap is a fault worth retrying; a non-zero exit is a
            // deterministic application result.
            if out.error.is_some() && attempt + 1 < policy.max_attempts {
                self.next_pending.push(ids[li]);
                self.retried[g] = true;
                if let Some(m) = &self.monitor {
                    m.retry_scheduled(device);
                }
            } else {
                self.finished += 1;
            }
            self.outcome[g] = Some(out);
        }
        for (li, s) in res.stdout.into_iter().enumerate() {
            self.stdout[ids[li] as usize] = s;
        }
        // The launch's utilization series and span-graph nodes land at
        // its start on the wall-time axis, stamped with round and device
        // and renumbered to global instance ids.
        let mut timeline = res.timeline;
        timeline.shift_us(start_s * 1e6);
        timeline.set_device(device);
        self.timeline.merge(timeline);
        let mut graph = res.graph;
        graph.stamp_round(attempt);
        graph.stamp_device(device, concurrent);
        graph.shift_start_s(start_s);
        graph.remap_instances(&ids);
        self.graph.merge(graph);
        self.rpc.merge(&res.rpc_stats);
        let peak = res.heap.peak_bytes.iter().copied().max().unwrap_or(0);
        let slot = &mut self.heap.peak_bytes[device as usize];
        *slot = (*slot).max(peak);
        self.heap.fragmentation = self.heap.fragmentation.max(res.heap.fragmentation);
        self.heap.alloc_fallbacks += res.heap.alloc_fallbacks;
        if let Some(progress) = self.progress.as_mut() {
            progress(self.finished, self.n);
        }
        res.report
    }

    /// Give `g` a final failed outcome without (re-)launching it. Metrics
    /// from an earlier attempt are kept; otherwise a placeholder.
    fn settle(&mut self, g: u32, error: String, end_s: f64) {
        self.outcome[g as usize] = Some(InstanceOutcome {
            exit_code: None,
            error: Some(error),
            oom: false,
            timed_out: false,
        });
        self.end_s[g as usize] = end_s;
        self.metrics[g as usize].get_or_insert_with(|| InstanceMetrics {
            instance: g,
            trapped: true,
            end_time_s: end_s,
            ..InstanceMetrics::default()
        });
    }
}

/// A lane that ran this round: its end state, its launches not yet
/// folded (fleet lanes fold after the join), its private recorder
/// (fleet lanes) and the report of its last folded launch.
struct LaneRun {
    end: LaneEnd,
    chunks: Vec<Chunk>,
    rec: Option<Recorder>,
    report: Option<SimReport>,
}

/// Run an ensemble as `plan` says, on `fleet`.
///
/// The plan is validated first; a bad value is an
/// [`EnsembleError::InvalidPlan`], never a panic or a silent coercion.
/// Pilot runs ([`InstanceCosts::estimate`], one per distinct argument
/// line, on device 0's spec) happen once per run, and only when the
/// placement needs costs on two or more devices or the run is
/// memory-aware.
///
/// On a one-device fleet launches record straight into `obs`, so the
/// trace is the plain launch sequence's. On a fleet each device lane
/// records into its own recorder, merged into `obs` one lane group per
/// device ([`DEVICE_PID_STRIDE`], process names prefixed `dev<d> `).
pub fn run_ensemble_plan(
    fleet: &mut DeviceFleet,
    app: &HostApp,
    arg_lines: &[Vec<String>],
    opts: &EnsembleOptions,
    plan: RunPlan<'_>,
    obs: &mut Recorder,
) -> Result<RunResult, EnsembleError> {
    let n = opts.num_instances;
    plan.validate(n, fleet.len())
        .map_err(EnsembleError::InvalidPlan)?;
    ensure_arg_capacity(arg_lines, n, opts.cycle_args)?;
    let RunPlan {
        batch,
        placement,
        faults,
        recovery: policy,
        mem_aware,
        progress,
    } = plan;
    let m = fleet.len();
    let concurrent = m > 1;
    if mem_aware {
        for gpu in fleet.iter_mut() {
            gpu.mem.set_free_lists(true);
        }
    }
    // Resolve cycling up front: line `i` belongs to instance `i` no
    // matter which device or round it lands in.
    let lines_of: Vec<Vec<String>> = (0..n)
        .map(|i| arg_lines[i as usize % arg_lines.len()].clone())
        .collect();
    let costs = if mem_aware || (concurrent && placement.needs_costs()) {
        Some(InstanceCosts::estimate(
            app,
            &lines_of,
            opts,
            fleet.spec(0),
        )?)
    } else {
        None
    };
    let caps: Vec<u64> = if mem_aware {
        (0..m).map(|d| fleet.gpu(d).mem.capacity()).collect()
    } else {
        Vec::new()
    };

    let monitor = obs.monitor().cloned();
    let base_us = obs.base_us();
    let traced = obs.is_enabled();
    let mut tally = Tally {
        n,
        outcome: vec![None; n as usize],
        stdout: vec![String::new(); n as usize],
        end_s: vec![0.0; n as usize],
        metrics: vec![None; n as usize],
        failed_once: vec![false; n as usize],
        retried: vec![false; n as usize],
        stats: RecoveryStats::default(),
        rpc: RpcStats::default(),
        timeline: LaunchTimeline::default(),
        graph: SpanGraph::default(),
        heap: HeapUsage {
            peak_bytes: vec![0; m],
            ..HeapUsage::default()
        },
        next_pending: Vec::new(),
        round_oom: false,
        finished: 0,
        monitor: monitor.clone(),
        progress,
    };
    let mut current_batch = batch.map_or(n, |b| b.min(n));
    let mut kernel_time_s = 0.0f64;
    let mut total_time_s = 0.0f64;
    let mut per_device_time_s = vec![0.0f64; m];
    let mut dead_devices: Vec<u32> = Vec::new();
    let mut assignment: Vec<Vec<u32>> = Vec::new();
    let mut report: Option<SimReport> = None;
    let mut pending: Vec<u32> = (0..n).collect();
    let mut attempt = 0u32;

    while !pending.is_empty() {
        tally.stats.attempts = attempt + 1;
        if attempt > 0 {
            let wait = policy.round_wait_s(attempt, &pending);
            total_time_s += wait;
            tally.stats.backoff_s += wait;
            if let Some(m) = &monitor {
                m.backoff_wait(wait);
            }
            tally.graph.push_backoff(attempt, wait);
            obs.set_base_us(base_us);
            obs.instant_args(
                PID_HOST,
                0,
                &format!("retry round {attempt}"),
                "recovery",
                total_time_s * 1e6,
                vec![
                    ("instances".into(), Value::U64(pending.len() as u64)),
                    ("backoff_s".into(), Value::F64(wait)),
                ],
            );
        }

        // ---- 1. Placement over the live devices. ----
        // Devices that died in an earlier round are out of the draw; one
        // that dies *this* round still gets placed — the death is
        // discovered mid-round, like real hardware.
        let live: Vec<usize> = (0..m)
            .filter(|&d| !faults.is_some_and(|f| f.device_dead_before(d as u32, attempt)))
            .collect();
        if live.is_empty() {
            for &g in &pending {
                tally.settle(g, "no live devices left in the fleet".into(), kernel_time_s);
            }
            break;
        }
        // Memory caps bind only in memory-aware mode; an empty slice
        // keeps the legacy assignment.
        let caps_live: Vec<u64> = live.iter().filter_map(|&d| caps.get(d).copied()).collect();
        let shards: Vec<Vec<u32>> = {
            let pend = &pending;
            let local = match &costs {
                Some(c) => placement.assign_mem_aware(
                    pend.len() as u32,
                    live.len(),
                    |j, k| c.cost_on(pend[j as usize], fleet.spec(live[k])),
                    |j| c.peak_mem_bytes(pend[j as usize]),
                    &caps_live,
                ),
                None => placement.assign(pend.len() as u32, live.len(), |_, _| 0.0),
            };
            local
                .into_iter()
                .map(|s| s.into_iter().map(|j| pend[j as usize]).collect())
                .collect()
        };
        if attempt == 0 {
            // Nothing is dead before the first round: one shard per device.
            assignment = shards.clone();
        }
        let dies: Vec<bool> = live
            .iter()
            .map(|&d| faults.is_some_and(|f| f.device_dies_at(d as u32, attempt)))
            .collect();

        // ---- 2. Run each device's shard. ----
        let cx = RoundCtx {
            app,
            lines: &lines_of,
            opts,
            faults,
            policy: &policy,
            mem_caps: costs.as_ref().filter(|_| mem_aware),
            attempt,
            batch: current_batch,
            base_us,
            wall: Clock::for_round(total_time_s, concurrent),
            kernel: Clock::for_round(kernel_time_s, concurrent),
        };
        let runs_lane = |k: usize| !dies[k] && !shards[k].is_empty();
        let runs: Vec<Option<LaneRun>> = if concurrent {
            let joined: Vec<Option<Result<LaneRun, EnsembleError>>> = std::thread::scope(|s| {
                let cx = &cx;
                let mut gpus: Vec<Option<&mut Gpu>> = fleet.iter_mut().map(Some).collect();
                let handles: Vec<_> = live
                    .iter()
                    .enumerate()
                    .map(|(k, &d)| {
                        let gpu = gpus[d].take().expect("each device runs one lane");
                        if !runs_lane(k) {
                            return None;
                        }
                        let shard = &shards[k];
                        let lane_monitor = monitor.clone();
                        Some(s.spawn(move || {
                            let mut rec = if traced {
                                Recorder::enabled()
                            } else {
                                Recorder::disabled()
                            };
                            if let Some(m) = lane_monitor {
                                rec.set_monitor(DeviceStamped::stamp(m, d as u32));
                            }
                            let mut chunks = Vec::new();
                            let end = run_lane(cx, gpu, shard, &mut rec, &mut |c| chunks.push(c))?;
                            Ok(LaneRun {
                                end,
                                chunks,
                                rec: Some(rec),
                                report: None,
                            })
                        }))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.map(|h| h.join().expect("device lane thread panicked")))
                    .collect()
            });
            joined
                .into_iter()
                .map(Option::transpose)
                .collect::<Result<_, _>>()?
        } else if runs_lane(0) {
            // One device: fold each launch as it lands, so progress is
            // live and events record straight into the caller's trace.
            let mut last = None;
            let end = run_lane(&cx, fleet.gpu_mut(0), &shards[0], obs, &mut |c| {
                last = Some(tally.absorb(c, 0, false, attempt, &policy));
            })?;
            vec![Some(LaneRun {
                end,
                chunks: Vec::new(),
                rec: None,
                report: last,
            })]
        } else {
            vec![None]
        };

        // ---- 3. Merge in device order, then recover. ----
        let (round_start_s, round_kernel_start_s) = (total_time_s, kernel_time_s);
        let mut round_wall = cx.wall.lane;
        let mut round_kernel = cx.kernel.lane;
        let mut round_report: Option<SimReport> = None;
        let mut aborted = false;
        let mut unrun: Vec<u32> = Vec::new();
        for (k, run) in runs.into_iter().enumerate() {
            let d = live[k];
            if dies[k] {
                // The whole device is gone mid-round: every placed
                // instance fails without running and re-queues. No retry
                // budget is spent — the instance never launched.
                if !dead_devices.contains(&(d as u32)) {
                    dead_devices.push(d as u32);
                }
                if let Some(m) = &monitor {
                    m.device_dead(d as u32);
                }
                obs.set_base_us(base_us);
                obs.instant_args(
                    PID_HOST,
                    0,
                    &format!("device {d} died"),
                    "recovery",
                    round_start_s * 1e6,
                    vec![("instances".into(), Value::U64(shards[k].len() as u64))],
                );
                for &g in &shards[k] {
                    tally.stats.failures += 1;
                    tally.failed_once[g as usize] = true;
                    tally.retried[g as usize] = true;
                    tally.settle(g, format!("device {d} died"), round_kernel_start_s);
                    if let Some(m) = &monitor {
                        m.retry_scheduled(d as u32);
                    }
                    tally.next_pending.push(g);
                }
                continue;
            }
            let Some(mut run) = run else { continue };
            for c in std::mem::take(&mut run.chunks) {
                run.report = Some(tally.absorb(c, d as u32, concurrent, attempt, &policy));
            }
            if let Some(rec) = &run.rec {
                obs.merge_shifted(rec, d as u32 * DEVICE_PID_STRIDE, &format!("dev{d} "));
            }
            per_device_time_s[d] += run.end.busy;
            round_kernel = round_kernel.max(run.end.kernel);
            if round_report.is_none() || run.end.wall > round_wall {
                round_report = run.report;
            }
            round_wall = round_wall.max(run.end.wall);
            aborted |= run.end.aborted;
            unrun.extend(run.end.unrun);
        }
        total_time_s = cx.wall.origin + round_wall;
        kernel_time_s = cx.kernel.origin + round_kernel;
        if round_report.is_some() {
            report = round_report;
        }

        let mut next_pending = std::mem::take(&mut tally.next_pending);
        if aborted {
            // Fail-fast: everything not yet final is abandoned.
            for g in next_pending.drain(..).chain(unrun) {
                tally.settle(g, "skipped: fail-fast".into(), kernel_time_s);
                tally.stats.skipped += 1;
            }
        }
        if std::mem::take(&mut tally.round_oom) && policy.oom_split && current_batch > 1 {
            // Graceful degradation: the memory wall halves concurrency
            // instead of ending the run.
            current_batch = (current_batch / 2).max(1);
            tally.stats.oom_splits += 1;
            if let Some(m) = &monitor {
                m.oom_split(current_batch);
            }
            obs.set_base_us(base_us);
            obs.instant_args(
                PID_HOST,
                0,
                &format!("batch split to {current_batch}"),
                "recovery",
                total_time_s * 1e6,
                vec![("batch".into(), Value::U64(u64::from(current_batch)))],
            );
        }
        next_pending.sort_unstable();
        next_pending.dedup();
        pending = next_pending;
        attempt += 1;
    }
    obs.set_base_us(base_us);

    let mut stats = tally.stats;
    stats.retried = tally.retried.iter().filter(|&&r| r).count() as u32;
    stats.final_batch = current_batch;
    let instances: Vec<InstanceOutcome> = tally
        .outcome
        .into_iter()
        .map(|o| o.expect("every instance has a final outcome"))
        .collect();
    stats.unrecovered = instances.iter().filter(|i| !i.succeeded()).count() as u32;
    let metrics = tally
        .metrics
        .into_iter()
        .map(|mi| mi.expect("every instance has metrics"))
        .collect();
    let kernel = format!("{}-x{}", app.name, n);
    // If every device died before anything launched, no report exists;
    // an all-zero one keeps the result well-formed (every instance is
    // already marked unrecovered).
    let report = report.unwrap_or_else(|| SimReport {
        kernel_name: kernel.clone(),
        ..SimReport::default()
    });

    Ok(RunResult {
        ensemble: EnsembleResult {
            instances,
            stdout: tally.stdout,
            report,
            kernel_time_s,
            total_time_s,
            instance_end_times_s: tally.end_s,
            rpc_stats: tally.rpc,
            metrics,
            timeline: tally.timeline,
            graph: tally.graph,
            heap: tally.heap,
        },
        recovery: stats,
        assignment,
        per_device_time_s,
        dead_devices,
        kernel,
    })
}
