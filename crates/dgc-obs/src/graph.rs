//! The causal span graph of an ensemble run.
//!
//! Every driver — plain, batched, resilient, sharded — accumulates its
//! reported makespan as a fold over per-launch wall-time addends (plus
//! backoff waits, plus per-round maxima over device lanes). This module
//! records those *exact* f64 addends in accumulation order, so
//! [`SpanGraph::replay_makespan_s`] reproduces the reported makespan
//! **bit-exactly**: the replay performs the same additions, in the same
//! association, as the driver did.
//!
//! Each [`LaunchNode`] additionally carries the in-kernel critical chain
//! (from [`gpu_sim::ScheduleDetail::critical_chain`]), per-block stall
//! buckets, and the wave layout — the raw material `dgc-insight` turns
//! into critical-path extraction, blame tables, flamegraphs and Gantt
//! summaries.
//!
//! Graphs are produced two ways:
//!
//! * **in-process** — `dgc-core` builds one node per kernel launch; the
//!   outer drivers re-stamp device/round/instances exactly as they do
//!   for instance metrics. This path is exact.
//! * **post-hoc** — [`SpanGraph::from_chrome_trace`] reconstructs an
//!   approximate graph from a merged Chrome trace (`merge_shifted` lane
//!   groups). Durations come back through the µs domain, so sums are
//!   only approximate; the reconstruction normalizes the cycle domain to
//!   microseconds (`cycle_s = 1e-6`).

use crate::recorder::{DEVICE_PID_STRIDE, PID_HOST};
use gpu_sim::{ScheduleDetail, StallBuckets};
use serde::Value;

/// One hop of a kernel's critical chain: a block on the chain, plus the
/// scheduling gap it spent queued after its predecessor freed the SM
/// slot. Residence plus gaps telescopes to the kernel's cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalHop {
    pub block: u32,
    pub sm: u32,
    pub wave: u32,
    pub start_cycle: f64,
    pub end_cycle: f64,
    /// Idle cycles between the predecessor's completion (or cycle 0) and
    /// this block's placement.
    pub gap_cycles: f64,
    /// The hop's stall-cycle decomposition (zero buckets when stall
    /// collection was off). Block-level buckets sum to `end_cycle`.
    pub stall: StallBuckets,
}

impl CriticalHop {
    /// Build the hop list from a kernel's recorded schedule.
    pub fn chain_from_schedule(sched: &ScheduleDetail) -> Vec<CriticalHop> {
        let mut prev_end = 0.0;
        sched
            .critical_chain()
            .into_iter()
            .map(|b| {
                let hop = CriticalHop {
                    block: b.block,
                    sm: b.sm,
                    wave: b.wave,
                    start_cycle: b.start_cycle,
                    end_cycle: b.end_cycle,
                    gap_cycles: b.start_cycle - prev_end,
                    stall: b.stalls.unwrap_or_default(),
                };
                prev_end = b.end_cycle;
                hop
            })
            .collect()
    }
}

/// One kernel launch of the run: the host transfer spans around it, the
/// exact wall-time addend the driver accumulated for it, and the
/// in-device structure needed for blame attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchNode {
    /// Kernel name (`app-x<N>` of this launch's chunk).
    pub kernel: String,
    /// Fleet index of the device that ran the launch (0 outside the
    /// sharded drivers).
    pub device: u32,
    /// Retry round (0 = first attempt), mirroring `InstanceMetrics::attempt`.
    pub round: u32,
    /// True when the launch ran concurrently with other devices' launches
    /// of the same round (sharded drivers): the round then costs the
    /// slowest device lane, not the sum.
    pub concurrent: bool,
    /// Launch-timeline offset where this node begins, seconds.
    pub start_s: f64,
    /// H2D argv transfer, seconds.
    pub h2d_s: f64,
    /// Kernel envelope (launch overhead + simulated cycles), seconds.
    pub kernel_s: f64,
    /// D2H result transfer, seconds.
    pub d2h_s: f64,
    /// The **exact** f64 the driver added to its makespan accumulator
    /// for this launch (`kernel_s + (h2d_s + d2h_s)` in the driver's own
    /// association). Replay uses this value verbatim.
    pub total_s: f64,
    /// Launch overhead component of `kernel_s`, seconds.
    pub overhead_s: f64,
    /// Seconds per simulated cycle on this device (converts chain and
    /// stall cycles to wall time).
    pub cycle_s: f64,
    /// Scheduling waves of the kernel.
    pub waves: u32,
    /// Teams (instances) per block of this launch.
    pub teams_per_block: u32,
    /// Global instance ids, in local team order.
    pub instances: Vec<u32>,
    /// Per-block stall buckets, indexed like the launch's blocks (each
    /// sums to that block's end cycle). Empty when stalls were off.
    pub block_stalls: Vec<StallBuckets>,
    /// Per-wave `(start_cycle, end_cycle, blocks)` rows.
    pub wave_spans: Vec<(f64, f64, u32)>,
    /// The kernel's critical chain, start-ordered.
    pub chain: Vec<CriticalHop>,
}

impl LaunchNode {
    /// Global instance ids resident in `block`, given the launch's
    /// packing. Empty for an out-of-range block.
    pub fn block_instances(&self, block: u32) -> &[u32] {
        let tpb = self.teams_per_block.max(1) as usize;
        let lo = (block as usize * tpb).min(self.instances.len());
        let hi = ((block as usize + 1) * tpb).min(self.instances.len());
        &self.instances[lo..hi]
    }

    /// The kernel's simulated cycles (critical chain end), 0 for an
    /// empty chain.
    pub fn kernel_cycles(&self) -> f64 {
        self.chain.last().map(|h| h.end_cycle).unwrap_or(0.0)
    }
}

/// A node of the causal span graph, in driver accumulation order.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanNode {
    Launch(LaunchNode),
    /// Simulated backoff wait before retry round `round`.
    Backoff {
        round: u32,
        wait_s: f64,
    },
}

/// The causal span graph of one ensemble run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanGraph {
    /// Nodes in the order the driver accumulated their wall time.
    pub nodes: Vec<SpanNode>,
}

impl SpanGraph {
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn push_launch(&mut self, node: LaunchNode) {
        self.nodes.push(SpanNode::Launch(node));
    }

    pub fn push_backoff(&mut self, round: u32, wait_s: f64) {
        self.nodes.push(SpanNode::Backoff { round, wait_s });
    }

    /// Append another graph's nodes (batched/resilient accumulation).
    pub fn merge(&mut self, other: SpanGraph) {
        self.nodes.extend(other.nodes);
    }

    /// The launch nodes, in accumulation order.
    pub fn launches(&self) -> impl Iterator<Item = &LaunchNode> {
        self.nodes.iter().filter_map(|n| match n {
            SpanNode::Launch(l) => Some(l),
            SpanNode::Backoff { .. } => None,
        })
    }

    /// Stamp every launch with the device lane that ran it and whether
    /// it ran concurrently with other lanes (sharded drivers, mirroring
    /// `InstanceMetrics::device`).
    pub fn stamp_device(&mut self, device: u32, concurrent: bool) {
        for n in &mut self.nodes {
            if let SpanNode::Launch(l) = n {
                l.device = device;
                l.concurrent = concurrent;
            }
        }
    }

    /// Stamp every launch with its retry round (resilient drivers).
    pub fn stamp_round(&mut self, round: u32) {
        for n in &mut self.nodes {
            if let SpanNode::Launch(l) = n {
                l.round = round;
            }
        }
    }

    /// Shift every launch's start on the launch timeline (batched and
    /// resilient drivers, in lockstep with the `end_time_s` shift they
    /// apply to instance metrics).
    pub fn shift_start_s(&mut self, delta_s: f64) {
        for n in &mut self.nodes {
            if let SpanNode::Launch(l) = n {
                l.start_s += delta_s;
            }
        }
    }

    /// Remap local instance ids to global ones (`map[local] = global`),
    /// exactly as the outer drivers re-stamp `InstanceMetrics::instance`.
    pub fn remap_instances(&mut self, map: &[u32]) {
        for n in &mut self.nodes {
            if let SpanNode::Launch(l) = n {
                for i in &mut l.instances {
                    if let Some(&g) = map.get(*i as usize) {
                        *i = g;
                    }
                }
            }
        }
    }

    /// Number of distinct device lanes observed.
    pub fn devices(&self) -> u32 {
        self.launches().map(|l| l.device + 1).max().unwrap_or(0)
    }

    /// Number of retry rounds observed (1 = no retries).
    pub fn rounds(&self) -> u32 {
        self.launches().map(|l| l.round + 1).max().unwrap_or(0)
    }

    /// Replay the round loop's makespan accumulation over the graph:
    ///
    /// * a backoff node adds its wait to the accumulator;
    /// * a non-concurrent launch adds its `total_s` directly (a
    ///   one-device run keeps one running accumulator);
    /// * a run of concurrent launches of one round folds each device
    ///   lane from zero and adds the slowest lane (a fleet round's
    ///   makespan).
    ///
    /// Because every addition uses the loop's own addend in the loop's
    /// own association, the result is bit-exact against the reported
    /// makespan.
    pub fn replay_makespan_s(&self) -> f64 {
        let mut acc = 0.0f64;
        let mut i = 0usize;
        while i < self.nodes.len() {
            match &self.nodes[i] {
                SpanNode::Backoff { wait_s, .. } => {
                    acc += wait_s;
                    i += 1;
                }
                SpanNode::Launch(n) if !n.concurrent => {
                    acc += n.total_s;
                    i += 1;
                }
                SpanNode::Launch(first) => {
                    let round = first.round;
                    let mut lanes: Vec<(u32, f64)> = Vec::new();
                    while let Some(SpanNode::Launch(m)) = self.nodes.get(i) {
                        if !m.concurrent || m.round != round {
                            break;
                        }
                        match lanes.iter_mut().find(|(d, _)| *d == m.device) {
                            Some(l) => l.1 += m.total_s,
                            None => lanes.push((m.device, m.total_s)),
                        }
                        i += 1;
                    }
                    acc += lanes.iter().fold(0.0f64, |m, &(_, t)| m.max(t));
                }
            }
        }
        acc
    }

    /// Reconstruct an approximate span graph from a merged Chrome trace
    /// (the `--trace-out` artifact). Per device lane group
    /// ([`DEVICE_PID_STRIDE`]): every `kernel` span becomes a launch
    /// node, paired with the nearest preceding `h2d argv` span and the
    /// nearest following `d2h results` span; `block` spans inside the
    /// kernel envelope rebuild the schedule (stall args scale the span
    /// µs into bucket shares); `retry round` recovery instants become
    /// backoff nodes.
    ///
    /// The reconstruction works in the µs domain (`cycle_s = 1e-6`,
    /// cycles ≡ µs) and assumes one instance per block, so sums are
    /// approximate — exact replay needs the in-process graph.
    pub fn from_chrome_trace(text: &str) -> Result<SpanGraph, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| format!("trace JSON: {e}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .ok_or_else(|| "trace without traceEvents".to_string())?;

        struct Span {
            pid: u32,
            ts: f64,
            dur: f64,
            tid: u32,
            name: String,
            args: Vec<(String, f64)>,
        }
        let mut kernels: Vec<Span> = Vec::new();
        let mut h2ds: Vec<Span> = Vec::new();
        let mut d2hs: Vec<Span> = Vec::new();
        let mut blocks: Vec<Span> = Vec::new();
        let mut backoffs: Vec<(f64, u32, f64)> = Vec::new(); // (ts, round, wait_s)

        for e in events {
            let get = |k: &str| e.get(k);
            let ph = get("ph").and_then(|v| v.as_str()).unwrap_or("");
            let cat = get("cat").and_then(|v| v.as_str()).unwrap_or("");
            let name = get("name").and_then(|v| v.as_str()).unwrap_or("");
            let pid = get("pid").and_then(|v| v.as_u64()).unwrap_or(0) as u32;
            let tid = get("tid").and_then(|v| v.as_u64()).unwrap_or(0) as u32;
            let ts = get("ts").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let dur = get("dur").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let num_args: Vec<(String, f64)> = get("args")
                .and_then(|v| v.as_object())
                .map(|o| {
                    o.iter()
                        .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                        .collect()
                })
                .unwrap_or_default();
            let span = || Span {
                pid,
                ts,
                dur,
                tid,
                name: name.to_string(),
                args: num_args.clone(),
            };
            match (ph, cat) {
                ("X", "kernel") => kernels.push(span()),
                ("X", "loader") if name == "h2d argv" => h2ds.push(span()),
                ("X", "loader") if name == "d2h results" => d2hs.push(span()),
                ("X", "block") => blocks.push(span()),
                ("i", "recovery") if name.starts_with("retry round") => {
                    let round: u32 = name
                        .rsplit(' ')
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    let wait = num_args
                        .iter()
                        .find(|(k, _)| k == "backoff_s")
                        .map(|&(_, v)| v)
                        .unwrap_or(0.0);
                    backoffs.push((ts, round, wait));
                }
                _ => {}
            }
        }
        if kernels.is_empty() {
            return Err("trace has no kernel spans".into());
        }

        let mut devices: Vec<u32> = kernels.iter().map(|k| k.pid / DEVICE_PID_STRIDE).collect();
        devices.sort_unstable();
        devices.dedup();
        let multi_device = devices.len() > 1;

        // (sort key, node) — interleave kernels and backoffs by timestamp.
        let mut ordered: Vec<(f64, SpanNode)> = backoffs
            .iter()
            .map(|&(ts, round, wait_s)| (ts, SpanNode::Backoff { round, wait_s }))
            .collect();
        kernels.sort_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap_or(std::cmp::Ordering::Equal));
        for k in &kernels {
            let dev = k.pid / DEVICE_PID_STRIDE;
            let same_dev = |s: &&Span| s.pid / DEVICE_PID_STRIDE == dev;
            let h2d = h2ds
                .iter()
                .filter(same_dev)
                .filter(|s| s.ts <= k.ts + 1e-6)
                .max_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap_or(std::cmp::Ordering::Equal));
            let d2h = d2hs
                .iter()
                .filter(same_dev)
                .filter(|s| s.ts >= k.ts + k.dur - 1e-6)
                .min_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap_or(std::cmp::Ordering::Equal));
            let kblocks: Vec<&Span> = blocks
                .iter()
                .filter(|s| {
                    s.pid / DEVICE_PID_STRIDE == dev
                        && s.pid % DEVICE_PID_STRIDE != PID_HOST
                        && s.ts >= k.ts - 1e-6
                        && s.ts + s.dur <= k.ts + k.dur + 1e-6
                })
                .collect();
            // The device-cycle origin: the earliest block placement (a
            // wave-0 block starts at cycle 0, so this recovers the launch
            // overhead boundary).
            let origin = kblocks
                .iter()
                .map(|s| s.ts)
                .fold(f64::INFINITY, f64::min)
                .min(k.ts + k.dur);
            let mut sched = ScheduleDetail::default();
            let mut max_wave = 0u32;
            for b in &kblocks {
                let wave = b
                    .args
                    .iter()
                    .find(|(n, _)| n == "wave")
                    .map(|&(_, v)| v as u32)
                    .unwrap_or(0);
                max_wave = max_wave.max(wave);
                let start = b.ts - origin;
                let end = b.ts + b.dur - origin;
                // Stall args are cycles summing to the block's end cycle;
                // rescale them onto the µs domain.
                let raw: Vec<(String, f64)> = b
                    .args
                    .iter()
                    .filter(|(n, _)| n.starts_with("stall_"))
                    .cloned()
                    .collect();
                let raw_total: f64 = raw.iter().map(|&(_, v)| v).sum();
                let stalls = (raw_total > 0.0).then(|| {
                    let scale = end / raw_total;
                    let of = |name: &str| {
                        raw.iter()
                            .find(|(n, _)| n == name)
                            .map(|&(_, v)| v * scale)
                            .unwrap_or(0.0)
                    };
                    StallBuckets {
                        compute: of("stall_compute"),
                        dram_bw: of("stall_dram_bw"),
                        mlp: of("stall_mlp"),
                        rpc: of("stall_rpc"),
                        alloc: of("stall_alloc"),
                        wave_tail: of("stall_wave_tail"),
                    }
                });
                sched.blocks.push(gpu_sim::BlockSchedule {
                    block: b.tid,
                    sm: (b.pid % DEVICE_PID_STRIDE).saturating_sub(1),
                    wave,
                    start_cycle: start,
                    end_cycle: end,
                    stalls,
                });
            }
            for w in 0..=max_wave {
                let start = sched
                    .blocks
                    .iter()
                    .filter(|b| b.wave == w)
                    .map(|b| b.start_cycle)
                    .fold(f64::INFINITY, f64::min);
                sched
                    .wave_starts
                    .push(if start.is_finite() { start } else { 0.0 });
            }
            let h2d_s = h2d.map(|s| s.dur / 1e6).unwrap_or(0.0);
            let d2h_s = d2h.map(|s| s.dur / 1e6).unwrap_or(0.0);
            let kernel_s = k.dur / 1e6;
            let instances: Vec<u32> = sched.blocks.iter().map(|b| b.block).collect();
            let node = LaunchNode {
                kernel: k.name.clone(),
                device: dev,
                round: 0,
                concurrent: multi_device,
                start_s: h2d.map(|s| s.ts / 1e6).unwrap_or(k.ts / 1e6),
                h2d_s,
                kernel_s,
                d2h_s,
                total_s: kernel_s + (h2d_s + d2h_s),
                overhead_s: (origin - k.ts).max(0.0) / 1e6,
                cycle_s: 1e-6,
                waves: sched.waves().max(1),
                teams_per_block: 1,
                instances,
                block_stalls: sched
                    .blocks
                    .iter()
                    .map(|b| b.stalls.unwrap_or_default())
                    .collect(),
                wave_spans: sched.wave_spans(),
                chain: CriticalHop::chain_from_schedule(&sched),
            };
            ordered.push((k.ts, SpanNode::Launch(node)));
        }
        ordered.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        Ok(SpanGraph {
            nodes: ordered.into_iter().map(|(_, n)| n).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch(device: u32, round: u32, concurrent: bool, total_s: f64) -> LaunchNode {
        LaunchNode {
            kernel: "app-x1".into(),
            device,
            round,
            concurrent,
            start_s: 0.0,
            h2d_s: 0.0,
            kernel_s: total_s,
            d2h_s: 0.0,
            total_s,
            overhead_s: 0.0,
            cycle_s: 1e-9,
            waves: 1,
            teams_per_block: 1,
            instances: vec![0],
            block_stalls: Vec::new(),
            wave_spans: Vec::new(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn replay_folds_direct_nodes_like_one_accumulator() {
        // Values chosen so association matters: (a + b) + c != a + (b + c).
        let (a, b, c) = (0.1f64, 0.2f64, 0.3f64);
        assert_ne!((a + b) + c, a + (b + c));
        let mut g = SpanGraph::default();
        g.push_launch(launch(0, 0, false, a));
        g.push_launch(launch(0, 0, false, b));
        g.push_launch(launch(0, 0, false, c));
        let mut acc = 0.0f64;
        acc += a;
        acc += b;
        acc += c;
        assert_eq!(g.replay_makespan_s(), acc);
    }

    #[test]
    fn replay_takes_the_slowest_lane_of_a_concurrent_round() {
        let mut g = SpanGraph::default();
        g.push_launch(launch(0, 0, true, 0.1));
        g.push_launch(launch(1, 0, true, 0.25));
        g.push_launch(launch(0, 0, true, 0.05));
        assert_eq!(g.replay_makespan_s(), 0.25);
        // A second round with backoff between: per-round maxima sum.
        g.push_backoff(1, 0.5);
        g.push_launch(launch(1, 1, true, 0.125));
        let expect = {
            let mut acc = 0.25f64;
            acc += 0.5;
            acc += 0.125;
            acc
        };
        assert_eq!(g.replay_makespan_s(), expect);
    }

    #[test]
    fn stamps_and_remap_rewrite_launch_nodes_only() {
        let mut g = SpanGraph::default();
        g.push_backoff(1, 0.5);
        let mut l = launch(0, 0, false, 1.0);
        l.instances = vec![0, 1];
        g.push_launch(l);
        g.stamp_device(3, true);
        g.stamp_round(2);
        g.shift_start_s(4.0);
        g.remap_instances(&[7, 9]);
        let node = g.launches().next().unwrap();
        assert_eq!(node.device, 3);
        assert!(node.concurrent);
        assert_eq!(node.round, 2);
        assert_eq!(node.start_s, 4.0);
        assert_eq!(node.instances, vec![7, 9]);
        assert_eq!(g.rounds(), 3);
        assert_eq!(g.devices(), 4);
        assert!(matches!(g.nodes[0], SpanNode::Backoff { round: 1, .. }));
    }

    #[test]
    fn block_instances_respects_packing() {
        let mut l = launch(0, 0, false, 1.0);
        l.teams_per_block = 2;
        l.instances = vec![4, 5, 6];
        assert_eq!(l.block_instances(0), &[4, 5]);
        assert_eq!(l.block_instances(1), &[6]);
        assert_eq!(l.block_instances(2), &[] as &[u32]);
    }

    #[test]
    fn chain_from_schedule_carries_gaps_and_stalls() {
        let mk = |block, sm, start: f64, end: f64| gpu_sim::BlockSchedule {
            block,
            sm,
            wave: 0,
            start_cycle: start,
            end_cycle: end,
            stalls: Some(StallBuckets {
                compute: end,
                ..StallBuckets::default()
            }),
        };
        let sched = ScheduleDetail {
            blocks: vec![mk(0, 0, 0.0, 100.0), mk(1, 0, 110.0, 300.0)],
            phase_spans: Vec::new(),
            wave_starts: vec![0.0],
        };
        let chain = CriticalHop::chain_from_schedule(&sched);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].gap_cycles, 0.0);
        assert_eq!(chain[1].gap_cycles, 10.0);
        assert_eq!(chain[1].stall.compute, 300.0);
    }

    #[test]
    fn from_chrome_trace_rebuilds_kernel_and_blocks() {
        use crate::recorder::{sm_pid, Recorder};
        let mut rec = Recorder::enabled();
        rec.span_args(
            PID_HOST,
            0,
            "h2d argv",
            "loader",
            0.0,
            10.0,
            vec![("bytes".into(), Value::U64(64))],
        );
        rec.span(PID_HOST, 0, "app-x2", "kernel", 10.0, 100.0);
        // Launch overhead 5 µs: blocks start at ts 15.
        rec.span_args(
            sm_pid(0),
            0,
            "block 0",
            "block",
            15.0,
            60.0,
            vec![
                ("wave".into(), Value::U64(0)),
                ("stall_compute".into(), Value::F64(45.0)),
                ("stall_wave_tail".into(), Value::F64(15.0)),
            ],
        );
        rec.span_args(
            sm_pid(1),
            1,
            "block 1",
            "block",
            15.0,
            95.0,
            vec![
                ("wave".into(), Value::U64(0)),
                ("stall_compute".into(), Value::F64(95.0)),
            ],
        );
        rec.span(PID_HOST, 0, "d2h results", "loader", 110.0, 2.0);
        let g = SpanGraph::from_chrome_trace(&rec.to_chrome_trace()).unwrap();
        assert_eq!(g.nodes.len(), 1);
        let n = g.launches().next().unwrap();
        assert_eq!(n.kernel, "app-x2");
        assert_eq!(n.device, 0);
        assert!(!n.concurrent);
        assert!((n.h2d_s - 10e-6).abs() < 1e-12);
        assert!((n.kernel_s - 100e-6).abs() < 1e-12);
        assert!((n.d2h_s - 2e-6).abs() < 1e-12);
        assert!((n.overhead_s - 5e-6).abs() < 1e-12);
        // The critical block is block 1 (95 µs); chain ends there.
        assert_eq!(n.chain.last().unwrap().block, 1);
        assert_eq!(n.chain.last().unwrap().end_cycle, 95.0);
        // Stall args rescale onto the µs domain: compute bucket = end.
        assert!((n.chain.last().unwrap().stall.compute - 95.0).abs() < 1e-9);
        // Replay approximates the wall total: 10 + 100 + 2 µs.
        assert!((g.replay_makespan_s() - 112e-6).abs() < 1e-12);
        // Malformed input errors instead of panicking.
        assert!(SpanGraph::from_chrome_trace("not json").is_err());
        assert!(SpanGraph::from_chrome_trace("{\"traceEvents\":[]}").is_err());
    }
}
