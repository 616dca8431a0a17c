//! Launch-level utilization timeline.
//!
//! `gpu-sim` samples utilization in the cycle domain
//! ([`gpu_sim::UtilizationTimeline`]); this module converts those samples
//! to wall microseconds on the launch timeline, attaches the launch
//! context the simulator cannot see (device index, heap occupancy), and
//! exports the series two ways:
//!
//! * [`LaunchTimeline::emit_counters`] — Chrome trace-event counter
//!   tracks (`"ph":"C"`) alongside the existing span lanes;
//! * the `timeline` array of metrics schema v5
//!   ([`crate::LaunchMetrics::timeline`]).
//!
//! The round loop (`dgc-sched`) accumulates per-kernel timelines with
//! [`LaunchTimeline::shift_us`] / [`LaunchTimeline::merge`] exactly as it
//! shifts and merges instance metrics, so the series stays consistent
//! with `end_time_s` for every run preset.

use crate::recorder::{Recorder, PID_HOST};
use gpu_sim::UtilizationTimeline;
use serde::{Deserialize, Serialize, Value};

/// One utilization sample on the launch timeline (metrics schema v5).
///
/// Rates are averaged over the sample window ending at `t_us`; counts are
/// instantaneous at the window's closing edge. The `stall_*` fields are
/// the window's stall-share *fractions* (they sum to ≤ 1, and to ~1 when
/// stall collection ran; all zero otherwise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Sample timestamp, µs on the launch timeline.
    pub t_us: f64,
    /// Fleet index of the device the sample came from (0 outside the
    /// sharded drivers).
    pub device: u32,
    /// Teams still making progress on placed blocks.
    pub active_teams: u32,
    /// Work-bearing blocks resident on SMs.
    pub resident_blocks: u32,
    /// `resident_blocks` over the device's full block complement, [0, 1].
    pub occupancy: f64,
    /// Window-averaged issue-slot utilization, [0, 1].
    pub issue_rate: f64,
    /// Window-averaged DRAM utilization (vs. raw peak), [0, 1].
    pub dram_rate: f64,
    /// Fraction of the window bound by issue throughput.
    pub stall_compute: f64,
    /// Fraction bound by the fair DRAM bandwidth share.
    pub stall_dram_bw: f64,
    /// Fraction bound by per-warp memory-level parallelism.
    pub stall_mlp: f64,
    /// Fraction bound by host round-trip latency.
    pub stall_rpc: f64,
    /// Fraction bound by device-heap allocator latency (schema v6).
    pub stall_alloc: f64,
    /// Fraction lost to under-occupancy (wave tail).
    pub stall_wave_tail: f64,
    /// Device-heap bytes in use while the sample's kernel ran. Constant
    /// within one kernel (allocation happens in the functional phase,
    /// before timing), so this steps per batch/chunk, not per sample.
    pub heap_bytes: u64,
}

/// The utilization time series of one ensemble launch — the metrics
/// schema v5 `timeline` array. Empty when sampling was off.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LaunchTimeline {
    /// Sampling interval, µs (0 when the series is empty).
    pub interval_us: f64,
    /// Samples in emission order. `t_us` is strictly increasing within
    /// each device lane.
    pub points: Vec<TimelinePoint>,
}

impl LaunchTimeline {
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Convert one kernel's cycle-domain samples to launch-timeline
    /// points. `us_per_cycle` converts simulated cycles to µs;
    /// `offset_us` positions the kernel on the launch timeline (after H2D
    /// and launch overhead, like `record_schedule`); `heap_bytes` is the
    /// device heap's occupancy during the kernel.
    pub fn from_samples(
        tl: &UtilizationTimeline,
        us_per_cycle: f64,
        offset_us: f64,
        device: u32,
        heap_bytes: u64,
    ) -> Self {
        let mut points = Vec::with_capacity(tl.samples.len());
        let mut prev_cycle = 0.0;
        for s in &tl.samples {
            let win = s.cycle - prev_cycle;
            let share = |cycles: f64| if win > 0.0 { cycles / win } else { 0.0 };
            points.push(TimelinePoint {
                t_us: offset_us + s.cycle * us_per_cycle,
                device,
                active_teams: s.active_teams,
                resident_blocks: s.resident_blocks,
                occupancy: s.occupancy,
                issue_rate: s.issue_rate,
                dram_rate: s.dram_rate,
                stall_compute: share(s.stall.compute),
                stall_dram_bw: share(s.stall.dram_bw),
                stall_mlp: share(s.stall.mlp),
                stall_rpc: share(s.stall.rpc),
                stall_alloc: share(s.stall.alloc),
                stall_wave_tail: share(s.stall.wave_tail),
                heap_bytes,
            });
            prev_cycle = s.cycle;
        }
        Self {
            interval_us: tl.interval * us_per_cycle,
            points,
        }
    }

    /// Shift every point by `delta_us` — how batched and resilient
    /// drivers place a later kernel's series after the earlier ones, in
    /// lockstep with the `end_time_s` shift they apply to instance
    /// metrics.
    pub fn shift_us(&mut self, delta_us: f64) {
        for p in &mut self.points {
            p.t_us += delta_us;
        }
    }

    /// Stamp every point with the device that produced it (sharded
    /// drivers, mirroring the `device` stamp on instance metrics).
    pub fn set_device(&mut self, device: u32) {
        for p in &mut self.points {
            p.device = device;
        }
    }

    /// Append another launch's points, keeping the first non-empty
    /// interval as the series interval.
    pub fn merge(&mut self, other: LaunchTimeline) {
        if self.points.is_empty() {
            self.interval_us = other.interval_us;
        }
        self.points.extend(other.points);
    }

    /// The issue-rate series, the input to the launch-level
    /// `utilization_mean`/`utilization_p95` rollups.
    pub fn issue_rates(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.issue_rate).collect()
    }

    /// Emit the series as Chrome counter tracks (`ph = 'C'`) on the host
    /// lane: `utilization` (issue/dram/occupancy), `active_teams`,
    /// `stall_share` (six exclusive fractions) and `heap_bytes`. Device
    /// recorders merged with `merge_shifted` carry their counters into
    /// per-device lane groups automatically.
    pub fn emit_counters(&self, rec: &mut Recorder) {
        if !rec.is_enabled() {
            return;
        }
        for p in &self.points {
            rec.counter_args(
                PID_HOST,
                0,
                "utilization",
                "counter",
                p.t_us,
                vec![
                    ("issue".into(), Value::F64(p.issue_rate)),
                    ("dram".into(), Value::F64(p.dram_rate)),
                    ("occupancy".into(), Value::F64(p.occupancy)),
                ],
            );
            rec.counter_args(
                PID_HOST,
                0,
                "active_teams",
                "counter",
                p.t_us,
                vec![("teams".into(), Value::U64(p.active_teams as u64))],
            );
            rec.counter_args(
                PID_HOST,
                0,
                "stall_share",
                "counter",
                p.t_us,
                vec![
                    ("compute".into(), Value::F64(p.stall_compute)),
                    ("dram_bw".into(), Value::F64(p.stall_dram_bw)),
                    ("mlp".into(), Value::F64(p.stall_mlp)),
                    ("rpc".into(), Value::F64(p.stall_rpc)),
                    ("alloc".into(), Value::F64(p.stall_alloc)),
                    ("wave_tail".into(), Value::F64(p.stall_wave_tail)),
                ],
            );
            rec.counter_args(
                PID_HOST,
                0,
                "heap_bytes",
                "counter",
                p.t_us,
                vec![("in_use".into(), Value::U64(p.heap_bytes))],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_chrome_trace;
    use gpu_sim::{StallBuckets, UtilizationSample};

    fn sim_timeline() -> UtilizationTimeline {
        let sample = |cycle: f64, teams: u32| UtilizationSample {
            cycle,
            active_teams: teams,
            resident_blocks: teams,
            occupancy: teams as f64 / 4.0,
            issue_rate: 0.5,
            dram_rate: 0.25,
            stall: StallBuckets {
                compute: 60.0,
                dram_bw: 20.0,
                mlp: 10.0,
                rpc: 0.0,
                alloc: 0.0,
                wave_tail: 10.0,
            },
        };
        UtilizationTimeline {
            interval: 100.0,
            samples: vec![sample(100.0, 4), sample(200.0, 2)],
        }
    }

    #[test]
    fn from_samples_converts_domain_and_normalizes_stalls() {
        let tl = LaunchTimeline::from_samples(&sim_timeline(), 2.0, 10.0, 1, 4096);
        assert_eq!(tl.interval_us, 200.0);
        assert_eq!(tl.points.len(), 2);
        let p = &tl.points[0];
        assert_eq!(p.t_us, 10.0 + 100.0 * 2.0);
        assert_eq!(p.device, 1);
        assert_eq!(p.heap_bytes, 4096);
        // Stall cycles become window fractions summing to 1.
        assert!((p.stall_compute - 0.6).abs() < 1e-12);
        let total = p.stall_compute
            + p.stall_dram_bw
            + p.stall_mlp
            + p.stall_rpc
            + p.stall_alloc
            + p.stall_wave_tail;
        assert!((total - 1.0).abs() < 1e-12);
        // Points inherit strictly increasing timestamps.
        assert!(tl.points[1].t_us > tl.points[0].t_us);
    }

    #[test]
    fn shift_merge_and_device_stamp_compose() {
        let a = LaunchTimeline::from_samples(&sim_timeline(), 1.0, 0.0, 0, 0);
        let mut b = LaunchTimeline::from_samples(&sim_timeline(), 1.0, 0.0, 0, 0);
        b.shift_us(500.0);
        b.set_device(1);
        let mut merged = LaunchTimeline::default();
        merged.merge(a);
        merged.merge(b);
        assert_eq!(merged.interval_us, 100.0);
        assert_eq!(merged.points.len(), 4);
        assert_eq!(merged.points[2].t_us, 600.0);
        assert_eq!(merged.points[2].device, 1);
        assert_eq!(merged.points[0].device, 0);
        assert_eq!(merged.issue_rates(), vec![0.5; 4]);
    }

    #[test]
    fn merge_keeps_disjoint_device_lanes_independently_monotonic() {
        // Two devices sample concurrently: their global interleave is
        // NOT time-sorted after a merge, but each device lane stays
        // strictly increasing — the invariant the schema documents and
        // per-lane consumers (counter tracks, rollups) rely on.
        let mut dev0 = LaunchTimeline::from_samples(&sim_timeline(), 1.0, 0.0, 0, 64);
        let mut dev1 = LaunchTimeline::from_samples(&sim_timeline(), 1.0, 0.0, 0, 128);
        dev0.shift_us(50.0);
        dev1.set_device(1);
        let mut merged = LaunchTimeline::default();
        merged.merge(dev0);
        merged.merge(dev1);
        assert_eq!(merged.points.len(), 4);
        for dev in [0u32, 1u32] {
            let lane: Vec<f64> = merged
                .points
                .iter()
                .filter(|p| p.device == dev)
                .map(|p| p.t_us)
                .collect();
            assert_eq!(lane.len(), 2, "device {dev} lane incomplete");
            assert!(
                lane.windows(2).all(|w| w[1] > w[0]),
                "device {dev}: {lane:?}"
            );
        }
        // Lane context survives the merge: heap occupancy stays with the
        // device that measured it, and the rollup sees every sample.
        assert!(merged
            .points
            .iter()
            .all(|p| p.heap_bytes == if p.device == 0 { 64 } else { 128 }));
        assert_eq!(merged.issue_rates().len(), 4);
        // Merging an empty series is the identity.
        let before = merged.clone();
        merged.merge(LaunchTimeline::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn merge_keeps_overlapping_lanes_monotonic_with_stable_device_stamps() {
        // The harder case than the disjoint test above: two devices
        // sampled on the SAME clock, so every timestamp appears once per
        // lane. The merge must not collapse, reorder or re-stamp the
        // coincident points — each lane stays strictly increasing and
        // keeps its own device stamp and heap context.
        let mut dev0 = LaunchTimeline::from_samples(&sim_timeline(), 1.0, 0.0, 0, 64);
        let mut dev1 = LaunchTimeline::from_samples(&sim_timeline(), 1.0, 0.0, 0, 128);
        dev0.set_device(0);
        dev1.set_device(1);
        let expect_ts: Vec<f64> = dev0.points.iter().map(|p| p.t_us).collect();
        let mut merged = LaunchTimeline::default();
        merged.merge(dev0);
        merged.merge(dev1);

        // Every timestamp is duplicated across lanes, none dropped.
        assert_eq!(merged.points.len(), 2 * expect_ts.len());
        for &t in &expect_ts {
            assert_eq!(
                merged.points.iter().filter(|p| p.t_us == t).count(),
                2,
                "timestamp {t} should appear once per device lane"
            );
        }
        // Each lane is strictly increasing and stamped consistently.
        for dev in [0u32, 1u32] {
            let lane: Vec<&TimelinePoint> =
                merged.points.iter().filter(|p| p.device == dev).collect();
            assert_eq!(lane.len(), expect_ts.len());
            assert!(
                lane.windows(2).all(|w| w[1].t_us > w[0].t_us),
                "device {dev} lane not strictly increasing"
            );
            let heap = if dev == 0 { 64 } else { 128 };
            assert!(lane.iter().all(|p| p.heap_bytes == heap));
            assert_eq!(
                lane.iter().map(|p| p.t_us).collect::<Vec<_>>(),
                expect_ts,
                "device {dev} lane timestamps perturbed by merge"
            );
        }
        // Merge is append-ordered: lane 0's block precedes lane 1's, so
        // device stamping is stable (no interleave-dependent re-stamping).
        let devices: Vec<u32> = merged.points.iter().map(|p| p.device).collect();
        assert_eq!(devices, vec![0, 0, 1, 1]);
    }

    #[test]
    fn single_sample_and_empty_series_feed_rollups_cleanly() {
        let one = UtilizationTimeline {
            interval: 100.0,
            samples: vec![UtilizationSample {
                cycle: 40.0,
                active_teams: 1,
                resident_blocks: 1,
                occupancy: 0.25,
                issue_rate: 0.125,
                dram_rate: 0.0,
                stall: StallBuckets::default(),
            }],
        };
        let tl = LaunchTimeline::from_samples(&one, 1.0, 0.0, 0, 0);
        assert_eq!(tl.issue_rates(), vec![0.125]);
        // The empty series (sampling off) yields an empty rollup input,
        // which the stats layer maps to None rather than NaN.
        assert!(LaunchTimeline::default().issue_rates().is_empty());
    }

    #[test]
    fn emit_counters_produces_valid_counter_tracks() {
        let tl = LaunchTimeline::from_samples(&sim_timeline(), 1.0, 0.0, 0, 1024);
        let mut rec = Recorder::enabled();
        tl.emit_counters(&mut rec);
        // Four tracks per point.
        assert_eq!(rec.events().len(), 4 * tl.points.len());
        assert!(rec.events().iter().all(|e| e.ph == 'C'));
        let json = rec.to_chrome_trace();
        assert_eq!(validate_chrome_trace(&json).unwrap(), 4 * tl.points.len());
        // Disabled recorders stay empty.
        let mut off = Recorder::disabled();
        tl.emit_counters(&mut off);
        assert!(off.events().is_empty());
    }

    #[test]
    fn timeline_round_trips_through_json() {
        let tl = LaunchTimeline::from_samples(&sim_timeline(), 1.5, 3.0, 2, 99);
        let json = serde_json::to_string(&tl).unwrap();
        let back: LaunchTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(tl, back);
        // The empty series is the sampling-off representation.
        let empty = LaunchTimeline::default();
        assert!(empty.is_empty());
        let back: LaunchTimeline =
            serde_json::from_str(&serde_json::to_string(&empty).unwrap()).unwrap();
        assert_eq!(empty, back);
    }
}
