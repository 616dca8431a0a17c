//! Per-layer accounting of a traced run: what each workload's probe
//! collects around its calls into the workspace, and how launch spans are
//! folded out of team-completion stamps.

use crate::ratio;
use crate::stats::{covered, percentile};
use crate::trace::{StampSink, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Everything a traced phase records. A workload fills only the layers it
/// exercises; the rest report 0.
#[derive(Default)]
pub struct Layers {
    pub functional_s: f64,
    pub team_gaps_s: Vec<f64>,
    pub teams: u64,
    pub post_s: f64,
    pub sim_insts: f64,
    pub sim_cycles: f64,
    pub compile_s: f64,
    pub launch_s: Vec<f64>,
    pub pilot_s: f64,
    pub pilots: u64,
    pub mem_peak_bytes: u64,
    pub mem_allocations: u64,
    pub mem_recycled: u64,
    pub mem_fallbacks: u64,
    pub oom_instances: u64,
    pub rpc_calls: u64,
    pub rpc_failures: u64,
    pub export_s: f64,
    pub trace_bytes: u64,
    pub trace_events: u64,
    pub admit_s: Vec<f64>,
    pub journal_bytes: u64,
    pub wave_s: Vec<f64>,
    pub wave_jobs: Vec<f64>,
    pub busy_ratio: f64,
    pub queue_wait_s: Vec<f64>,
    pub lag_s: Vec<f64>,
    pub overhead_ratio: f64,
}

impl Layers {
    /// Fold one heap's statistics after a run.
    pub fn absorb_heap(&mut self, s: &gpu_mem::HeapStats) {
        self.mem_peak_bytes = self.mem_peak_bytes.max(s.peak_bytes_in_use);
        self.mem_allocations += s.total_allocations;
        self.mem_recycled += s.recycled_allocations;
        self.mem_fallbacks += s.alloc_fallbacks;
    }

    /// The per-layer metrics by name, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        BTreeMap::from([
            ("gpu_sim.functional_s", self.functional_s),
            ("gpu_sim.team_p50_s", percentile(&self.team_gaps_s, 50.0)),
            ("gpu_sim.team_p90_s", percentile(&self.team_gaps_s, 90.0)),
            ("gpu_sim.teams", self.teams as f64),
            ("gpu_sim.post_s", self.post_s),
            ("gpu_sim.sim_insts", self.sim_insts),
            ("gpu_sim.sim_cycles", self.sim_cycles),
            ("compile.s", self.compile_s),
            ("core.launch_p50_s", percentile(&self.launch_s, 50.0)),
            ("core.launch_p90_s", percentile(&self.launch_s, 90.0)),
            ("sched.pilot_s", self.pilot_s),
            ("sched.pilots", self.pilots as f64),
            ("gpu_mem.peak_bytes", self.mem_peak_bytes as f64),
            (
                "gpu_mem.recycle_ratio",
                ratio(self.mem_recycled, self.mem_allocations),
            ),
            ("gpu_mem.alloc_fallbacks", self.mem_fallbacks as f64),
            ("gpu_mem.oom_instances", self.oom_instances as f64),
            ("host_rpc.calls", self.rpc_calls as f64),
            ("host_rpc.failures", self.rpc_failures as f64),
            ("obs.export_s", self.export_s),
            ("obs.trace_bytes", self.trace_bytes as f64),
            ("obs.trace_events", self.trace_events as f64),
            ("serve.admit_p50_s", percentile(&self.admit_s, 50.0)),
            ("serve.admit_p90_s", percentile(&self.admit_s, 90.0)),
            ("serve.journal_bytes", self.journal_bytes as f64),
            ("serve.wave_p50_s", percentile(&self.wave_s, 50.0)),
            ("serve.wave_p90_s", percentile(&self.wave_s, 90.0)),
            ("serve.wave_jobs_mean", mean(&self.wave_jobs)),
            ("serve.busy_ratio", self.busy_ratio),
            (
                "serve.queue_wait_p90_s",
                percentile(&self.queue_wait_s, 90.0),
            ),
            ("loadgen.lag_p90_s", percentile(&self.lag_s, 90.0)),
            ("trace.overhead_ratio", self.overhead_ratio),
        ])
    }
}

/// A traced phase's instruments: spans, the team-stamping sink and the
/// layer totals.
pub struct Probe {
    pub tracer: Tracer,
    pub sink: Arc<StampSink>,
    pub layers: Layers,
}

impl Probe {
    pub fn new() -> Probe {
        let epoch = Instant::now();
        Probe {
            tracer: Tracer::new(epoch),
            sink: Arc::new(StampSink::new(epoch)),
            layers: Layers::default(),
        }
    }

    pub fn now(&self) -> f64 {
        self.tracer.now()
    }

    /// Record one driver call `[call.0, call.1]` under `parent` and split
    /// it by the team stamps the sink collected meanwhile. Each device's
    /// functional execution runs from `device_start` (the call itself,
    /// or later when the driver first runs pilots) to its last team
    /// completion; the rest of the call after the last completion on any
    /// device is post-processing (timing model, teardown, rollups).
    pub fn launch(&mut self, parent: usize, call: (f64, f64), device_start: f64) -> usize {
        let launch = self
            .tracer
            .span("core.launch", Some(parent), call.0, call.1, 0);
        self.layers.launch_s.push(call.1 - call.0);
        let mut stamps = self.sink.take_stamps();
        stamps.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut functional = Vec::new();
        for device in stamps
            .iter()
            .map(|s| s.0)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let mut prev = device_start;
            for &(_, t) in stamps.iter().filter(|s| s.0 == device) {
                self.layers.team_gaps_s.push((t - prev).max(0.0));
                prev = t;
            }
            self.tracer.span(
                "gpu_sim.functional",
                Some(launch),
                device_start,
                prev,
                device,
            );
            functional.push((device_start, prev));
        }
        self.layers.teams += stamps.len() as u64;
        self.layers.functional_s += covered(&functional);
        let last = functional.iter().map(|f| f.1).fold(device_start, f64::max);
        self.tracer
            .span("gpu_sim.post", Some(launch), last, call.1, 0);
        self.layers.post_s += call.1 - last;
        launch
    }
}
