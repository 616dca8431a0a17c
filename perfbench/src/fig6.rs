//! `fig6_sweep`: the paper's homogeneous Fig. 6 ensembles at the default
//! (paper-scaled) sizes, all four applications at both thread limits,
//! each launched on a fresh simulated A100 through the plain driver.
//!
//! Every instance of an ensemble has the same argument line and nearly
//! all wall time is functional execution, with no pilots, journal or
//! export, so this is where a gain in functional execution (e.g. replaying
//! identical teams) shows most. The subset stops at 8 instances: that
//! keeps a pass to a few seconds and still includes the by-design
//! PageRank out-of-memory point (N = 8).

use crate::check::{checksum_matches, parse_figure6, reference_checksum, Digest};
use crate::hostref::HostRef;
use crate::inputs::Rng;
use crate::layers::Probe;
use crate::{Phase, Workload, MIN_REQUESTS};
use dgc_bench::{default_workloads, THREAD_LIMITS};
use dgc_core::{run_ensemble_traced, EnsembleOptions, HostApp, Loader};
use dgc_obs::Recorder;
use gpu_arch::GpuSpec;
use gpu_sim::Gpu;
use host_rpc::HostServices;
use std::time::Instant;

/// Instance counts kept from the paper's sweep.
const COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Latency limit per configuration for `within_slo_ratio`: about four
/// times the slowest kept configuration's host wall time.
pub const SLO_S: f64 = 2.0;

struct Config {
    app: HostApp,
    args: Vec<String>,
    thread_limit: u32,
    instances: u32,
    /// Golden kernel time from `results/figure6.json`; `None` = OOM.
    golden: Option<f64>,
    reference: f64,
    /// Simulated statistics of the first run, which every rerun repeats.
    digest: Option<Digest>,
}

pub struct Fig6 {
    seed: u64,
    configs: Vec<Config>,
    passes: u64,
    compile_s: f64,
}

impl Workload for Fig6 {
    fn setup(seed: u64, _scratch: &std::path::Path) -> Result<Fig6, String> {
        let golden = parse_figure6(include_str!("../../results/figure6.json"))?;
        let loader = Loader::default();
        let t = Instant::now();
        for w in default_workloads() {
            loader
                .compile_app(&w.app())
                .map_err(|e| format!("{}: {e}", w.name))?;
        }
        let compile_s = t.elapsed().as_secs_f64();
        let mut configs = Vec::new();
        for tl in THREAD_LIMITS {
            for w in default_workloads() {
                let reference = reference_checksum(w.name, &w.args);
                for n in COUNTS {
                    let key = (w.name.to_string(), tl, n);
                    let golden = *golden
                        .get(&key)
                        .ok_or_else(|| format!("figure6.json has no point {key:?}"))?;
                    configs.push(Config {
                        app: w.app(),
                        args: w.args.clone(),
                        thread_limit: tl,
                        instances: n,
                        golden,
                        reference,
                        digest: None,
                    });
                }
            }
        }
        let mut fig6 = Fig6 {
            seed,
            configs,
            passes: 0,
            compile_s,
        };
        // Warm-up: every application at both thread limits, N = 1.
        let mut warm = Phase::default();
        for i in (0..fig6.configs.len()).step_by(COUNTS.len()) {
            fig6.request(i, &mut warm, None);
        }
        warm.into_result()?;
        Ok(fig6)
    }

    fn compile_s(&self) -> f64 {
        self.compile_s
    }

    fn run(
        &mut self,
        seconds: f64,
        mut probe: Option<&mut Probe>,
        href: &mut HostRef,
    ) -> Result<Phase, String> {
        let start = Instant::now();
        let mut phase = Phase::default();
        loop {
            // A pass runs every configuration once, in a seeded order.
            let mut order: Vec<usize> = (0..self.configs.len()).collect();
            Rng::new(self.seed, 1 + self.passes).shuffle(&mut order);
            for i in order {
                phase.sample_host(href);
                self.request(i, &mut phase, probe.as_deref_mut());
            }
            self.passes += 1;
            let elapsed = start.elapsed().as_secs_f64() - phase.paused_s;
            if elapsed >= seconds && phase.latency_s.len() >= MIN_REQUESTS {
                phase.wall_s = elapsed;
                break;
            }
        }
        if let Some(p) = probe {
            (p.layers.rpc_calls, p.layers.rpc_failures) = p.sink.rpc();
        }
        let mut digest = Digest::default();
        for c in &self.configs {
            digest.word(c.digest.map_or(0, |d| d.0));
        }
        phase.notes.push(format!(
            "sim_digest {:016x} (all configurations, canonical order)",
            digest.0
        ));
        Ok(phase)
    }
}

impl Fig6 {
    /// Launch configuration `i` once and check everything it produced.
    fn request(&mut self, i: usize, phase: &mut Phase, mut probe: Option<&mut Probe>) {
        let c = &mut self.configs[i];
        let name = format!("{} tl{} n{}", c.app.name, c.thread_limit, c.instances);
        let t0 = Instant::now();
        let req = probe.as_deref_mut().map(|p| {
            let now = p.now();
            p.tracer.span("bench.request", None, now, now, 0)
        });
        let mut gpu = Gpu::new(GpuSpec::a100_40gb());
        let opts = EnsembleOptions {
            num_instances: c.instances,
            thread_limit: c.thread_limit,
            cycle_args: true,
            ..Default::default()
        };
        let mut obs = Recorder::disabled();
        if let Some(p) = probe.as_deref() {
            obs.set_monitor(p.sink.clone());
        }
        let call0 = probe.as_deref().map(|p| p.now());
        let res = run_ensemble_traced(
            &mut gpu,
            &c.app,
            std::slice::from_ref(&c.args),
            &opts,
            HostServices::default(),
            &mut obs,
        );
        let latency = t0.elapsed().as_secs_f64();
        phase.busy_s += latency;
        phase.latency_s.push(latency);
        phase.requests += 1;
        phase.attempted += u64::from(c.instances);
        if let (Some(p), Some(req), Some(call0)) = (probe.as_deref_mut(), req, call0) {
            let call1 = p.now();
            p.launch(req, (call0, call1), call0);
            p.layers.absorb_heap(&gpu.mem.stats());
        }
        let res = match res {
            Ok(r) => r,
            Err(e) => {
                phase.fail(
                    u64::from(c.instances),
                    format!("{name}: launch failed: {e}"),
                );
                return;
            }
        };

        let mut errors = Vec::new();
        let mut bad = 0;
        for (inst, out) in res.instances.iter().zip(&res.stdout) {
            if inst.oom && c.golden.is_none() {
                continue; // the paper's "not runnable" point, by design
            }
            if !(inst.succeeded() && checksum_matches(out, c.reference)) {
                bad += 1;
            }
        }
        if bad > 0 {
            errors.push(format!(
                "{bad} instance(s) failed or printed a wrong checksum"
            ));
        }
        let time_s = (!res.any_oom()).then_some(res.kernel_time_s);
        if time_s.map(f64::to_bits) != c.golden.map(f64::to_bits) {
            errors.push(format!(
                "time_s {time_s:?} differs from figure6.json {:?}",
                c.golden
            ));
        }
        let mut d = Digest::default();
        d.float(res.kernel_time_s);
        d.float(res.total_time_s);
        d.float(res.report.kernel_cycles);
        d.float(res.report.total_insts);
        d.floats(&res.instance_end_times_s);
        if *c.digest.get_or_insert(d) != d {
            errors.push("simulated statistics changed between runs".into());
        }
        if errors.is_empty() {
            // Out-of-memory instances are correct here but did no work.
            phase.verified += u64::from(c.instances - res.oom_count());
            if latency <= SLO_S {
                phase.within_slo += 1;
            }
        } else {
            // A wrong configuration-level result taints every instance.
            phase.fail(
                u64::from(c.instances),
                format!("{name}: {}", errors.join("; ")),
            );
        }
        if let (Some(p), Some(req)) = (probe, req) {
            let l = &mut p.layers;
            l.sim_insts += res.metrics.iter().map(|m| m.warp_insts).sum::<f64>();
            l.sim_cycles += res.metrics.iter().map(|m| m.cycles).sum::<f64>();
            l.oom_instances += u64::from(res.oom_count());
            p.tracer.spans[req].end = p.now();
        }
    }
}
