//! `hetero_sharded`: `ensemble-cli`-style requests from one closed-loop
//! client. Each request is an eight-instance ensemble of one application
//! in which every instance has its own argument line, sharded over two
//! simulated A100s with LPT placement and memory-aware packing (the CLI
//! default), and exported as a Chrome trace plus metrics JSONL the way
//! `--trace-out`/`--metrics-out` do.
//!
//! Distinct lines defeat any per-argument-line memoization, so a gain
//! from replaying identical teams should leave this workload unchanged.
//! It runs one `dgc-sched` pilot per distinct line and is the only
//! workload that exercises the `gpu-mem` free lists and `dgc-obs` export.
//! Two device threads match a two-core host.

use crate::check::{checksum_matches, reference_checksum, Digest};
use crate::hostref::HostRef;
use crate::inputs::{arg_pool, Deck, Rng, APPS};
use crate::layers::Probe;
use crate::{Phase, Workload, MIN_REQUESTS};
use dgc_core::{EnsembleOptions, HostApp, Loader};
use dgc_obs::{metrics_jsonl, validate_chrome_trace, write_atomic, Recorder};
use dgc_sched::{run_ensemble_sharded_mem_aware, InstanceCosts, Placement};
use gpu_arch::GpuSpec;
use gpu_sim::DeviceFleet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Distinct argument lines per application.
const POOL: u64 = 32;
/// Instances per request; a request deals this many lines from its pool.
const INSTANCES: usize = 8;
const DEVICES: u32 = 2;
/// `ensemble-cli`'s default `-t`.
const THREAD_LIMIT: u32 = 128;
/// Size-flag range per application (`APPS` order).
const SIZES: [(u64, u64); 4] = [(100, 164), (100, 164), (4, 36), (200, 328)];

/// Latency limit per request for `within_slo_ratio`.
pub const SLO_S: f64 = 1.0;

/// The seeded request stream: request `k` is an ensemble of app `k % 4`
/// whose instances take `INSTANCES` distinct lines dealt from that app's
/// pool.
struct Requests {
    pools: Vec<Vec<Vec<String>>>,
    decks: Vec<Deck>,
    next: usize,
}

impl Requests {
    fn new(seed: u64) -> Requests {
        let mut pools = Vec::new();
        let mut decks = Vec::new();
        for (a, (&name, &(lo, hi))) in APPS.iter().zip(&SIZES).enumerate() {
            let a = a as u64;
            pools.push(arg_pool(name, lo, hi, POOL, &mut Rng::new(seed, 100 + a)));
            decks.push(Deck::new(POOL as usize, Rng::new(seed, 200 + a)));
        }
        Requests {
            pools,
            decks,
            next: 0,
        }
    }

    /// The next request: its app (index into `APPS`) and the pool indices
    /// of its instances' lines. `POOL` is a multiple of `INSTANCES`, so a
    /// request never straddles two deals of the deck and its lines are
    /// distinct.
    fn next(&mut self) -> (usize, Vec<usize>) {
        let a = self.next % APPS.len();
        self.next += 1;
        (a, (0..INSTANCES).map(|_| self.decks[a].deal()).collect())
    }
}

pub struct Hetero {
    apps: Vec<HostApp>,
    /// Host reference checksum per app and pool line.
    references: Vec<Vec<f64>>,
    requests: Requests,
    export_dir: PathBuf,
    compile_s: f64,
}

impl Workload for Hetero {
    fn setup(seed: u64, scratch: &Path) -> Result<Hetero, String> {
        let requests = Requests::new(seed);
        let loader = Loader::default();
        let mut compile_s = 0.0;
        let mut apps = Vec::new();
        let mut references = Vec::new();
        for (&name, pool) in APPS.iter().zip(&requests.pools) {
            let app = dgc_apps::app_by_name(name).ok_or(format!("unknown app {name}"))?;
            let t = Instant::now();
            loader
                .compile_app(&app)
                .map_err(|e| format!("{name}: {e}"))?;
            compile_s += t.elapsed().as_secs_f64();
            apps.push(app);
            references.push(pool.iter().map(|l| reference_checksum(name, l)).collect());
        }
        let export_dir = scratch.join("hetero");
        std::fs::create_dir_all(&export_dir).map_err(|e| e.to_string())?;
        let mut hetero = Hetero {
            apps,
            references,
            requests,
            export_dir,
            compile_s,
        };
        // Warm-up: one request per application.
        let mut warm = Phase::default();
        for _ in 0..APPS.len() {
            hetero.request(&mut warm, None, &mut Digest::default());
        }
        warm.into_result()?;
        Ok(hetero)
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
        let mut digest = Digest::default();
        // Whole rounds of one request per application, so every run has
        // the same application mix.
        while start.elapsed().as_secs_f64() - phase.paused_s < seconds
            || phase.latency_s.len() < MIN_REQUESTS
        {
            for _ in 0..APPS.len() {
                let d = if phase.requests < MIN_REQUESTS as u64 {
                    &mut digest
                } else {
                    &mut Digest::default()
                };
                phase.sample_host(href);
                // The pilot probe is measurement, not workload: keep it
                // out of the traced wall.
                phase.paused_s += self.request(&mut phase, probe.as_deref_mut(), d);
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64() - phase.paused_s;
        if let Some(p) = probe {
            (p.layers.rpc_calls, p.layers.rpc_failures) = p.sink.rpc();
        }
        phase.notes.push(format!(
            "sim_digest {:016x} (first {MIN_REQUESTS} requests)",
            digest.0
        ));
        Ok(phase)
    }
}

impl Hetero {
    /// Issue the next request, check it, and fold its simulated
    /// statistics into `digest`. Returns the host time the pilot probe
    /// took (0 untraced).
    fn request(
        &mut self,
        phase: &mut Phase,
        mut probe: Option<&mut Probe>,
        digest: &mut Digest,
    ) -> f64 {
        let (a, picks) = self.requests.next();
        let app = &self.apps[a];
        let lines: Vec<Vec<String>> = picks
            .iter()
            .map(|&i| self.requests.pools[a][i].clone())
            .collect();
        let opts = EnsembleOptions {
            num_instances: INSTANCES as u32,
            thread_limit: THREAD_LIMIT,
            ..Default::default()
        };
        let name = app.name;

        // dgc-sched runs its pilots inside the driver call with no hook to
        // time them, so the traced run repeats them just before the call.
        let mut pilot_s = 0.0;
        if let Some(p) = probe.as_deref_mut() {
            let t = Instant::now();
            let est = InstanceCosts::estimate(app, &lines, &opts, &GpuSpec::a100_40gb());
            pilot_s = t.elapsed().as_secs_f64();
            p.layers.pilot_s += pilot_s;
            p.layers.pilots += INSTANCES as u64;
            if let Err(e) = est {
                phase.fail(0, format!("{name}: pilot probe failed: {e}"));
            }
        }

        let t0 = Instant::now();
        let req = probe.as_deref_mut().map(|p| {
            let now = p.now();
            p.tracer.span("bench.request", None, now, now, 0)
        });
        let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), DEVICES);
        let mut obs = Recorder::enabled();
        if let Some(p) = probe.as_deref() {
            obs.set_monitor(p.sink.clone());
        }
        let call0 = probe.as_deref().map(|p| p.now());
        let res = run_ensemble_sharded_mem_aware(
            &mut fleet,
            app,
            &lines,
            &opts,
            0,
            Placement::Lpt,
            &mut obs,
            true,
        );
        let call1 = probe.as_deref().map(|p| p.now());
        phase.requests += 1;
        phase.attempted += INSTANCES as u64;
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                phase.fail(
                    INSTANCES as u64,
                    format!("{name}: sharded launch failed: {e}"),
                );
                return pilot_s;
            }
        };
        let export0 = Instant::now();
        let trace = obs.to_chrome_trace();
        let jsonl = metrics_jsonl(&r.ensemble.metrics, &r.launch_metrics());
        let written = write_atomic(self.export_dir.join("trace.json"), &trace)
            .and_then(|()| write_atomic(self.export_dir.join("metrics.jsonl"), &jsonl));
        let export_s = export0.elapsed().as_secs_f64();
        let latency = t0.elapsed().as_secs_f64();
        phase.busy_s += latency;
        phase.latency_s.push(latency);

        if let (Some(p), Some(req), Some(call0), Some(call1)) =
            (probe.as_deref_mut(), req, call0, call1)
        {
            let launch = p.launch(req, (call0, call1), call0 + pilot_s);
            p.tracer
                .span("sched.pilot", Some(launch), call0, call0 + pilot_s, 0);
            p.tracer
                .span("obs.export", Some(req), call1, call1 + export_s, 0);
            p.layers.export_s += export_s;
            p.layers.trace_events += obs.events().len() as u64;
            for d in 0..fleet.len() {
                p.layers.absorb_heap(&fleet.gpu(d).mem.stats());
            }
        }

        let mut errors = Vec::new();
        let mut bad = 0;
        for ((inst, out), &pick) in r
            .ensemble
            .instances
            .iter()
            .zip(&r.ensemble.stdout)
            .zip(&picks)
        {
            if !(inst.succeeded() && checksum_matches(out, self.references[a][pick])) {
                bad += 1;
            }
        }
        if bad > 0 {
            errors.push(format!(
                "{bad} instance(s) failed or printed a wrong checksum"
            ));
        }
        if let Err(e) = written {
            errors.push(format!("export failed: {e}"));
        }
        if let Err(e) = validate_chrome_trace(&trace) {
            errors.push(format!("invalid Chrome trace: {e}"));
        }
        if jsonl.lines().count() != INSTANCES + 1 {
            errors.push("metrics JSONL lacks a record per instance plus the launch".into());
        }
        if errors.is_empty() {
            phase.verified += INSTANCES as u64;
            if latency <= SLO_S {
                phase.within_slo += 1;
            }
        } else {
            phase.fail(INSTANCES as u64, format!("{name}: {}", errors.join("; ")));
        }

        let e = &r.ensemble;
        digest.float(e.total_time_s);
        digest.float(e.kernel_time_s);
        digest.floats(&r.per_device_time_s);
        digest.floats(&e.instance_end_times_s);
        for m in &e.metrics {
            digest.float(m.warp_insts);
            digest.float(m.cycles);
        }
        if let Some(p) = probe {
            let l = &mut p.layers;
            l.sim_insts += e.metrics.iter().map(|m| m.warp_insts).sum::<f64>();
            l.sim_cycles += e.metrics.iter().map(|m| m.cycles).sum::<f64>();
            l.oom_instances += u64::from(e.oom_count());
            l.trace_bytes += trace.len() as u64;
            if let Some(req) = req {
                p.tracer.spans[req].end = p.now();
            }
        }
        pilot_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_requests(seed: u64) -> Vec<Vec<Vec<String>>> {
        let mut r = Requests::new(seed);
        (0..2 * POOL as usize)
            .map(|_| {
                let (a, picks) = r.next();
                picks.iter().map(|&i| r.pools[a][i].clone()).collect()
            })
            .collect()
    }

    #[test]
    fn the_seed_alone_fixes_the_requests() {
        let a = first_requests(5);
        assert_eq!(a, first_requests(5));
        assert_ne!(a, first_requests(6));
        for lines in &a {
            let mut distinct = lines.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), INSTANCES, "a request repeats a line");
        }
    }
}
