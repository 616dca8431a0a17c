//! The repository benchmark. It drives the workspace from outside through
//! each layer's public functions, times those calls, checks every output
//! and prints each metric by name and unit. See `METRICS.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6_sweep|hetero_sharded|serve_open_loop \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off, with host
//! time scaled to nominal host speed by an interleaved reference kernel
//! (see `hostref`). `--trace 1` spends the first half of the time untraced
//! and the second half traced, and reports the per-layer metrics as
//! measured, a self-time table and the tracing overhead. The last line of
//! standard output is a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the exit code is 1 when any output is wrong and 2 on bad
//! arguments.

mod check;
mod fig6;
mod hetero;
mod hostref;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use hostref::HostRef;
use layers::Probe;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Latency percentiles need at least this many samples per run: p90
/// then has ten samples beyond it.
pub const MIN_REQUESTS: usize = 100;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// End-to-end metrics (tracing off), as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("within_slo_ratio", "ratio"),
    ("capacity_jobs_per_s", "1/s"),
    ("host_peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), as listed in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 31] = [
    ("gpu_sim.functional_s", "s"),
    ("gpu_sim.team_p50_s", "s"),
    ("gpu_sim.team_p90_s", "s"),
    ("gpu_sim.teams", "count"),
    ("gpu_sim.post_s", "s"),
    ("gpu_sim.sim_insts", "count"),
    ("gpu_sim.sim_cycles", "cycles"),
    ("compile.s", "s"),
    ("core.launch_p50_s", "s"),
    ("core.launch_p90_s", "s"),
    ("sched.pilot_s", "s"),
    ("sched.pilots", "count"),
    ("gpu_mem.peak_bytes", "bytes"),
    ("gpu_mem.recycle_ratio", "ratio"),
    ("gpu_mem.alloc_fallbacks", "count"),
    ("gpu_mem.oom_instances", "count"),
    ("host_rpc.calls", "count"),
    ("host_rpc.failures", "count"),
    ("obs.export_s", "s"),
    ("obs.trace_bytes", "bytes"),
    ("obs.trace_events", "count"),
    ("serve.admit_p50_s", "s"),
    ("serve.admit_p90_s", "s"),
    ("serve.journal_bytes", "bytes"),
    ("serve.wave_p50_s", "s"),
    ("serve.wave_p90_s", "s"),
    ("serve.wave_jobs_mean", "count"),
    ("serve.busy_ratio", "ratio"),
    ("serve.queue_wait_p90_s", "s"),
    ("loadgen.lag_p90_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one measured phase of a workload did.
#[derive(Default)]
pub struct Phase {
    /// Requests (ensembles, or jobs for serve) issued.
    pub requests: u64,
    /// Operations (instances, or jobs for serve) attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// Operations completed with a verified output.
    pub verified: u64,
    /// Host wall time of the phase, less `paused_s`.
    pub wall_s: f64,
    /// Host time inside the phase spent on measurement rather than on the
    /// workload: reference samples, and the traced run's pilot probe.
    pub paused_s: f64,
    /// Host time spent inside calls into the workspace.
    pub busy_s: f64,
    /// Per-request latency.
    pub latency_s: Vec<f64>,
    /// Requests that completed correctly within the workload's limit.
    pub within_slo: u64,
    /// Arrivals follow a schedule rather than the last completion.
    pub open_loop: bool,
    /// Extra report lines (digests, sample counts).
    pub notes: Vec<String>,
}

impl Phase {
    /// Take one host-speed reference sample, paused out of the phase.
    pub fn sample_host(&mut self, href: &mut HostRef) {
        let before = href.total_s();
        href.sample();
        self.paused_s += href.total_s() - before;
    }

    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.mismatches.push(why);
    }

    /// `Err` with the first mismatch, if there was one.
    pub fn into_result(self) -> Result<Phase, String> {
        match self.mismatches.first() {
            Some(m) => Err(m.clone()),
            None => Ok(self),
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Generate the inputs from `seed`, create what the run needs under
    /// `scratch` and warm up.
    fn setup(seed: u64, scratch: &Path) -> Result<Self, String>;
    /// Host time `Loader::compile_app` took for the workload's apps.
    fn compile_s(&self) -> f64;
    /// Measure for about `seconds`, sampling `href` along the way; traced
    /// when a probe is given.
    fn run(
        &mut self,
        seconds: f64,
        probe: Option<&mut Probe>,
        href: &mut HostRef,
    ) -> Result<Phase, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// A run's outcome before printing.
struct Outcome {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

fn measure<W: Workload>(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut compiles = Vec::new();
    let mut workload = None;
    let mut href = HostRef::new();
    for _ in 0..SETUPS {
        // The previous set-up's state is dropped first, so every set-up
        // starts from the same heap.
        drop(workload.take());
        let t = Instant::now();
        let w = W::setup(args.seed, scratch)?;
        setups.push(t.elapsed().as_secs_f64());
        compiles.push(w.compile_s());
        workload = Some(w);
    }
    let mut w = workload.expect("SETUPS > 0");
    let setup_s = stats::median(&setups);

    if !args.trace {
        let phase = w.run(args.seconds, None, &mut href)?;
        let raw = end_to_end(&phase, 1.0);
        // Set-up ran seconds before the phase, well within the minutes the
        // host's speed takes to drift, so the phase's slowdown covers it.
        let slowdown = href.slowdown();
        let mut values = end_to_end(&phase, slowdown);
        values.insert("setup_s", setup_s / slowdown);
        values.insert("host_peak_rss_mb", peak_rss_mb()?);
        let mut notes = phase.notes;
        notes.push(format!(
            "host slowdown {slowdown:.4} (median of {} reference samples over the nominal {} ms); timed metrics are at nominal host speed",
            href.samples(),
            hostref::NOMINAL_S * 1e3
        ));
        notes.push(format!(
            "set-ups took {} s",
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        notes.push(format!(
            "as measured: setup_s {setup_s:.6}{}",
            raw.iter()
                .map(|(n, v)| format!(", {n} {v:.6}"))
                .collect::<String>()
        ));
        if let Some(t) = stats::reportable_tail(&phase.latency_s) {
            notes.push(format!(
                "latency tail p{} = {:.6} s over {} samples",
                t.percentile, t.value, t.samples
            ));
        }
        notes.push(format!(
            "error_rate = {} (failed {} of {} attempted)",
            ratio(phase.failed, phase.attempted),
            phase.failed,
            phase.attempted
        ));
        return Ok(Outcome {
            attempted: phase.attempted,
            failed: phase.failed,
            mismatches: phase.mismatches,
            metrics: select(&END_TO_END, &values),
            notes,
        });
    }

    let plain = w.run(args.seconds / 2.0, None, &mut href)?;
    let mut probe = Probe::new();
    let traced = w.run(args.seconds / 2.0, Some(&mut probe), &mut href)?;
    probe.layers.compile_s = stats::median(&compiles);
    let per_op = |p: &Phase| p.busy_s / p.attempted.max(1) as f64;
    probe.layers.overhead_ratio = per_op(&traced) / per_op(&plain);
    let values = probe.layers.metrics();
    let mut notes = traced.notes.clone();
    notes.push(format!(
        "host slowdown {:.4} over the run; per-layer times are as measured",
        href.slowdown()
    ));
    notes.extend(share_table(&probe, traced.wall_s));
    let spans = scratch
        .parent()
        .expect("scratch lives in the output directory")
        .join(format!("{}-seed{}.spans.json", args.workload, args.seed));
    std::fs::write(&spans, probe.tracer.to_chrome_trace())
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    notes.push(format!("spans written to {}", spans.display()));
    let mut mismatches = plain.mismatches;
    mismatches.extend(traced.mismatches);
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        mismatches,
        metrics: select(&PER_LAYER, &values),
        notes,
    })
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The end-to-end metrics a phase yields, with host time divided by
/// `slowdown`. Rates are over the whole phase, which on a drifting host
/// spread less from run to run than medians over its rounds. The open
/// loop's wall time is set by its arrival schedule, not by host speed, so
/// its `instances_per_s` is not scaled; nor is `within_slo_ratio`, an
/// outcome counted against the raw limit.
fn end_to_end(p: &Phase, slowdown: f64) -> BTreeMap<&'static str, f64> {
    let per_wall = p.verified as f64 / p.wall_s;
    let per_wall = if p.open_loop {
        per_wall
    } else {
        per_wall * slowdown
    };
    let per_busy = p.verified as f64 / p.busy_s;
    BTreeMap::from([
        ("instances_per_s", per_wall),
        (
            "latency_p50_s",
            stats::percentile(&p.latency_s, 50.0) / slowdown,
        ),
        (
            "latency_p90_s",
            stats::percentile(&p.latency_s, 90.0) / slowdown,
        ),
        ("within_slo_ratio", ratio(p.within_slo, p.requests)),
        ("capacity_jobs_per_s", per_busy * slowdown),
    ])
}

fn select(
    names: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    names
        .iter()
        .map(|&(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            (name, v, unit)
        })
        .collect()
}

/// Self time per layer as a share of the traced phase's wall time.
fn share_table(probe: &Probe, wall_s: f64) -> Vec<String> {
    let selfs = probe.tracer.self_times();
    let in_spans: f64 = probe
        .tracer
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum();
    let mut rows: Vec<(&str, f64)> = selfs.into_iter().collect();
    rows.push(("(outside any span)", (wall_s - in_spans).max(0.0)));
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = vec![
        format!("layer self time over {wall_s:.3} s traced wall:"),
        format!("  {:<24} {:>10} {:>8}", "layer", "self s", "share"),
    ];
    for (name, s) in rows {
        out.push(format!(
            "  {:<24} {:>10.4} {:>7.2}%",
            name,
            s,
            100.0 * s / wall_s
        ));
    }
    out.push(format!(
        "  trace.overhead_ratio = {:.4}",
        probe.layers.overhead_ratio
    ));
    out
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            // A non-finite value is already a mismatch; keep the line JSON.
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fig6_sweep|hetero_sharded|serve_open_loop> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = PathBuf::from("perfbench").join("out");
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let outcome = match args.workload.as_str() {
        "fig6_sweep" => measure::<fig6::Fig6>(&args, &scratch),
        "hetero_sharded" => measure::<hetero::Hetero>(&args, &scratch),
        "serve_open_loop" => measure::<serve::Serve>(&args, &scratch),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "workload {} | seed {} | seconds {} | trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut mismatches = outcome.mismatches;
    for (name, value, _) in &outcome.metrics {
        if !value.is_finite() {
            mismatches.push(format!("metric {name} is not a finite number"));
        }
    }
    for m in &mismatches {
        println!("MISMATCH {m}");
    }
    let correct = mismatches.is_empty() && outcome.failed == 0;
    print_result(correct, outcome.attempted, outcome.failed, &outcome.metrics);
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On a host running at half speed (slowdown 2), host time halves and
    /// rates double; the open loop's schedule-bound rate and the SLO
    /// outcome stay as measured.
    #[test]
    fn slowdown_scales_host_time_but_not_the_arrival_schedule() {
        let mut p = Phase {
            requests: 4,
            verified: 8,
            wall_s: 4.0,
            busy_s: 2.0,
            latency_s: vec![0.5; 4],
            within_slo: 3,
            ..Phase::default()
        };
        let m = end_to_end(&p, 2.0);
        assert_eq!(m["instances_per_s"], 4.0);
        assert_eq!(m["capacity_jobs_per_s"], 8.0);
        assert_eq!(m["latency_p50_s"], 0.25);
        assert_eq!(m["latency_p90_s"], 0.25);
        assert_eq!(m["within_slo_ratio"], 0.75);
        p.open_loop = true;
        let m = end_to_end(&p, 2.0);
        assert_eq!(m["instances_per_s"], 2.0);
        assert_eq!(m["capacity_jobs_per_s"], 8.0);
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(serde_json::Value::Array(items)) = v
                .as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == key))
                .map(|(_, x)| x)
            else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            items
                .iter()
                .map(|m| {
                    let o = m.as_object().expect("metric entries are objects");
                    let get = |k: &str| match o.iter().find(|(n, _)| n == k) {
                        Some((_, serde_json::Value::Str(s))) => s.clone(),
                        _ => panic!("metric entry without `{k}`"),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
