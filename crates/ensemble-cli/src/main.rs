//! The GPU ensembler command line — the paper's Fig. 5(c) usage:
//!
//! ```text
//! ensemble-cli xsbench -f arguments.txt -n 4 -t 128
//! ```
//!
//! Runs `-n` instances of a built-in benchmark concurrently in one
//! simulated kernel launch, each instance taking its command line from one
//! line of the `-f` argument file. `--pack M` selects the §3.1 packed
//! mapping (M instances per thread block). Every instance's stdout is
//! printed, followed by a launch summary.
//!
//! Observability: `--trace-out t.json` writes a Chrome trace-event
//! timeline of the launch (load in Perfetto / `chrome://tracing`),
//! `--metrics-out m.jsonl` writes one JSON line of metrics per instance
//! plus one for the launch, and `--quiet` suppresses per-instance output.
//! `--timeline` samples device utilization over time (`--sample-interval
//! <cycles>` tunes the rate), adding Chrome counter tracks to the trace
//! and the schema-v5 `timeline` array to the metrics; `--progress` prints
//! status lines to stderr (suppressed by `--quiet`): completed/total
//! instances, the observed instances-per-second rate and an ETA after
//! every launch (`eta --` while the measured rate is still ~zero).
//!
//! Monitoring: `--monitor-out snapshots.om` attaches the `dgc-monitor`
//! operational-metrics registry to the run and streams OpenMetrics
//! snapshot blocks to the file from a background thread every
//! `--monitor-interval <ms>` (default 1000), plus a guaranteed final
//! snapshot at exit. Lint, SLO-gate or render the log with the
//! `dgc-monitor` binary. Attaching the monitor never changes the
//! simulated results — traces and metrics stay bit-identical.
//!
//! Post-hoc analysis: `--insight-out report.md` writes the `dgc-insight`
//! run analysis (critical path whose span sum reproduces the reported
//! makespan bit-exactly, blame tables, wave Gantt) and `--flame-out
//! stacks.folded` writes an inferno-compatible folded-stack flamegraph,
//! both rendered from the run's in-process span graph.
//!
//! Every run goes through one driver, `dgc_sched::run_ensemble_plan`; the
//! flags below only fill in its `RunPlan`.
//!
//! Fault tolerance: `--faults plan.json` injects a deterministic fault
//! plan; any recovery flag arms the recovery policy, which re-launches
//! failed instances (`--max-attempts`), halves the batch on device OOM
//! (`--auto-batch`), reaps hung instances (`--instance-timeout <cycles>`)
//! and can abort on the first unrecoverable instance (`--fail-fast`). The
//! exit status is non-zero whenever any instance ends failed or skipped
//! after recovery.
//!
//! Multi-device: `--devices M` shards the ensemble across `M` simulated
//! A100s; `--placement round-robin|greedy|lpt` picks the policy (the
//! informed ones bin-pack by pilot-run cost). Combined with the recovery
//! flags, a dead device re-shards its instances onto the survivors. The
//! default `-n` is one instance per argument line; with `--cycle-args`
//! the lines are reused modulo when `-n` exceeds the file.
//!
//! Memory-aware packing (default on): pilot runs record each distinct
//! argument line's peak heap bytes, placement refuses shards that would
//! exceed device capacity, every launch is capped at the capacity fit,
//! and the heap recycles freed blocks through per-team
//! free lists. `--no-mem-aware` restores the bit-identical legacy
//! behavior (first-fit only, memory-blind placement, OOM-then-halve).

use dgc_core::{parse_ensemble_cli, EnsembleError, EnsembleOptions, MappingStrategy};
use dgc_fault::FaultPlan;
use dgc_monitor::{MonitorRegistry, MonitorWriter};
use dgc_obs::{metrics_jsonl, Recorder};
use dgc_sched::{run_ensemble_plan, FaultSource, Placement, RecoveryPolicy, RunPlan};
use gpu_arch::GpuSpec;
use gpu_sim::DeviceFleet;

fn usage() -> ! {
    eprintln!("usage: ensemble-cli <app> -f <arguments file> [-n <instances>] [-t <thread limit>] [--pack <M>] [--batch <B>]");
    eprintln!(
        "                    [--trace-out <trace.json>] [--metrics-out <metrics.jsonl>] [--quiet] [--cycle-args]"
    );
    eprintln!("                    [--faults <plan.json>] [--max-attempts <K>] [--auto-batch] [--instance-timeout <cycles>] [--fail-fast] [--retry-jitter <seed>]");
    eprintln!("                    [--devices <M>] [--placement round-robin|greedy|lpt]");
    eprintln!("                    [--mem-aware|--no-mem-aware]");
    eprintln!("                    [--timeline] [--sample-interval <cycles>] [--progress]");
    eprintln!("                    [--insight-out <report.md>] [--flame-out <stacks.folded>]");
    eprintln!("                    [--monitor-out <snapshots.om>] [--monitor-interval <ms>]");
    eprintln!("  apps: xsbench, rsbench, amgmk, pagerank");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let app_name = args.remove(0);
    let Some(app) = dgc_apps::app_by_name(&app_name) else {
        eprintln!("unknown application '{app_name}'");
        usage();
    };
    let cli = match parse_ensemble_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };
    let text = match std::fs::read_to_string(&cli.arg_file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", cli.arg_file);
            std::process::exit(1);
        }
    };
    // The script-language superset (§3.2 future work): plain files parse
    // identically, @repeat/@for directives generate lines.
    let arg_lines = match dgc_core::expand_arg_script(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    for (i, line) in arg_lines.iter().enumerate() {
        if let Err(e) = dgc_apps::validate_args(&app_name, line) {
            eprintln!("error: argument line {}: {e}", i + 1);
            std::process::exit(2);
        }
    }

    let opts = EnsembleOptions {
        num_instances: cli.num_instances.unwrap_or(arg_lines.len() as u32),
        thread_limit: cli.thread_limit,
        cycle_args: cli.cycle_args,
        sample_interval: cli.sample_interval,
        mapping: if cli.pack > 1 {
            MappingStrategy::Packed {
                per_block: cli.pack,
            }
        } else {
            MappingStrategy::OnePerTeam
        },
        ..Default::default()
    };
    let placement: Placement = match cli.placement.parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };

    // The recorder costs nothing unless a timeline was asked for.
    let mut obs = if cli.trace_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };

    // --monitor-out: stream OpenMetrics snapshots of the run from a
    // background monitor thread. The registry is a pure observation
    // sink — attaching it never changes the simulated results.
    let monitor_writer = match &cli.monitor_out {
        Some(path) => {
            let registry = std::sync::Arc::new(MonitorRegistry::new());
            obs.set_monitor(registry.clone());
            match MonitorWriter::spawn(
                registry,
                path.into(),
                std::time::Duration::from_millis(cli.monitor_interval_ms),
            ) {
                Ok(w) => Some(w),
                Err(e) => {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => None,
    };

    // Any recovery-related flag arms the recovery policy; without one
    // the run gets a single attempt, like the paper's loader.
    let resilient = cli.faults.is_some()
        || cli.auto_batch
        || cli.instance_timeout.is_some()
        || cli.fail_fast
        || cli.retry_jitter.is_some();
    let faults = cli.faults.as_ref().map(|path| {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match FaultPlan::from_json(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            }
        }
    });
    let recovery = if resilient {
        RecoveryPolicy {
            max_attempts: cli.max_attempts,
            oom_split: cli.auto_batch,
            instance_cycle_budget: cli.instance_timeout,
            fail_fast: cli.fail_fast,
            jitter_seed: cli.retry_jitter,
            ..Default::default()
        }
    } else {
        RecoveryPolicy::single_attempt()
    };
    // --progress: completed/total instances, the observed rate and an
    // ETA after every launch.
    let started = std::time::Instant::now();
    let mut report_progress = |done: u32, total: u32| {
        if done == 0 {
            return;
        }
        let elapsed_s = started.elapsed().as_secs_f64();
        let rate = if elapsed_s > 0.0 {
            done as f64 / elapsed_s
        } else {
            0.0
        };
        let eta = dgc_core::format_eta_s(u64::from(total.saturating_sub(done)), rate);
        eprintln!("progress: {done}/{total} instances | {rate:.1} instances/s | eta {eta}");
    };
    let plan = RunPlan {
        batch: (cli.batch > 0).then_some(cli.batch),
        placement,
        faults: faults.as_ref().map(|p| p as &dyn FaultSource),
        recovery,
        mem_aware: cli.mem_aware,
        progress: (cli.progress && !cli.quiet)
            .then_some(&mut report_progress as &mut dyn FnMut(u32, u32)),
    };
    let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), cli.devices);
    let run = match run_ensemble_plan(&mut fleet, &app, &arg_lines, &opts, plan, &mut obs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            // A plan the loop rejects is a bad argument (usage, exit 2).
            let code = if matches!(e, EnsembleError::InvalidPlan(_)) {
                2
            } else {
                1
            };
            std::process::exit(code);
        }
    };
    let result = &run.ensemble;

    if !cli.quiet {
        for (i, out) in result.stdout.iter().enumerate() {
            println!("=== instance {i} ===");
            print!("{out}");
            match &result.instances[i] {
                o if o.oom => println!("[device out of memory]"),
                o => {
                    if let Some(err) = &o.error {
                        println!("[trap: {err}]");
                    }
                }
            }
        }
    }
    println!("=== launch summary ===");
    println!("{}", result.report.summary());
    println!(
        "kernel time {:.3} ms | total (with transfers) {:.3} ms | RPC calls {}",
        result.kernel_time_s * 1e3,
        result.total_time_s * 1e3,
        result.rpc_stats.total()
    );
    if cli.devices > 1 {
        let per: Vec<String> = run
            .per_device_time_s
            .iter()
            .map(|t| format!("{:.3}", t * 1e3))
            .collect();
        print!(
            "devices {} (placement {}) | makespan {:.3} ms | per-device ms [{}]",
            cli.devices,
            placement.name(),
            run.ensemble.total_time_s * 1e3,
            per.join(", ")
        );
        if run.dead_devices.is_empty() {
            println!();
        } else {
            let d: Vec<String> = run.dead_devices.iter().map(|d| d.to_string()).collect();
            println!(" | dead devices [{}]", d.join(", "));
        }
    }

    let failed = result.failed_count();
    let oom = result.oom_count();
    let observing = cli.quiet || cli.trace_out.is_some() || cli.metrics_out.is_some();
    if failed > 0 || observing {
        println!(
            "instances {} | failed {failed} | oom {oom}",
            result.instances.len()
        );
    }
    // --progress: status on stderr, suppressed by --quiet. The simulated
    // run is synchronous, so the periodic status collapses into one line
    // per launch, emitted at completion.
    if cli.progress && !cli.quiet {
        let recovered = run.recovery.recovered;
        // Timeline-sampled mean when --timeline ran; otherwise the
        // launch-aggregate issue utilization.
        let util = dgc_core::utilization_mean(&result.timeline.issue_rates())
            .unwrap_or(result.report.issue_utilization);
        eprintln!(
            "progress: waves {} | instances {}/{} ok | recovered {recovered} | device utilization {:.1}%",
            result.report.waves,
            result.instances.len() as u32 - failed,
            result.instances.len(),
            util * 100.0
        );
    }
    if resilient {
        let rec = &run.recovery;
        println!(
            "recovery: attempts {} | retried {} | recovered {} | unrecovered {} | oom splits {} (final batch {}) | backoff {:.3} ms",
            rec.attempts,
            rec.retried,
            rec.recovered,
            rec.unrecovered,
            rec.oom_splits,
            rec.final_batch,
            rec.backoff_s * 1e3
        );
        if rec.skipped > 0 {
            println!("fail-fast: {} instance(s) skipped", rec.skipped);
        }
    }

    if let Some(path) = &cli.trace_out {
        if let Err(e) = dgc_obs::write_atomic(path, obs.to_chrome_trace()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote trace {path} ({} events)", obs.events().len());
    }
    if let Some(path) = &cli.insight_out {
        // Every driver reports its makespan as total_time_s (sharded
        // drivers set it to the fleet makespan), so the report's
        // bit-exactness check compares against the right number.
        let report = dgc_insight::render_report(&result.graph, Some(result.total_time_s));
        if let Err(e) = dgc_obs::write_atomic(path, report) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote insight report {path}");
    }
    if let Some(path) = &cli.flame_out {
        let stacks = dgc_insight::folded_stacks(&result.graph);
        if let Err(e) = dgc_obs::write_atomic(path, &stacks) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote flamegraph {path} ({} stacks)",
            stacks.lines().count()
        );
    }
    if let Some(path) = &cli.metrics_out {
        let jsonl = metrics_jsonl(&result.metrics, &run.launch_metrics());
        if let Err(e) = dgc_obs::write_atomic(path, jsonl) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote metrics {path} ({} instance records + 1 launch record)",
            result.metrics.len()
        );
    }
    if let Some(writer) = monitor_writer {
        // Joins the monitor thread after a guaranteed final snapshot, so
        // the log always ends with the run's complete totals.
        let path = cli.monitor_out.as_deref().unwrap_or_default().to_string();
        if let Err(e) = writer.stop() {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote monitor snapshots {path}");
    }

    std::process::exit(if failed == 0 { 0 } else { 1 });
}
