//! End-to-end CLI tests: flag routing and exit codes through the real
//! binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ensemble-cli")
}

/// Write an argument file with `lines` xsbench-sized lines and return
/// its path.
fn arg_file(name: &str, lines: usize) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ensemble-cli-test-{name}.txt"));
    let text = "-l 200 -p 100\n".repeat(lines);
    std::fs::write(&path, text).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().unwrap()
}

#[test]
fn arg_shortfall_fails_with_a_diagnostic_naming_both_counts() {
    let f = arg_file("shortfall", 2);
    let out = run(&["xsbench", "-f", f.to_str().unwrap(), "-n", "5"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("5 instances"), "{err}");
    assert!(err.contains("only 2"), "{err}");
    assert!(err.contains("--cycle-args"), "{err}");
}

#[test]
fn cycle_args_opts_back_into_modulo_reuse() {
    let f = arg_file("cycle", 2);
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "-n",
        "5",
        "--cycle-args",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("instances 5 | failed 0"), "{stdout}");
}

#[test]
fn multi_device_run_reports_placement_and_makespan() {
    let f = arg_file("devices", 4);
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--devices",
        "2",
        "--placement",
        "lpt",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("devices 2 (placement lpt)"), "{stdout}");
    assert!(stdout.contains("makespan"), "{stdout}");
}

#[test]
fn unknown_placement_is_a_usage_error() {
    let f = arg_file("placement", 2);
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--devices",
        "2",
        "--placement",
        "optimal",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown placement"), "{err}");
}

#[test]
fn zero_devices_is_a_usage_error() {
    let f = arg_file("zero-devices", 2);
    let out = run(&["xsbench", "-f", f.to_str().unwrap(), "--devices", "0"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn progress_reports_to_stderr_and_quiet_suppresses_it() {
    let f = arg_file("progress", 2);
    let out = run(&["xsbench", "-f", f.to_str().unwrap(), "--progress"]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("progress: waves"), "{err}");
    assert!(err.contains("2/2 ok"), "{err}");
    assert!(err.contains("recovered 0"), "{err}");
    assert!(err.contains("device utilization"), "{err}");
    // The status line goes to stderr only.
    assert!(!String::from_utf8_lossy(&out.stdout).contains("progress:"));
    // --quiet wins over --progress.
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--progress",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("progress:"), "{err}");
}

#[test]
fn batched_progress_reports_rate_and_eta_per_batch() {
    let f = arg_file("progress-eta", 4);
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--batch",
        "2",
        "--progress",
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let err = String::from_utf8_lossy(&out.stderr);
    // Two batches of two: both completion counts appear, with the
    // observed rate and an ETA, before the final summary line.
    assert!(err.contains("progress: 2/4 instances"), "{err}");
    assert!(err.contains("progress: 4/4 instances"), "{err}");
    assert!(err.contains("instances/s | eta"), "{err}");
    assert!(err.contains("progress: waves"), "{err}");
    // --quiet still suppresses every progress line.
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--batch",
        "2",
        "--progress",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    assert!(!String::from_utf8_lossy(&out.stderr).contains("progress:"));
}

#[test]
fn batched_progress_eta_is_finite_or_dashed_never_inf() {
    let f = arg_file("progress-eta-finite", 4);
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--batch",
        "1",
        "--progress",
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let err = String::from_utf8_lossy(&out.stderr);
    let etas: Vec<&str> = err
        .lines()
        .filter_map(|l| l.split(" | eta ").nth(1))
        .collect();
    assert!(!etas.is_empty(), "no eta columns: {err}");
    // Every ETA is either the `--` placeholder or a finite seconds
    // value — `inf`/`NaN` never reach the terminal.
    for eta in etas {
        let ok = eta == "--"
            || eta
                .strip_suffix(" s")
                .and_then(|v| v.parse::<f64>().ok())
                .is_some_and(|v| v.is_finite() && v >= 0.0);
        assert!(ok, "bad eta column {eta:?}: {err}");
    }
    // The degenerate case itself: a ~zero measured rate dashes out.
    assert_eq!(dgc_core::format_eta_s(3, 0.0), "--");
}

#[test]
fn monitor_out_streams_lintable_snapshots_and_leaves_results_bit_identical() {
    let f = arg_file("monitor", 4);
    let om = std::env::temp_dir().join("ensemble-cli-test-monitor.om");
    let trace_on = std::env::temp_dir().join("ensemble-cli-test-monitor-trace-on.json");
    let trace_off = std::env::temp_dir().join("ensemble-cli-test-monitor-trace-off.json");
    let metrics_on = std::env::temp_dir().join("ensemble-cli-test-monitor-metrics-on.jsonl");
    let metrics_off = std::env::temp_dir().join("ensemble-cli-test-monitor-metrics-off.jsonl");
    let base = |trace: &PathBuf, metrics: &PathBuf| {
        vec![
            "xsbench".to_string(),
            "-f".to_string(),
            f.to_str().unwrap().to_string(),
            "--batch".to_string(),
            "2".to_string(),
            "--quiet".to_string(),
            "--trace-out".to_string(),
            trace.to_str().unwrap().to_string(),
            "--metrics-out".to_string(),
            metrics.to_str().unwrap().to_string(),
        ]
    };
    let mut with_monitor = base(&trace_on, &metrics_on);
    with_monitor.extend([
        "--monitor-out".to_string(),
        om.to_str().unwrap().to_string(),
    ]);
    let out = Command::new(bin()).args(&with_monitor).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("wrote monitor snapshots"), "{err}");

    // The snapshot log lints under the strict OpenMetrics re-parser and
    // round-trips bit-exactly through it.
    let log = std::fs::read_to_string(&om).unwrap();
    let series = dgc_monitor::parse_series(&log).expect("snapshot log lints");
    assert!(!series.is_empty());
    let rendered: String = series.iter().map(|s| s.render()).collect();
    assert_eq!(rendered, log, "render(parse(log)) != log");
    let last = series.last().unwrap();
    assert_eq!(last.sum("dgc_instances_total", &[]), Some(4.0), "{log}");
    assert!(
        last.sum("dgc_kernel_launches_total", &[]).unwrap_or(0.0) >= 1.0,
        "{log}"
    );
    assert!(
        last.sum("dgc_monitor_snapshots_total", &[]).unwrap_or(0.0) >= 1.0,
        "{log}"
    );

    // Monitoring is pure observation: the simulated results are
    // bit-identical to a run without --monitor-out.
    let out = Command::new(bin())
        .args(base(&trace_off, &metrics_off))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    assert_eq!(
        std::fs::read(&trace_on).unwrap(),
        std::fs::read(&trace_off).unwrap(),
        "trace bytes changed under monitoring"
    );
    assert_eq!(
        std::fs::read(&metrics_on).unwrap(),
        std::fs::read(&metrics_off).unwrap(),
        "metrics bytes changed under monitoring"
    );
}

#[test]
fn insight_and_flame_outputs_render_from_the_run_graph() {
    let f = arg_file("insight", 2);
    let report = std::env::temp_dir().join("ensemble-cli-test-insight.md");
    let flame = std::env::temp_dir().join("ensemble-cli-test-flame.folded");
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--quiet",
        "--insight-out",
        report.to_str().unwrap(),
        "--flame-out",
        flame.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let md = std::fs::read_to_string(&report).unwrap();
    // The in-process graph replays the reported makespan bit-exactly.
    assert!(md.contains("reproduces it bit-exactly"), "{md}");
    for needle in ["## Critical path", "By stall bucket", "## Wave Gantt"] {
        assert!(md.contains(needle), "missing {needle}: {md}");
    }
    let folded = std::fs::read_to_string(&flame).unwrap();
    dgc_insight::validate_folded(&folded).expect("flamegraph validates");
    assert!(folded.contains("dev0;round 0;xsbench-x2;"), "{folded}");
}

#[test]
fn sharded_insight_report_covers_both_device_lanes() {
    let f = arg_file("insight-sharded", 4);
    let report = std::env::temp_dir().join("ensemble-cli-test-insight-sharded.md");
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--devices",
        "2",
        "--quiet",
        "--insight-out",
        report.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let md = std::fs::read_to_string(&report).unwrap();
    assert!(md.contains("devices: 2"), "{md}");
    assert!(md.contains("reproduces it bit-exactly"), "{md}");
}

#[test]
fn timeline_flag_adds_counter_tracks_to_traces() {
    let f = arg_file("timeline-trace", 2);
    let plain = std::env::temp_dir().join("ensemble-cli-test-trace-plain.json");
    let sampled = std::env::temp_dir().join("ensemble-cli-test-trace-sampled.json");
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--quiet",
        "--trace-out",
        plain.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--quiet",
        "--timeline",
        "--trace-out",
        sampled.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let plain_json = std::fs::read_to_string(&plain).unwrap();
    let sampled_json = std::fs::read_to_string(&sampled).unwrap();
    // Counter tracks appear only under --timeline; without the flag the
    // trace bytes are identical to the pre-telemetry output.
    assert!(
        !plain_json.contains("\"ph\":\"C\""),
        "counters without --timeline"
    );
    assert!(
        sampled_json.contains("\"ph\":\"C\""),
        "no counters with --timeline"
    );
    for track in [
        "\"utilization\"",
        "\"active_teams\"",
        "\"stall_share\"",
        "\"heap_bytes\"",
    ] {
        assert!(sampled_json.contains(track), "missing {track} track");
    }
}

#[test]
fn timeline_flag_fills_timeline_metrics() {
    let f = arg_file("timeline-metrics", 2);
    let m = std::env::temp_dir().join("ensemble-cli-test-timeline-metrics.jsonl");
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--quiet",
        "--timeline",
        "--metrics-out",
        m.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let jsonl = std::fs::read_to_string(&m).unwrap();
    let launch = jsonl
        .lines()
        .find(|l| l.contains("\"record\":\"launch\""))
        .expect("launch record present");
    assert!(launch.contains("\"schema\":6"), "{launch}");
    assert!(launch.contains("\"timeline\":[{"), "{launch}");
    assert!(launch.contains("\"utilization_mean\":"), "{launch}");
    assert!(!launch.contains("\"utilization_mean\":null"), "{launch}");
    // Without --timeline the timeline fields stay null/empty.
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--quiet",
        "--metrics-out",
        m.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let jsonl = std::fs::read_to_string(&m).unwrap();
    let launch = jsonl
        .lines()
        .find(|l| l.contains("\"record\":\"launch\""))
        .expect("launch record present");
    assert!(launch.contains("\"timeline\":[]"), "{launch}");
    assert!(launch.contains("\"utilization_mean\":null"), "{launch}");
}

#[test]
fn multi_device_metrics_carry_schema_v4_fields() {
    let f = arg_file("metrics", 4);
    let m = std::env::temp_dir().join("ensemble-cli-test-metrics-out.jsonl");
    let out = run(&[
        "xsbench",
        "-f",
        f.to_str().unwrap(),
        "--devices",
        "2",
        "--quiet",
        "--metrics-out",
        m.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let jsonl = std::fs::read_to_string(&m).unwrap();
    let launch = jsonl
        .lines()
        .find(|l| l.contains("\"record\":\"launch\""))
        .expect("launch record present");
    assert!(launch.contains("\"devices\":2"), "{launch}");
    assert!(launch.contains("\"makespan_s\""), "{launch}");
    assert!(
        jsonl
            .lines()
            .filter(|l| l.contains("\"record\":\"instance\""))
            .all(|l| l.contains("\"device\":")),
        "every instance record names its device"
    );
}

#[test]
fn zero_instances_or_pack_exit_2_instead_of_running_one() {
    let f = arg_file("zero", 1);
    for (flag, msg) in [
        ("-n", "bad value '0' for -n"),
        ("--pack", "bad value '0' for --pack"),
    ] {
        let out = run(&["xsbench", "-f", f.to_str().unwrap(), flag, "0"]);
        assert_eq!(out.status.code(), Some(2), "{flag} 0");
        assert!(out.stdout.is_empty(), "{flag} 0 ran an instance");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(msg), "{err}");
    }
}
