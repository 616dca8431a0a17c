//! The round loop against the driver-matrix snapshot.
//!
//! `data/driver_matrix.txt` holds Chrome-trace and metrics-JSONL digests
//! of the five run presets (plain, batched, resilient, sharded,
//! sharded-resilient) × n ∈ {1, 3, 6} × batch ∈ {0, 2} × fault ∈ {none,
//! one scattered trap}, taken from the separate drivers the round loop
//! replaced. Every row must reproduce byte for byte, except the rows in
//! [`INTENTIONAL`], where one accounting rule was picked for what the old
//! drivers did differently; those must differ, so the list stays exact.

use device_libc::dl_printf;
use dgc_core::{AppContext, EnsembleOptions, HostApp};
use dgc_fault::FaultPlan;
use dgc_obs::{metrics_jsonl, Recorder};
use dgc_sched::{run_ensemble_plan, FaultSource, Placement, RecoveryPolicy, RunPlan};
use gpu_arch::{DeviceRegistry, GpuSpec};
use gpu_sim::{DeviceFleet, KernelError, TeamCtx};

const SNAPSHOT: &str = include_str!("data/driver_matrix.txt");

const KERNEL_NAME: &str = "launch record: kernel is bench-x<N> after the whole ensemble and \
     final_batch is the batch bound in effect, like the resilient driver (the batched driver \
     named its last batch, bench-x<k>, and reported N)";
const FINAL_BATCH: &str = "launch record: final_batch is the batch bound in effect, like the \
     resilient driver (the sharded driver reported N)";
const FLEET_ACCOUNTING: &str = "fleet rounds: kernel_time_s adds the slowest lane's kernel sum \
     (was the sum over devices); instance end_time_s and the latency percentiles sit on the \
     kernel-time axis (were offset by transfers and backoff too)";
const FLEET_MARKERS: &str = "fleet lanes record an `instance <g> failed` recovery marker per \
     failed instance, like one-device runs (the old fleet driver recorded none)";

/// `(row, digest, reason)` for every row that changes on purpose.
const INTENTIONAL: &[(&str, &str, &str)] = &[
    ("batched n=3 batch=2 fault=none", "metrics", KERNEL_NAME),
    ("batched n=6 batch=2 fault=none", "metrics", KERNEL_NAME),
    ("sharded n=3 batch=2 fault=none", "metrics", FINAL_BATCH),
    ("sharded n=6 batch=2 fault=none", "metrics", FINAL_BATCH),
    (
        "sharded-resilient n=1 batch=0 fault=trap",
        "metrics",
        FLEET_ACCOUNTING,
    ),
    (
        "sharded-resilient n=1 batch=2 fault=trap",
        "metrics",
        FLEET_ACCOUNTING,
    ),
    (
        "sharded-resilient n=3 batch=0 fault=none",
        "metrics",
        FLEET_ACCOUNTING,
    ),
    (
        "sharded-resilient n=3 batch=0 fault=trap",
        "metrics",
        FLEET_ACCOUNTING,
    ),
    (
        "sharded-resilient n=3 batch=2 fault=none",
        "metrics",
        FLEET_ACCOUNTING,
    ),
    (
        "sharded-resilient n=3 batch=2 fault=trap",
        "metrics",
        FLEET_ACCOUNTING,
    ),
    (
        "sharded-resilient n=6 batch=0 fault=none",
        "metrics",
        FLEET_ACCOUNTING,
    ),
    (
        "sharded-resilient n=6 batch=0 fault=trap",
        "metrics",
        FLEET_ACCOUNTING,
    ),
    (
        "sharded-resilient n=6 batch=2 fault=none",
        "metrics",
        FLEET_ACCOUNTING,
    ),
    (
        "sharded-resilient n=6 batch=2 fault=trap",
        "metrics",
        FLEET_ACCOUNTING,
    ),
    (
        "sharded-resilient n=1 batch=0 fault=trap",
        "trace",
        FLEET_MARKERS,
    ),
    (
        "sharded-resilient n=1 batch=2 fault=trap",
        "trace",
        FLEET_MARKERS,
    ),
    (
        "sharded-resilient n=3 batch=0 fault=trap",
        "trace",
        FLEET_MARKERS,
    ),
    (
        "sharded-resilient n=3 batch=2 fault=trap",
        "trace",
        FLEET_MARKERS,
    ),
    (
        "sharded-resilient n=6 batch=0 fault=trap",
        "trace",
        FLEET_MARKERS,
    ),
    (
        "sharded-resilient n=6 batch=2 fault=trap",
        "trace",
        FLEET_MARKERS,
    ),
];

const MODULE: &str = r#"
module "bench" {
  func @main arity=2 calls(@printf, @malloc, @atoi)
  extern func @printf variadic
  extern func @malloc
  extern func @atoi
}
"#;

fn stream_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    let n: u64 = cx
        .argv
        .iter()
        .position(|a| a == "-n")
        .and_then(|p| cx.argv.get(p + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let buf = team.serial("alloc", |lane| lane.dev_alloc(8 * n))?;
    team.parallel_for("init", n, |i, lane| lane.st_idx::<f64>(buf, i, i as f64))?;
    let sum = team.parallel_for_reduce_f64("sum", n, |i, lane| lane.ld_idx::<f64>(buf, i))?;
    let instance = cx.instance;
    team.serial("print", |lane| {
        dl_printf(
            lane,
            "instance %d sum %.1f\n",
            &[instance.into(), sum.into()],
        )?;
        Ok(())
    })?;
    Ok(0)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run one matrix row through the round loop: `(trace, metrics JSONL)`.
fn run_row(preset: &str, n: u32, batch: u32, trap: bool) -> (String, String) {
    let app = HostApp::new("bench", MODULE, stream_main);
    let lines = dgc_core::parse_arg_file("-n 60\n-n 120\n-n 40\n").unwrap();
    let opts = EnsembleOptions {
        cycle_args: true,
        num_instances: n,
        thread_limit: 32,
        ..Default::default()
    };
    let faults = if trap {
        FaultPlan::scatter_traps(7, n, 1)
    } else {
        FaultPlan::default()
    };
    let fleet_run = preset.starts_with("sharded");
    let resilient = preset.ends_with("resilient");
    let mut fleet = if fleet_run {
        DeviceFleet::from_registry(&DeviceRegistry::parse("a100,a100*0.5").unwrap())
    } else {
        DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 1)
    };
    let plan = RunPlan {
        batch: (batch > 0).then_some(batch),
        placement: if fleet_run {
            Placement::Lpt
        } else {
            Placement::RoundRobin
        },
        faults: resilient.then_some(&faults as &dyn FaultSource),
        recovery: if resilient {
            RecoveryPolicy::default()
        } else {
            RecoveryPolicy::single_attempt()
        },
        ..RunPlan::default()
    };
    let mut obs = Recorder::enabled();
    let res = run_ensemble_plan(&mut fleet, &app, &lines, &opts, plan, &mut obs).unwrap();
    (
        obs.to_chrome_trace(),
        metrics_jsonl(&res.ensemble.metrics, &res.launch_metrics()),
    )
}

#[test]
fn round_loop_reproduces_the_driver_matrix() {
    let mut problems = Vec::new();
    let mut rows = 0;
    for line in SNAPSHOT.lines().filter(|l| !l.starts_with('#')) {
        let (key, digests) = line.split_at(line.find(" trace=").expect("row has digests"));
        let mut words = key.split(' ');
        let preset = words.next().unwrap();
        let field = |w: Option<&str>| w.unwrap().split('=').nth(1).unwrap().to_string();
        let n: u32 = field(words.next()).parse().unwrap();
        let batch: u32 = field(words.next()).parse().unwrap();
        let trap = field(words.next()) == "trap";
        let (trace, metrics) = run_row(preset, n, batch, trap);
        for (kind, got) in [("trace", &trace), ("metrics", &metrics)] {
            let want = digests
                .split_whitespace()
                .find_map(|d| d.strip_prefix(&format!("{kind}=")))
                .expect("row has both digests");
            let got = format!("{:016x}", fnv1a(got.as_bytes()));
            let intentional = INTENTIONAL.iter().any(|&(k, d, _)| k == key && d == kind);
            match (intentional, got == want) {
                (false, false) => problems.push(format!("{key}: {kind} digest drifted")),
                (true, true) => problems.push(format!("{key}: {kind} listed as changed")),
                _ => {}
            }
        }
        rows += 1;
    }
    assert_eq!(rows, 36, "the snapshot covers the whole matrix");
    assert!(problems.is_empty(), "{problems:#?}");
}
