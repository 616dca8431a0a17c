//! End-to-end recovery scenarios: injected traps, the OOM-driven batch
//! split (the paper's §4.3 memory wall as a recoverable event), watchdog
//! timeouts, RPC corruption, and fail-fast.

use device_libc::dl_printf;
use dgc_core::{AppContext, EnsembleError, EnsembleOptions, HostApp};
use dgc_fault::{FaultKind, FaultPlan, FaultSpec};
use dgc_obs::Recorder;
use dgc_sched::{run_ensemble_plan, RecoveryPolicy, RunPlan, RunResult};
use gpu_arch::GpuSpec;
use gpu_sim::{DeviceFleet, KernelError, TeamCtx};

const MODULE: &str = r#"
module "bench" {
  func @main arity=2 calls(@printf, @malloc, @atoi)
  extern func @printf variadic
  extern func @malloc
  extern func @atoi
}
"#;

/// Streams `n` doubles (from `-n <n>`), prints a digest.
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

fn app() -> HostApp {
    HostApp::new("bench", MODULE, stream_main)
}

fn lines(text: &str) -> Vec<Vec<String>> {
    dgc_core::parse_arg_file(text).unwrap()
}

fn opts(n: u32) -> EnsembleOptions {
    EnsembleOptions {
        cycle_args: true,
        num_instances: n,
        thread_limit: 32,
        ..Default::default()
    }
}

fn a100() -> DeviceFleet {
    DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 1)
}

/// The resilient preset: one device, `plan` injected, `policy` recovering,
/// `batch` instances per launch (`0` = unbounded).
#[allow(clippy::too_many_arguments)]
fn resilient(
    fleet: &mut DeviceFleet,
    app: &HostApp,
    arg_lines: &[Vec<String>],
    opts: &EnsembleOptions,
    batch: u32,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    obs: &mut Recorder,
) -> Result<RunResult, EnsembleError> {
    let plan = RunPlan {
        batch: (batch > 0).then_some(batch),
        faults: Some(plan),
        recovery: policy.clone(),
        ..RunPlan::default()
    };
    run_ensemble_plan(fleet, app, arg_lines, opts, plan, obs)
}

fn trap_on(instance: u32, attempt: Option<u32>) -> FaultPlan {
    FaultPlan {
        device_deaths: None,
        seed: 0,
        faults: vec![FaultSpec {
            instance: Some(instance),
            attempt,
            kind: FaultKind::Trap {
                message: "injected".into(),
            },
        }],
    }
}

#[test]
fn first_attempt_trap_recovers_on_retry() {
    let mut fleet = a100();
    let r = resilient(
        &mut fleet,
        &app(),
        &lines("-n 100\n-n 200\n"),
        &opts(4),
        0,
        &trap_on(2, Some(0)),
        &RecoveryPolicy::default(),
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!(r.ensemble.all_succeeded(), "{:?}", r.ensemble.instances);
    assert_eq!(r.recovery.attempts, 2);
    assert_eq!(r.recovery.retried, 1);
    assert_eq!(r.recovery.recovered, 1);
    assert_eq!(r.recovery.failures, 1);
    assert_eq!(r.recovery.unrecovered, 0);
    assert!(r.recovery.backoff_s > 0.0);
    // The retry's result lands in the right global slot.
    assert!(r.ensemble.stdout[2].starts_with("instance 0 sum"));
    assert_eq!(r.ensemble.metrics[2].attempt, 1);
    assert_eq!(r.ensemble.metrics[2].instance, 2);
    assert_eq!(r.ensemble.metrics[1].attempt, 0);
    // Cumulative-vs-final split in the launch rollup.
    let lm = r.launch_metrics();
    assert_eq!((lm.failed, lm.unrecovered), (1, 0));
    assert_eq!((lm.attempts, lm.retried, lm.recovered), (2, 1, 1));
    assert_eq!(lm.kernel, "bench-x4");
    assert_eq!(fleet.gpu(0).mem.stats().live_allocations, 0);
}

#[test]
fn every_attempt_trap_exhausts_and_stays_failed() {
    let mut fleet = a100();
    let r = resilient(
        &mut fleet,
        &app(),
        &lines("-n 100\n"),
        &opts(3),
        0,
        &trap_on(1, None),
        &RecoveryPolicy {
            max_attempts: 2,
            ..Default::default()
        },
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!(!r.ensemble.all_succeeded());
    assert_eq!(r.recovery.attempts, 2);
    assert_eq!(r.recovery.failures, 2, "both attempts failed");
    assert_eq!(r.recovery.recovered, 0);
    assert_eq!(r.recovery.unrecovered, 1);
    let bad = &r.ensemble.instances[1];
    assert!(bad.error.as_deref().unwrap().contains("injected"));
    // The healthy instances completed on the first attempt.
    assert!(r.ensemble.instances[0].succeeded());
    assert!(r.ensemble.instances[2].succeeded());
}

#[test]
fn device_oom_splits_the_batch_and_completes_all_instances() {
    // The acceptance scenario: a Page-Rank-shaped ensemble of 8 whose
    // footprint only fits 4 concurrently. The plan forces device OOM at
    // concurrency >= 5; the driver halves 8 -> 4 and everything recovers.
    let plan = FaultPlan {
        device_deaths: None,
        seed: 0,
        faults: vec![FaultSpec {
            instance: None,
            attempt: None,
            kind: FaultKind::DeviceOom {
                min_concurrent: 5,
                requested_bytes: 8 << 30,
            },
        }],
    };
    let mut fleet = a100();
    let mut obs = Recorder::enabled();
    let r = resilient(
        &mut fleet,
        &app(),
        &lines("-n 100\n"),
        &opts(8),
        0,
        &plan,
        &RecoveryPolicy::default(),
        &mut obs,
    )
    .unwrap();
    assert!(r.ensemble.all_succeeded(), "{:?}", r.ensemble.instances);
    assert_eq!(r.recovery.attempts, 2);
    assert_eq!(r.recovery.oom_failures, 8);
    assert_eq!(r.recovery.oom_splits, 1);
    assert_eq!(r.recovery.final_batch, 4);
    assert_eq!(r.recovery.recovered, 8);
    assert_eq!(r.recovery.unrecovered, 0);
    // Rollup: cumulative OOMs visible, nothing unrecovered, batch halved.
    let lm = r.launch_metrics();
    assert_eq!(lm.oom, 8);
    assert_eq!(lm.unrecovered, 0);
    assert_eq!((lm.oom_splits, lm.final_batch), (1, 4));
    assert_eq!(lm.instances, 8);
    // The recovery story is on the trace: failures, the split, the retry.
    let recovery: Vec<&str> = obs
        .events()
        .iter()
        .filter(|e| e.cat == "recovery")
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(
        recovery.iter().filter(|n| n.contains("failed")).count(),
        8,
        "{recovery:?}"
    );
    assert!(recovery.contains(&"batch split to 4"), "{recovery:?}");
    assert!(recovery.contains(&"retry round 1"), "{recovery:?}");
    assert_eq!(fleet.gpu(0).mem.stats().live_allocations, 0);
}

#[test]
fn hung_instance_times_out_and_recovers() {
    let plan = FaultPlan {
        device_deaths: None,
        seed: 0,
        faults: vec![FaultSpec {
            instance: Some(1),
            attempt: Some(0),
            kind: FaultKind::Hang { stall_cycles: 1e9 },
        }],
    };
    let mut fleet = a100();
    let r = resilient(
        &mut fleet,
        &app(),
        &lines("-n 100\n"),
        &opts(3),
        0,
        &plan,
        &RecoveryPolicy {
            instance_cycle_budget: Some(1e6),
            ..Default::default()
        },
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!(r.ensemble.all_succeeded(), "{:?}", r.ensemble.instances);
    assert_eq!(r.recovery.timeouts, 1);
    assert_eq!(r.recovery.recovered, 1);
    // The watchdog reaped the hang instead of simulating 1e9 cycles.
    assert!(r.ensemble.kernel_time_s < fleet.spec(0).cycles_to_seconds(1e8));
}

#[test]
fn corrupted_rpc_reply_traps_then_recovers() {
    let plan = FaultPlan {
        device_deaths: None,
        seed: 0,
        faults: vec![FaultSpec {
            instance: Some(0),
            attempt: Some(0),
            kind: FaultKind::RpcCorrupt { after_calls: 0 },
        }],
    };
    let mut fleet = a100();
    let r = resilient(
        &mut fleet,
        &app(),
        &lines("-n 100\n-n 200\n"),
        &opts(2),
        0,
        &plan,
        &RecoveryPolicy::default(),
        &mut Recorder::disabled(),
    )
    .unwrap();
    // The corrupted printf reply trapped instance 0 on attempt 0; the
    // interceptor runs before the service, so the retry is clean.
    assert!(r.ensemble.all_succeeded(), "{:?}", r.ensemble.instances);
    assert_eq!(r.recovery.failures, 1);
    assert_eq!(r.recovery.recovered, 1);
    let sum_100: f64 = (0..100).map(|i| i as f64).sum();
    assert_eq!(
        r.ensemble.stdout[0],
        format!("instance 0 sum {sum_100:.1}\n")
    );
}

#[test]
fn injected_rpc_failure_is_a_typed_host_error() {
    let plan = FaultPlan {
        device_deaths: None,
        seed: 0,
        faults: vec![FaultSpec {
            instance: Some(0),
            attempt: None,
            kind: FaultKind::RpcFail { after_calls: 0 },
        }],
    };
    let mut fleet = a100();
    let r = resilient(
        &mut fleet,
        &app(),
        &lines("-n 100\n"),
        &opts(1),
        0,
        &plan,
        &RecoveryPolicy {
            max_attempts: 1,
            ..Default::default()
        },
        &mut Recorder::disabled(),
    )
    .unwrap();
    let err = r.ensemble.instances[0].error.as_deref().unwrap();
    assert!(
        err.contains("host call failed") && err.contains("injected"),
        "{err}"
    );
}

#[test]
fn fail_fast_skips_remaining_work() {
    let mut fleet = a100();
    let r = resilient(
        &mut fleet,
        &app(),
        &lines("-n 100\n"),
        &opts(4),
        1,
        &trap_on(0, None),
        &RecoveryPolicy {
            max_attempts: 1,
            fail_fast: true,
            ..Default::default()
        },
        &mut Recorder::disabled(),
    )
    .unwrap();
    // Instance 0 exhausts its single attempt in the first chunk; the
    // other three never launch.
    assert_eq!(r.recovery.skipped, 3);
    assert_eq!(r.recovery.unrecovered, 4);
    for i in 1..4 {
        assert_eq!(
            r.ensemble.instances[i].error.as_deref(),
            Some("skipped: fail-fast")
        );
        assert_eq!(r.ensemble.stdout[i], "");
    }
}

#[test]
fn nonzero_exit_is_not_retried() {
    fn exit_main(_team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
        Ok(if cx.instance == 1 { 3 } else { 0 })
    }
    let a = HostApp::new("bench", MODULE, exit_main);
    let mut fleet = a100();
    let r = resilient(
        &mut fleet,
        &a,
        &lines("-x\n"),
        &opts(2),
        0,
        &FaultPlan::default(),
        &RecoveryPolicy::default(),
        &mut Recorder::disabled(),
    )
    .unwrap();
    // A deterministic application result is not a fault: one round only,
    // but the exit still counts as failed/unrecovered.
    assert_eq!(r.recovery.attempts, 1);
    assert_eq!(r.recovery.retried, 0);
    assert_eq!(r.recovery.failures, 1);
    assert_eq!(r.recovery.unrecovered, 1);
    assert_eq!(r.ensemble.instances[1].exit_code, Some(3));
}

#[test]
fn batched_and_unbatched_recovery_agree_under_a_trap() {
    let plan = trap_on(3, Some(0));
    let run = |batch| {
        let mut fleet = a100();
        resilient(
            &mut fleet,
            &app(),
            &lines("-n 100\n-n 200\n-n 300\n"),
            &opts(6),
            batch,
            &plan,
            &RecoveryPolicy::default(),
            &mut Recorder::disabled(),
        )
        .unwrap()
    };
    let concurrent = run(0);
    let batched = run(2);
    // Same final payloads and the same recovery story, whatever the
    // batching (timings legitimately differ).
    let sums = |r: &RunResult| -> Vec<String> {
        r.ensemble
            .stdout
            .iter()
            .map(|s| s.split("sum ").nth(1).unwrap().to_string())
            .collect()
    };
    assert!(concurrent.ensemble.all_succeeded() && batched.ensemble.all_succeeded());
    assert_eq!(sums(&concurrent), sums(&batched));
    assert_eq!(concurrent.recovery.retried, batched.recovery.retried);
    assert_eq!(concurrent.recovery.recovered, batched.recovery.recovered);
    assert_eq!(concurrent.recovery.failures, batched.recovery.failures);
}
