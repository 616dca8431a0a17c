//! Recovery across a fleet: device deaths re-shard onto survivors, and
//! fleet runs honour fail-fast and backoff jitter like one-device runs.

use device_libc::dl_printf;
use dgc_core::{AppContext, EnsembleError, EnsembleOptions, HostApp};
use dgc_fault::{DeviceDeath, FaultKind, FaultPlan, FaultSpec};
use dgc_obs::Recorder;
use dgc_sched::{run_ensemble_plan, Placement, RecoveryPolicy, RunPlan, RunResult};
use gpu_arch::DeviceRegistry;
use gpu_sim::{DeviceFleet, KernelError, TeamCtx};

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
    let instance = cx.instance();
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

fn lines() -> Vec<Vec<String>> {
    dgc_core::parse_arg_file("-n 60\n-n 120\n-n 40\n").unwrap()
}

fn opts(n: u32) -> EnsembleOptions {
    EnsembleOptions {
        num_instances: n,
        thread_limit: 32,
        cycle_args: true,
        ..Default::default()
    }
}

/// The sharded-resilient preset: `placement` over the fleet, `plan`
/// injected, `policy` recovering, `batch` per launch (`0` = unbounded).
#[allow(clippy::too_many_arguments)]
fn sharded_resilient(
    fleet: &mut DeviceFleet,
    app: &HostApp,
    arg_lines: &[Vec<String>],
    opts: &EnsembleOptions,
    batch: u32,
    placement: Placement,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    obs: &mut Recorder,
) -> Result<RunResult, EnsembleError> {
    let plan = RunPlan {
        batch: (batch > 0).then_some(batch),
        placement,
        faults: Some(plan),
        recovery: policy.clone(),
        ..RunPlan::default()
    };
    run_ensemble_plan(fleet, app, arg_lines, opts, plan, obs)
}

fn death_plan(device: u32, at_attempt: u32) -> FaultPlan {
    FaultPlan {
        seed: 0,
        faults: vec![],
        device_deaths: Some(vec![DeviceDeath { device, at_attempt }]),
    }
}

/// The acceptance criterion: kill one device mid-ensemble and everything
/// still completes — `unrecovered == 0`.
#[test]
fn dead_device_reshards_onto_survivors() {
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let res = sharded_resilient(
        &mut fleet,
        &app(),
        &lines(),
        &opts(8),
        0,
        Placement::RoundRobin,
        &death_plan(1, 0),
        &RecoveryPolicy::default(),
        &mut Recorder::disabled(),
    )
    .unwrap();

    assert!(res.ensemble.all_succeeded(), "{:?}", res.ensemble.instances);
    assert_eq!(res.recovery.unrecovered, 0);
    assert_eq!(res.dead_devices, vec![1]);
    // Round-robin put the 4 odd instances on device 1; they all died,
    // re-sharded, and recovered.
    assert_eq!(res.recovery.retried, 4);
    assert_eq!(res.recovery.recovered, 4);
    assert_eq!(res.recovery.failures, 4);
    assert_eq!(res.recovery.attempts, 2);
    // Every instance ultimately ran on the surviving device 0.
    assert!(res.ensemble.metrics.iter().all(|m| m.device == 0));
    // The dead device charged no busy time after it died at round 0.
    assert_eq!(res.per_device_time_s[1], 0.0);
    assert!(res.per_device_time_s[0] > 0.0);
    let lm = res.launch_metrics();
    assert_eq!(lm.devices, 2);
    assert_eq!(lm.unrecovered, 0);
    assert_eq!(lm.makespan_s, res.ensemble.total_time_s);
}

#[test]
fn death_in_a_later_round_only_reshards_the_still_pending() {
    // Instance 2 traps on attempts 0 and 1 (recovers on 2); device 1
    // dies at attempt 1. Everything still completes.
    let mut plan = death_plan(1, 1);
    for a in [0, 1] {
        plan.faults.push(FaultSpec {
            instance: Some(2),
            attempt: Some(a),
            kind: FaultKind::Trap {
                message: "flaky".into(),
            },
        });
    }
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let res = sharded_resilient(
        &mut fleet,
        &app(),
        &lines(),
        &opts(6),
        0,
        Placement::RoundRobin,
        &plan,
        &RecoveryPolicy {
            max_attempts: 4,
            ..RecoveryPolicy::default()
        },
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!(res.ensemble.all_succeeded(), "{:?}", res.ensemble.instances);
    assert_eq!(res.recovery.unrecovered, 0);
    assert_eq!(res.dead_devices, vec![1]);
}

#[test]
fn all_devices_dead_marks_the_rest_unrecovered() {
    let plan = FaultPlan {
        seed: 0,
        faults: vec![FaultSpec {
            instance: None,
            attempt: Some(0),
            kind: FaultKind::Trap {
                message: "all fail round 0".into(),
            },
        }],
        device_deaths: Some(vec![
            DeviceDeath {
                device: 0,
                at_attempt: 0,
            },
            DeviceDeath {
                device: 1,
                at_attempt: 0,
            },
        ]),
    };
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let res = sharded_resilient(
        &mut fleet,
        &app(),
        &lines(),
        &opts(4),
        0,
        Placement::RoundRobin,
        &plan,
        &RecoveryPolicy::default(),
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert_eq!(res.recovery.unrecovered, 4);
    assert!(res
        .ensemble
        .instances
        .iter()
        .all(|o| o.error.as_deref() == Some("no live devices left in the fleet")));
}

/// Device death composes with cost-model placement: LPT on a
/// heterogeneous fleet still finishes everything after the fast device
/// dies.
#[test]
fn lpt_survives_losing_the_fast_device() {
    let reg = DeviceRegistry::parse("a100,a100*0.5").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let res = sharded_resilient(
        &mut fleet,
        &app(),
        &lines(),
        &opts(6),
        0,
        Placement::Lpt,
        &death_plan(0, 0),
        &RecoveryPolicy::default(),
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!(res.ensemble.all_succeeded(), "{:?}", res.ensemble.instances);
    assert_eq!(res.recovery.unrecovered, 0);
    assert_eq!(res.dead_devices, vec![0]);
    assert!(res.ensemble.metrics.iter().all(|m| m.device == 1));
}

/// Fail-fast on a fleet: the lane whose instance exhausted its attempts
/// stops launching, and everything not yet final is skipped. (Before the
/// one round loop, fleet runs ignored `fail_fast`.)
#[test]
fn fleet_fail_fast_skips_the_rest() {
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let plan = FaultPlan {
        seed: 0,
        faults: vec![FaultSpec {
            instance: Some(0),
            attempt: None,
            kind: FaultKind::Trap {
                message: "always".into(),
            },
        }],
        device_deaths: None,
    };
    let res = sharded_resilient(
        &mut fleet,
        &app(),
        &lines(),
        &opts(6),
        1,
        Placement::RoundRobin,
        &plan,
        &RecoveryPolicy {
            max_attempts: 1,
            fail_fast: true,
            ..RecoveryPolicy::default()
        },
        &mut Recorder::disabled(),
    )
    .unwrap();
    // Round-robin: device 0 runs {0, 2, 4} one at a time and stops after
    // instance 0 traps; device 1 finishes {1, 3, 5} in parallel.
    assert_eq!(res.recovery.skipped, 2);
    assert_eq!(res.recovery.unrecovered, 3);
    for i in [2, 4] {
        assert_eq!(
            res.ensemble.instances[i].error.as_deref(),
            Some("skipped: fail-fast")
        );
        assert_eq!(res.ensemble.stdout[i], "");
    }
    for i in [1, 3, 5] {
        assert!(res.ensemble.instances[i].succeeded());
    }
}

/// Backoff jitter on a fleet: the jittered round waits less than the
/// synchronized one and replays exactly per seed. (Before the one round
/// loop, fleet runs used the un-jittered wait whatever the policy.)
#[test]
fn fleet_retry_jitter_is_honoured_and_deterministic() {
    let plan = FaultPlan::scatter_traps(3, 6, 3);
    let run = |jitter_seed: Option<u64>| {
        let reg = DeviceRegistry::parse("a100,a100").unwrap();
        let mut fleet = DeviceFleet::from_registry(&reg);
        sharded_resilient(
            &mut fleet,
            &app(),
            &lines(),
            &opts(6),
            0,
            Placement::RoundRobin,
            &plan,
            &RecoveryPolicy {
                jitter_seed,
                ..RecoveryPolicy::default()
            },
            &mut Recorder::disabled(),
        )
        .unwrap()
    };
    let plain = run(None);
    let jittered = run(Some(11));
    assert!(plain.ensemble.all_succeeded() && jittered.ensemble.all_succeeded());
    assert_eq!(plain.recovery.attempts, 2);
    assert!(
        jittered.recovery.backoff_s < plain.recovery.backoff_s,
        "{} vs {}",
        jittered.recovery.backoff_s,
        plain.recovery.backoff_s
    );
    assert_eq!(
        jittered.launch_metrics().backoff_s,
        jittered.recovery.backoff_s
    );
    let again = run(Some(11));
    assert_eq!(again.recovery, jittered.recovery);
    assert_eq!(again.ensemble.total_time_s, jittered.ensemble.total_time_s);
    assert_ne!(
        run(Some(12)).recovery.backoff_s,
        jittered.recovery.backoff_s
    );
}
