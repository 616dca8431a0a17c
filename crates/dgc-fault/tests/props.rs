//! Invariances of the round loop: an empty fault plan behaves like no
//! plan, `max_attempts` does not matter when nothing fails, placement does
//! not matter on one device — each down to the trace bytes — and recovery
//! replays seed for seed.

use device_libc::dl_printf;
use dgc_core::{AppContext, EnsembleOptions, HostApp};
use dgc_fault::FaultPlan;
use dgc_obs::{metrics_jsonl, Recorder};
use dgc_sched::{run_ensemble_plan, FaultSource, Placement, RecoveryPolicy, RunPlan, RunResult};
use gpu_arch::DeviceRegistry;
use gpu_sim::{DeviceFleet, KernelError, TeamCtx};
use proptest::prelude::*;

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

fn app() -> HostApp {
    HostApp::new("bench", MODULE, stream_main)
}

fn lines() -> Vec<Vec<String>> {
    dgc_core::parse_arg_file("-n 60\n-n 120\n-n 40\n").unwrap()
}

fn opts(n: u32) -> EnsembleOptions {
    EnsembleOptions {
        cycle_args: true,
        num_instances: n,
        thread_limit: 32,
        ..Default::default()
    }
}

/// A fleet of `devices` (1 or 2, the second half-speed).
fn fleet(devices: u32) -> DeviceFleet {
    let spec = if devices == 1 {
        "a100"
    } else {
        "a100,a100*0.5"
    };
    DeviceFleet::from_registry(&DeviceRegistry::parse(spec).unwrap())
}

/// Run `plan` on a fresh fleet of `devices` with tracing on: the result
/// plus everything a run exports (trace bytes and metrics JSONL).
fn run(devices: u32, n: u32, plan: RunPlan<'_>) -> (RunResult, String, String) {
    let mut obs = Recorder::enabled();
    let res = run_ensemble_plan(
        &mut fleet(devices),
        &app(),
        &lines(),
        &opts(n),
        plan,
        &mut obs,
    )
    .unwrap();
    let jsonl = metrics_jsonl(&res.ensemble.metrics, &res.launch_metrics());
    (res, obs.to_chrome_trace(), jsonl)
}

/// Bit-identity of two runs: every result field and every export.
fn assert_same(
    a: &(RunResult, String, String),
    b: &(RunResult, String, String),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.0.ensemble.instances, &b.0.ensemble.instances);
    prop_assert_eq!(&a.0.ensemble.stdout, &b.0.ensemble.stdout);
    prop_assert_eq!(&a.0.ensemble.report, &b.0.ensemble.report);
    prop_assert_eq!(a.0.ensemble.kernel_time_s, b.0.ensemble.kernel_time_s);
    prop_assert_eq!(a.0.ensemble.total_time_s, b.0.ensemble.total_time_s);
    prop_assert_eq!(
        &a.0.ensemble.instance_end_times_s,
        &b.0.ensemble.instance_end_times_s
    );
    prop_assert_eq!(&a.0.ensemble.graph, &b.0.ensemble.graph);
    prop_assert_eq!(&a.0.recovery, &b.0.recovery);
    prop_assert_eq!(&a.1, &b.1);
    prop_assert_eq!(&a.2, &b.2);
    Ok(())
}

fn batch_of(batch: u32) -> Option<u32> {
    (batch > 0).then_some(batch)
}

/// LPT placement under the default (retrying) recovery policy.
fn lpt_retrying(batch: u32, faults: Option<&dyn FaultSource>) -> RunPlan<'_> {
    RunPlan {
        batch: batch_of(batch),
        placement: Placement::Lpt,
        faults,
        recovery: RecoveryPolicy::default(),
        ..RunPlan::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An empty fault plan is pure bookkeeping: injecting it is
    /// bit-identical to injecting nothing, on one device or a fleet.
    #[test]
    fn empty_plan_behaves_like_no_plan(n in 1u32..7, batch in 0u32..4, devices in 1u32..3) {
        let empty = FaultPlan::default();
        let none = run(devices, n, lpt_retrying(batch, None));
        let with_empty = run(devices, n, lpt_retrying(batch, Some(&empty)));
        assert_same(&none, &with_empty)?;
        prop_assert_eq!(with_empty.0.recovery.attempts, 1);
        prop_assert_eq!(with_empty.0.recovery.backoff_s, 0.0);
    }

    /// When nothing fails, the recovery policy is invisible: the plain
    /// single-attempt preset and a three-attempt, OOM-splitting policy
    /// produce the same bytes.
    #[test]
    fn max_attempts_does_not_matter_when_nothing_fails(
        n in 1u32..7,
        batch in 0u32..4,
        devices in 1u32..3,
    ) {
        let plan = |recovery| RunPlan {
            batch: batch_of(batch),
            recovery,
            ..RunPlan::default()
        };
        let single = run(devices, n, plan(RecoveryPolicy::single_attempt()));
        let retrying = run(
            devices,
            n,
            plan(RecoveryPolicy {
                max_attempts: 5,
                ..RecoveryPolicy::default()
            }),
        );
        assert_same(&single, &retrying)?;
    }

    /// On one device there is nothing to place: every policy gives the
    /// same bytes, with or without faults and memory-aware packing.
    #[test]
    fn placement_does_not_matter_on_one_device(
        n in 1u32..7,
        batch in 0u32..4,
        seed in any::<u64>(),
        mem_aware in any::<bool>(),
    ) {
        let faults = FaultPlan::scatter_traps(seed, n, 1);
        let runs: Vec<_> = Placement::all()
            .into_iter()
            .map(|placement| {
                run(
                    1,
                    n,
                    RunPlan {
                        batch: batch_of(batch),
                        placement,
                        faults: Some(&faults),
                        recovery: RecoveryPolicy::default(),
                        mem_aware,
                        ..RunPlan::default()
                    },
                )
            })
            .collect();
        assert_same(&runs[0], &runs[1])?;
        assert_same(&runs[0], &runs[2])?;
    }

    /// Same seed, same plan ⇒ identical retry schedule, outcomes, and
    /// metrics — recovery is replayable.
    #[test]
    fn scattered_faults_recover_deterministically(
        seed in any::<u64>(),
        batch in 0u32..4,
        devices in 1u32..3,
    ) {
        let faults = FaultPlan::scatter_traps(seed, 6, 2);
        prop_assert_eq!(faults.faults.len(), 2);
        let a = run(devices, 6, lpt_retrying(batch, Some(&faults)));
        let b = run(devices, 6, lpt_retrying(batch, Some(&faults)));
        assert_same(&a, &b)?;
        // Both scattered first-attempt traps recover on the retry.
        prop_assert!(a.0.ensemble.all_succeeded());
        prop_assert_eq!(a.0.recovery.recovered, 2);
        prop_assert_eq!(a.0.recovery.retried, 2);
    }
}
