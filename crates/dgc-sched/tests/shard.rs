//! Round-loop acceptance: batching past the memory wall, multi-device
//! merge correctness, the heterogeneous-fleet makespan ordering the
//! informed policies must deliver, and plan validation.

use device_libc::dl_printf;
use dgc_core::{run_ensemble, AppContext, EnsembleError, EnsembleOptions, HostApp, PlanError};
use dgc_obs::{Recorder, DEVICE_PID_STRIDE};
use dgc_sched::{run_ensemble_plan, Placement, RecoveryPolicy, RunPlan, RunResult};
use gpu_arch::{DeviceRegistry, GpuSpec};
use gpu_sim::{DeviceFleet, KernelError, TeamCtx};
use host_rpc::HostServices;

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

/// The sharded preset: `placement` over the fleet, `batch` per launch
/// (`0` = unbounded), one attempt, no faults.
fn sharded(
    fleet: &mut DeviceFleet,
    app: &HostApp,
    arg_lines: &[Vec<String>],
    opts: &EnsembleOptions,
    batch: u32,
    placement: Placement,
    obs: &mut Recorder,
) -> Result<RunResult, EnsembleError> {
    let plan = RunPlan {
        batch: (batch > 0).then_some(batch),
        placement,
        ..RunPlan::default()
    };
    run_ensemble_plan(fleet, app, arg_lines, opts, plan, obs)
}

fn a100() -> DeviceFleet {
    DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 1)
}

#[test]
fn batched_runs_renumber_instances_onto_one_timeline() {
    let mut obs = Recorder::enabled();
    let res = sharded(
        &mut a100(),
        &app(),
        &lines(),
        &opts(4),
        2,
        Placement::RoundRobin,
        &mut obs,
    )
    .unwrap();
    let ids: Vec<u32> = res.ensemble.metrics.iter().map(|m| m.instance).collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    assert_eq!(obs.base_us(), 0.0);
    let kernel_spans = obs.events().iter().filter(|e| e.cat == "kernel").count();
    assert_eq!(kernel_spans, 2);
    // The batch bound is what the rollup reports; the name covers all.
    let lm = res.launch_metrics();
    assert_eq!((lm.kernel.as_str(), lm.final_batch), ("bench-x4", 2));
}

#[test]
fn batched_matches_unbatched_results() {
    let arg_lines = dgc_core::parse_arg_file("-n 100\n-n 200\n-n 300\n").unwrap();
    let mut fleet = a100();
    let full = run_ensemble(
        fleet.gpu_mut(0),
        &app(),
        &arg_lines,
        &opts(6),
        HostServices::default(),
    )
    .unwrap();
    let batched = sharded(
        &mut fleet,
        &app(),
        &arg_lines,
        &opts(6),
        2,
        Placement::RoundRobin,
        &mut Recorder::disabled(),
    )
    .unwrap()
    .ensemble;
    // Instance ids are per-launch (each batch is its own kernel), so
    // compare the computed payloads, not the id prefix.
    let sums = |v: &[String]| -> Vec<String> {
        v.iter()
            .map(|s| s.split("sum ").nth(1).unwrap().to_string())
            .collect()
    };
    assert_eq!(sums(&full.stdout), sums(&batched.stdout));
    // Sequential batches cannot beat the single concurrent launch.
    assert!(batched.kernel_time_s >= full.kernel_time_s);
    assert_eq!(batched.instance_end_times_s.len(), 6);
}

#[test]
fn batched_ensemble_pushes_past_the_memory_wall() {
    // 8 paper-scale hogs cannot run concurrently (15 GB each on 40 GB)
    // but complete in batches of 2.
    fn hog_main(team: &mut TeamCtx<'_>, _cx: &AppContext) -> Result<i32, KernelError> {
        let buf = team.serial("alloc", |lane| {
            lane.dev_reserve(15 << 30)?;
            lane.dev_alloc(8)
        })?;
        team.serial("touch", |lane| lane.st::<u64>(buf, 7))?;
        Ok(0)
    }
    let hog = HostApp::new("hog", MODULE, hog_main);
    let arg_lines = dgc_core::parse_arg_file("-x\n").unwrap();
    let mut fleet = a100();
    let concurrent = run_ensemble(
        fleet.gpu_mut(0),
        &hog,
        &arg_lines,
        &opts(8),
        HostServices::default(),
    )
    .unwrap();
    assert!(concurrent.any_oom());
    let res = sharded(
        &mut fleet,
        &hog,
        &arg_lines,
        &opts(8),
        2,
        Placement::RoundRobin,
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!(res.ensemble.all_succeeded(), "{:?}", res.ensemble.instances);
    assert_eq!(res.ensemble.instances.len(), 8);
    assert_eq!(fleet.gpu(0).mem.stats().live_allocations, 0);
}

/// Every unrunnable plan is an `InvalidPlan` error before anything
/// launches — never a panic, never a silent coercion.
#[test]
fn invalid_plans_are_errors_not_panics() {
    let run = |fleet: &mut DeviceFleet, n: u32, plan: RunPlan<'_>| {
        run_ensemble_plan(
            fleet,
            &app(),
            &lines(),
            &opts(n),
            plan,
            &mut Recorder::disabled(),
        )
    };
    let invalid = |r: Result<RunResult, EnsembleError>| match r {
        Err(EnsembleError::InvalidPlan(e)) => e,
        other => panic!(
            "expected InvalidPlan, got {:?}",
            other.map(|r| r.ensemble.instances)
        ),
    };
    assert_eq!(
        invalid(run(&mut a100(), 0, RunPlan::default())),
        PlanError::NoInstances
    );
    assert_eq!(
        invalid(run(
            &mut DeviceFleet::from_gpus(Vec::new()),
            2,
            RunPlan::default()
        )),
        PlanError::NoDevices
    );
    let zero_batch = RunPlan {
        batch: Some(0),
        ..RunPlan::default()
    };
    assert_eq!(
        invalid(run(&mut a100(), 2, zero_batch)),
        PlanError::ZeroBatch
    );
    let no_attempts = RunPlan {
        recovery: RecoveryPolicy {
            max_attempts: 0,
            ..RecoveryPolicy::default()
        },
        ..RunPlan::default()
    };
    let err = run(&mut a100(), 2, no_attempts).unwrap_err();
    assert!(err.to_string().contains("max_attempts"), "{err}");
    assert!(matches!(
        err,
        EnsembleError::InvalidPlan(PlanError::NoAttempts)
    ));
}

#[test]
fn two_device_shard_merges_in_global_order() {
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let mut obs = Recorder::enabled();
    let res = sharded(
        &mut fleet,
        &app(),
        &lines(),
        &opts(6),
        0,
        Placement::RoundRobin,
        &mut obs,
    )
    .unwrap();

    assert!(res.ensemble.all_succeeded());
    assert_eq!(res.assignment, vec![vec![0, 2, 4], vec![1, 3, 5]]);
    // Instances keep their global ids and outputs despite the shuffle.
    // (The printed instance id is shard-local — each device numbers its
    // own launch — so we check the data payload, which depends on the
    // cycled argument line: sum 0..n-1 for -n 60/120/40.)
    let sums = ["1770.0", "7140.0", "780.0"];
    for (i, m) in res.ensemble.metrics.iter().enumerate() {
        assert_eq!(m.instance, i as u32);
        assert_eq!(m.device, (i % 2) as u32);
        assert!(
            res.ensemble.stdout[i].trim_end().ends_with(sums[i % 3]),
            "instance {i}: {:?}",
            res.ensemble.stdout[i]
        );
    }
    // Two identical devices, three instances each: both ran, and the
    // makespan is the slower of the two — not their sum.
    assert!(res.per_device_time_s.iter().all(|&t| t > 0.0));
    let sum: f64 = res.per_device_time_s.iter().sum();
    assert!(res.ensemble.total_time_s < sum);
    // The rollup carries the v4 fields.
    let lm = res.launch_metrics();
    assert_eq!(lm.devices, 2);
    assert_eq!(lm.makespan_s, res.ensemble.total_time_s);
    assert_eq!(lm.kernel, "bench-x6");
    // Each device's trace lands in its own lane group with a prefixed
    // process name.
    let pids: Vec<u32> = obs.events().iter().map(|e| e.pid).collect();
    assert!(pids.iter().any(|&p| p < DEVICE_PID_STRIDE));
    assert!(pids.iter().any(|&p| p >= DEVICE_PID_STRIDE));
    let trace = obs.to_chrome_trace();
    assert!(trace.contains("dev0 loader"), "missing dev0 lanes");
    assert!(trace.contains("dev1 loader"), "missing dev1 lanes");
}

#[test]
fn sharded_respects_one_line_per_instance_contract() {
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let mut o = opts(6);
    o.cycle_args = false;
    let err = sharded(
        &mut fleet,
        &app(),
        &lines(),
        &o,
        0,
        Placement::RoundRobin,
        &mut Recorder::disabled(),
    )
    .expect_err("3 lines cannot feed 6 instances without --cycle-args");
    assert!(err.to_string().contains("--cycle-args"), "{err}");
}

/// The acceptance criterion: on a heterogeneous fleet, the informed
/// policies' makespan is no worse than round-robin's — and strictly
/// better when round-robin strands the big instance on the slow device.
#[test]
fn informed_policies_beat_round_robin_on_heterogeneous_fleet() {
    // Device 1 runs at quarter speed; instance 1 does ~50× the work of
    // the others. Round-robin sends odd instances (incl. the big one) to
    // the slow device; greedy/LPT keep the big instance on the fast one.
    let reg = DeviceRegistry::parse("a100,a100*0.25").unwrap();
    let arg_lines =
        dgc_core::parse_arg_file("-n 1000\n-n 50000\n-n 1000\n-n 1000\n-n 1000\n-n 1000\n")
            .unwrap();

    let mut makespans = std::collections::HashMap::new();
    for placement in Placement::all() {
        let mut fleet = DeviceFleet::from_registry(&reg);
        let res = sharded(
            &mut fleet,
            &app(),
            &arg_lines,
            &opts(6),
            0,
            placement,
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert!(res.ensemble.all_succeeded(), "{placement:?}");
        makespans.insert(placement.name(), res.ensemble.total_time_s);

        if placement.needs_costs() {
            // The big instance must sit on the fast device.
            assert!(
                res.assignment[0].contains(&1),
                "{placement:?} put the big instance on the slow device: {:?}",
                res.assignment
            );
        }
    }

    let rr = makespans["round-robin"];
    let greedy = makespans["greedy"];
    let lpt = makespans["lpt"];
    assert!(greedy <= rr, "greedy {greedy} vs round-robin {rr}");
    assert!(lpt <= rr, "lpt {lpt} vs round-robin {rr}");
    // The win is substantial, not a rounding artifact: round-robin pays
    // the big instance at quarter speed.
    assert!(lpt < rr * 0.75, "lpt {lpt} vs round-robin {rr}");
    assert!(greedy < rr * 0.75, "greedy {greedy} vs round-robin {rr}");
}

#[test]
fn empty_shard_devices_are_tolerated() {
    // 2 instances on 3 devices: one device idles and the merge still
    // yields every instance exactly once.
    let reg = DeviceRegistry::parse("a100,a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let res = sharded(
        &mut fleet,
        &app(),
        &lines(),
        &opts(2),
        0,
        Placement::RoundRobin,
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!(res.ensemble.all_succeeded());
    assert_eq!(res.ensemble.instances.len(), 2);
    assert_eq!(res.assignment[2], Vec::<u32>::new());
    assert_eq!(res.per_device_time_s[2], 0.0);
    assert!(res.ensemble.total_time_s > 0.0);
}
