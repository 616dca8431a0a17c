//! Acceptance properties: the critical path's span sum reproduces the
//! reported makespan **bit-exactly** for every run preset — plain,
//! batched, resilient under injected faults, multi-device sharded, and
//! sharded with retries — and every blame table's percentages fold to
//! exactly 100.

use device_libc::dl_printf;
use dgc_core::{run_ensemble_traced, AppContext, EnsembleOptions, HostApp};
use dgc_fault::FaultPlan;
use dgc_insight::{
    blame_devices, blame_instances, blame_stalls, folded_stacks, render_report, validate_folded,
    CriticalPath,
};
use dgc_obs::Recorder;
use dgc_sched::{run_ensemble_plan, Placement, RecoveryPolicy, RunPlan, RunResult};
use gpu_arch::DeviceRegistry;
use gpu_sim::{DeviceFleet, Gpu, KernelError, TeamCtx};
use host_rpc::HostServices;
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
        num_instances: n,
        thread_limit: 32,
        cycle_args: true,
        ..Default::default()
    }
}

/// Shared postcondition: bit-exact path sum, exact-100 blame folds, and
/// a flamegraph that validates.
fn assert_insight_invariants(graph: &dgc_obs::SpanGraph, reported_makespan_s: f64) {
    let path = CriticalPath::from_graph(graph);
    assert_eq!(
        path.span_sum_s.to_bits(),
        reported_makespan_s.to_bits(),
        "span sum {} != reported makespan {}",
        path.span_sum_s,
        reported_makespan_s
    );
    for (name, table) in [
        ("stalls", blame_stalls(graph, &path)),
        ("devices", blame_devices(graph, &path)),
        ("instances", blame_instances(graph, &path)),
    ] {
        assert!(!table.is_empty(), "{name} blame table empty");
        assert_eq!(table.pct_sum(), 100.0, "{name} blame fold != 100");
    }
    let stacks = folded_stacks(graph);
    validate_folded(&stacks).expect("flamegraph validates");
    let report = render_report(graph, Some(reported_makespan_s));
    assert!(report.contains("bit-exactly"), "{report}");
}

/// Run `plan` on a fresh fleet parsed from `devices` (e.g. `"a100"`).
fn run(devices: &str, n: u32, plan: RunPlan<'_>) -> RunResult {
    let mut fleet = DeviceFleet::from_registry(&DeviceRegistry::parse(devices).unwrap());
    run_ensemble_plan(
        &mut fleet,
        &app(),
        &lines(),
        &opts(n),
        plan,
        &mut Recorder::disabled(),
    )
    .unwrap()
}

fn batch_of(batch: u32) -> Option<u32> {
    (batch > 0).then_some(batch)
}

#[test]
fn plain_run_replays_bit_exactly() {
    let mut gpu = Gpu::a100();
    let res = run_ensemble_traced(
        &mut gpu,
        &app(),
        &lines(),
        &opts(3),
        HostServices::default(),
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!(res.all_succeeded());
    assert_insight_invariants(&res.graph, res.total_time_s);
    // The critical chain is populated (collect_detail is always on).
    assert!(res.graph.launches().next().unwrap().chain.last().is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batched accumulation: any instance count and batch size replays
    /// the reported total bit-exactly.
    #[test]
    fn batched_runs_replay_bit_exactly(n in 1u32..9, batch in 1u32..5) {
        let plan = RunPlan {
            batch: Some(batch),
            ..RunPlan::default()
        };
        let res = run("a100", n, plan).ensemble;
        prop_assert!(res.all_succeeded());
        let path = CriticalPath::from_graph(&res.graph);
        prop_assert_eq!(path.span_sum_s.to_bits(), res.total_time_s.to_bits());
        assert_insight_invariants(&res.graph, res.total_time_s);
        // Every instance id appears in the graph exactly once.
        let mut seen: Vec<u32> = res
            .graph
            .launches()
            .flat_map(|l| l.instances.iter().copied())
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n).collect::<Vec<u32>>());
    }

    /// Fault-retry accumulation: scattered traps force retry rounds with
    /// backoff, and the replay (backoff included) stays bit-exact; blame
    /// folds stay exactly 100 (the property the ISSUE names).
    #[test]
    fn fault_retry_runs_replay_bit_exactly(
        n in 2u32..8,
        batch in 0u32..4,
        traps in 1u32..4,
        seed in 0u64..200,
    ) {
        let plan = FaultPlan::scatter_traps(seed, n, traps.min(n));
        let policy = RecoveryPolicy {
            max_attempts: 4,
            ..Default::default()
        };
        let res = run(
            "a100",
            n,
            RunPlan {
                batch: batch_of(batch),
                faults: Some(&plan),
                recovery: policy,
                ..RunPlan::default()
            },
        );
        assert_insight_invariants(&res.ensemble.graph, res.ensemble.total_time_s);
        // Retries happened and are visible as rounds (or the plan's traps
        // all landed on the same instances — rounds is still >= 1).
        if res.recovery.retried > 0 {
            prop_assert!(res.ensemble.graph.rounds() > 1);
        }
    }

    /// Sharded accumulation: the concurrent-round lane fold reproduces
    /// the multi-device makespan bit-exactly for every placement.
    #[test]
    fn sharded_runs_replay_bit_exactly(
        n in 1u32..9,
        batch in 0u32..3,
        devices in 1usize..4,
        policy in 0usize..3,
    ) {
        let spec = vec!["a100"; devices].join(",");
        let plan = RunPlan {
            batch: batch_of(batch),
            placement: Placement::all()[policy],
            ..RunPlan::default()
        };
        let res = run(&spec, n, plan);
        prop_assert!(res.ensemble.all_succeeded());
        let path = CriticalPath::from_graph(&res.ensemble.graph);
        prop_assert_eq!(path.span_sum_s.to_bits(), res.ensemble.total_time_s.to_bits());
        assert_insight_invariants(&res.ensemble.graph, res.ensemble.total_time_s);
        // Each device lane that got instances appears in the graph.
        let lanes = res.ensemble.graph.devices() as usize;
        let busy = res.assignment.iter().filter(|a| !a.is_empty()).count();
        prop_assert!(lanes >= busy, "lanes {} < busy devices {}", lanes, busy);
    }

    /// Fleet retry rounds: each round folds its device lanes from zero
    /// on top of the elapsed time plus backoff, and the replay follows
    /// round by round, bit-exactly.
    #[test]
    fn sharded_retry_runs_replay_bit_exactly(
        n in 2u32..8,
        batch in 0u32..3,
        traps in 1u32..4,
        seed in 0u64..200,
        jitter in any::<bool>(),
    ) {
        let faults = FaultPlan::scatter_traps(seed, n, traps.min(n));
        let plan = RunPlan {
            batch: batch_of(batch),
            placement: Placement::Lpt,
            faults: Some(&faults),
            recovery: RecoveryPolicy {
                max_attempts: 4,
                jitter_seed: jitter.then_some(seed),
                ..Default::default()
            },
            ..RunPlan::default()
        };
        let res = run("a100,a100*0.5", n, plan);
        prop_assert!(res.ensemble.all_succeeded());
        let path = CriticalPath::from_graph(&res.ensemble.graph);
        prop_assert_eq!(path.span_sum_s.to_bits(), res.ensemble.total_time_s.to_bits());
        assert_insight_invariants(&res.ensemble.graph, res.ensemble.total_time_s);
        prop_assert!(res.ensemble.graph.rounds() > 1);
    }
}

/// A two-device run on a heterogeneous fleet: the insight report blames
/// the slow device for the larger share of the makespan.
#[test]
fn device_blame_follows_the_slow_lane() {
    let res = run("a100,a100*0.25", 4, RunPlan::default());
    assert!(res.ensemble.all_succeeded());
    let path = CriticalPath::from_graph(&res.ensemble.graph);
    assert_eq!(
        path.span_sum_s.to_bits(),
        res.ensemble.total_time_s.to_bits(),
        "heterogeneous lane fold must stay bit-exact"
    );
    let table = blame_devices(&res.ensemble.graph, &path);
    // Round-robin sends half the instances to the quarter-speed device:
    // its lane is the critical one and owns 100% of the blame.
    assert_eq!(table.rows[0].label, "dev1");
    assert_eq!(table.pct_sum(), 100.0);
}
