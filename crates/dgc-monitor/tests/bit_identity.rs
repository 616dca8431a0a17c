//! The monitor's cardinal invariant, property-tested across all five
//! ensemble drivers: attaching a [`MonitorRegistry`] to a run is pure
//! observation. Chrome-trace bytes and metrics JSONL are bit-identical
//! with and without the sink, while the registry still fills with the
//! run's operational metrics.

use device_libc::dl_printf;
use dgc_core::{AppContext, EnsembleOptions, HostApp};
use dgc_fault::FaultPlan;
use dgc_monitor::MonitorRegistry;
use dgc_obs::{metrics_jsonl, Recorder};
use dgc_sched::{run_ensemble_plan, FaultSource, Placement, RecoveryPolicy, RunPlan};
use gpu_arch::GpuSpec;
use gpu_sim::{DeviceFleet, KernelError, TeamCtx};
use proptest::prelude::*;
use std::sync::Arc;

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
        .unwrap_or(500);
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

const DRIVERS: [&str; 5] = [
    "plain",
    "batched",
    "resilient",
    "sharded-resilient",
    "sharded",
];

/// Run one preset of the round loop to completion under `obs` and return
/// the run's observable artifacts: the Chrome-trace bytes and the metrics
/// JSONL. Fleet presets run on two A100s with round-robin placement.
fn run_driver(driver: &str, n: u32, batch: u32, seed: u64, obs: &mut Recorder) -> (String, String) {
    let faults = FaultPlan::scatter_traps(seed, n, 1);
    let resilient = driver.ends_with("resilient");
    let devices = if driver.starts_with("sharded") { 2 } else { 1 };
    let plan = RunPlan {
        batch: (driver != "plain").then_some(batch),
        placement: Placement::RoundRobin,
        faults: resilient.then_some(&faults as &dyn FaultSource),
        recovery: if resilient {
            RecoveryPolicy::default()
        } else {
            RecoveryPolicy::single_attempt()
        },
        ..RunPlan::default()
    };
    let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), devices);
    let r = run_ensemble_plan(&mut fleet, &app(), &lines(), &opts(n), plan, obs).unwrap();
    (
        obs.to_chrome_trace(),
        metrics_jsonl(&r.ensemble.metrics, &r.launch_metrics()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every driver, any instance count / batch size / fault seed:
    /// trace and metrics bytes are identical with the monitor attached,
    /// and the registry observed every instance completion.
    #[test]
    fn monitoring_never_perturbs_any_driver(n in 1u32..6, batch in 1u32..4, seed in any::<u64>()) {
        for driver in DRIVERS {
            let mut plain_rec = Recorder::enabled();
            let (trace, metrics) = run_driver(driver, n, batch, seed, &mut plain_rec);

            let registry = Arc::new(MonitorRegistry::new());
            let mut monitored_rec = Recorder::enabled();
            monitored_rec.set_monitor(registry.clone());
            let (trace_m, metrics_m) = run_driver(driver, n, batch, seed, &mut monitored_rec);

            prop_assert_eq!(&trace, &trace_m);
            prop_assert_eq!(&metrics, &metrics_m);

            let snap = registry.snapshot();
            let seen = snap.sum("dgc_instances_total", &[]).unwrap_or(0.0);
            prop_assert!(
                seen >= f64::from(n),
                "driver {} registered {} instance outcomes for n={}",
                driver,
                seen,
                n
            );
            prop_assert!(
                snap.sum("dgc_kernel_launches_total", &[]).unwrap_or(0.0) >= 1.0
            );
        }
    }

    /// The disabled-recorder path (no tracing at all) is equally
    /// unperturbed: metrics JSONL matches a traced run's bytes.
    #[test]
    fn monitoring_with_disabled_recorder_matches(n in 1u32..5, batch in 1u32..3) {
        for driver in DRIVERS {
            let mut plain_rec = Recorder::disabled();
            let (_, metrics) = run_driver(driver, n, batch, 7, &mut plain_rec);

            let registry = Arc::new(MonitorRegistry::new());
            let mut monitored_rec = Recorder::disabled();
            monitored_rec.set_monitor(registry.clone());
            let (_, metrics_m) = run_driver(driver, n, batch, 7, &mut monitored_rec);

            prop_assert_eq!(&metrics, &metrics_m);
            prop_assert!(registry.snapshot().sum("dgc_instances_total", &[]).unwrap_or(0.0) >= f64::from(n));
        }
    }
}
