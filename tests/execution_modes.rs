//! The three execution models of the direct-GPU-compilation lineage, side
//! by side on a real benchmark:
//!
//! * \[26\]: single-team execution (the plain loader);
//! * \[27\]: multi-team expansion of one instance (`run_multi_team`);
//! * this paper: ensemble execution of N instances (`run_ensemble`),
//!   plus the batched extension past the memory wall.

use ensemble_gpu::apps;
use ensemble_gpu::arch::GpuSpec;
use ensemble_gpu::core::{run_ensemble, run_multi_team, EnsembleOptions, Loader};
use ensemble_gpu::obs::Recorder;
use ensemble_gpu::rpc::HostServices;
use ensemble_gpu::sched::{run_ensemble_plan, RunPlan};
use ensemble_gpu::sim::{DeviceFleet, Gpu};

const ARGS: [&str; 4] = ["-l", "120", "-g", "16"];

fn checksum(stdout: &str) -> f64 {
    stdout
        .lines()
        .find(|l| l.starts_with("Verification checksum:"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("benchmark prints a checksum")
}

#[test]
fn all_three_modes_agree_on_results() {
    let app = apps::xsbench::app();
    let mut gpu = Gpu::a100();

    let single = Loader {
        thread_limit: 128,
        ..Default::default()
    }
    .run(&mut gpu, &app, &ARGS, HostServices::default())
    .unwrap();
    assert_eq!(single.exit_code, Some(0));

    let multi = run_multi_team(&mut gpu, &app, &ARGS, 8, 128, HostServices::default()).unwrap();
    assert_eq!(multi.exit_code, Some(0), "trap: {:?}", multi.trap);

    let opts = EnsembleOptions {
        cycle_args: true,
        num_instances: 4,
        thread_limit: 128,
        ..Default::default()
    };
    let lines = vec![ARGS.iter().map(|s| s.to_string()).collect()];
    let ens = run_ensemble(&mut gpu, &app, &lines, &opts, HostServices::default()).unwrap();
    assert!(ens.all_succeeded());

    let c = checksum(&single.stdout);
    assert_eq!(c, checksum(&multi.stdout), "multi-team changed the answer");
    for out in &ens.stdout {
        assert_eq!(c, checksum(out), "ensemble changed the answer");
    }
}

#[test]
fn multi_team_beats_single_team_on_one_instance() {
    // [27]'s claim: expanding parallel regions across teams speeds up one
    // instance (the serial parts stay serial, Amdahl applies).
    let app = apps::xsbench::app();
    let mut gpu = Gpu::a100();
    let single = Loader {
        thread_limit: 128,
        ..Default::default()
    }
    .run(&mut gpu, &app, &ARGS, HostServices::default())
    .unwrap();
    let multi = run_multi_team(&mut gpu, &app, &ARGS, 16, 128, HostServices::default()).unwrap();
    assert!(
        multi.kernel_time_s < single.report.sim_time_s,
        "multi-team {:.3e}s should beat single-team {:.3e}s",
        multi.kernel_time_s,
        single.report.sim_time_s
    );
}

#[test]
fn ensemble_beats_everything_on_independent_inputs() {
    // This paper's claim, end to end: for N independent inputs the
    // ensemble kernel beats N runs of either earlier mode.
    let n = 8u32;
    let app = apps::xsbench::app();
    let mut gpu = Gpu::a100();

    let single = Loader {
        thread_limit: 128,
        ..Default::default()
    }
    .run(&mut gpu, &app, &ARGS, HostServices::default())
    .unwrap();
    let n_single = n as f64 * single.report.sim_time_s;

    let multi = run_multi_team(&mut gpu, &app, &ARGS, n, 128, HostServices::default()).unwrap();
    let n_multi = n as f64 * multi.kernel_time_s;

    let opts = EnsembleOptions {
        cycle_args: true,
        num_instances: n,
        thread_limit: 128,
        ..Default::default()
    };
    let lines = vec![ARGS.iter().map(|s| s.to_string()).collect()];
    let ens = run_ensemble(&mut gpu, &app, &lines, &opts, HostServices::default()).unwrap();

    assert!(
        ens.kernel_time_s < n_multi,
        "{} vs {}",
        ens.kernel_time_s,
        n_multi
    );
    assert!(
        ens.kernel_time_s < n_single,
        "{} vs {}",
        ens.kernel_time_s,
        n_single
    );
}

#[test]
fn batched_ensemble_completes_what_concurrent_cannot() {
    // Paper-scale Page-Rank at 8 instances: concurrent OOMs (the paper's
    // wall), batched-by-4 completes with correct results.
    let app = apps::pagerank::app();
    let argv: Vec<String> = ["-v", "200", "-d", "4", "-i", "2"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let opts = EnsembleOptions {
        cycle_args: true,
        num_instances: 8,
        thread_limit: 32,
        ..Default::default()
    };
    let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 1);
    let concurrent = run_ensemble(
        fleet.gpu_mut(0),
        &app,
        std::slice::from_ref(&argv),
        &opts,
        HostServices::default(),
    )
    .unwrap();
    assert!(concurrent.any_oom());

    let plan = RunPlan {
        batch: Some(4),
        ..RunPlan::default()
    };
    let batched = run_ensemble_plan(
        &mut fleet,
        &app,
        &[argv],
        &opts,
        plan,
        &mut Recorder::disabled(),
    )
    .unwrap()
    .ensemble;
    assert!(batched.all_succeeded(), "{:?}", batched.instances);
    let reference = apps::pagerank::reference_checksum(&apps::pagerank::PrParams {
        vertices: 200,
        degree: 4,
        iterations: 2,
    });
    for out in &batched.stdout {
        let printed = checksum(out);
        assert!((printed - reference).abs() <= reference.abs() * 1e-9);
    }
    assert_eq!(fleet.gpu(0).mem.stats().live_allocations, 0);
}
