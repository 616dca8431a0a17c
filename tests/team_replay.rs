//! Memoized team replay at the application level: which ensembles replay
//! their identical instances, and that a replayed ensemble is
//! indistinguishable from one that executes every instance.
//!
//! A no-op RPC fault hook is the reference: the loader never replays a
//! launch with an RPC fault source, and a hook that faults nothing leaves
//! the results untouched, so that launch executes every team.

use ensemble_gpu::apps;
use ensemble_gpu::core::{run_ensemble_injected, EnsembleOptions, EnsembleResult, LaunchFaults};
use ensemble_gpu::obs::Recorder;
use ensemble_gpu::rpc::HostServices;
use ensemble_gpu::sim::Gpu;

/// The smoke argument lines of the figure-6 harness.
fn smoke_line(app: &str) -> Vec<String> {
    let line = match app {
        "xsbench" => "-l 60 -g 16",
        "rsbench" => "-l 60 -w 8 -p 2",
        "amgmk" => "-n 6 -s 4",
        _ => "-v 500 -d 6 -i 3",
    };
    line.split(' ').map(String::from).collect()
}

/// Run `n` instances of the smoke line of `app`, replaying or not.
fn run(app: &str, n: u32, thread_limit: u32, replay: bool) -> EnsembleResult {
    let opts = EnsembleOptions {
        num_instances: n,
        thread_limit,
        cycle_args: true,
        ..Default::default()
    };
    let faults = LaunchFaults {
        rpc_fault: (!replay).then(|| Box::new(|_: &_| None) as _),
        ..Default::default()
    };
    run_ensemble_injected(
        &mut Gpu::a100(),
        &apps::app_by_name(app).unwrap(),
        &[smoke_line(app)],
        &opts,
        HostServices::default(),
        &mut Recorder::disabled(),
        faults,
    )
    .expect("launchable")
}

/// Everything but the replay count must match.
fn assert_same(a: &EnsembleResult, b: &EnsembleResult, what: &str) {
    assert_eq!(a.instances, b.instances, "{what}: outcomes");
    assert_eq!(a.stdout, b.stdout, "{what}: stdout");
    assert_eq!(a.report, b.report, "{what}: report");
    assert_eq!(a.kernel_time_s, b.kernel_time_s, "{what}: kernel time");
    assert_eq!(a.total_time_s, b.total_time_s, "{what}: total time");
    assert_eq!(a.rpc_stats, b.rpc_stats, "{what}: rpc stats");
    assert_eq!(
        format!("{:?}", a.metrics),
        format!("{:?}", b.metrics),
        "{what}: metrics"
    );
    assert_eq!(a.heap.peak_bytes, b.heap.peak_bytes, "{what}: heap peak");
    assert_eq!(
        a.heap.alloc_fallbacks, b.heap.alloc_fallbacks,
        "{what}: fallbacks"
    );
}

#[test]
fn identical_smoke_lines_replay_all_but_the_leader() {
    // XSBench reads the host clock twice, and every clock answer depends
    // on all earlier queries: its instances always execute.
    for (app, replayed) in [
        ("rsbench", 3),
        ("amgmk", 3),
        ("pagerank", 3),
        ("xsbench", 0),
    ] {
        for tl in [32, 1024] {
            let what = format!("{app} tl {tl}");
            let fast = run(app, 4, tl, true);
            assert_eq!(fast.replayed_teams, replayed, "{what}");
            assert!(fast.all_succeeded(), "{what}");
            let full = run(app, 4, tl, false);
            assert_eq!(
                full.replayed_teams, 0,
                "{what}: an RPC fault source disables replay"
            );
            assert_same(&fast, &full, &what);
        }
    }
}

#[test]
fn paper_scale_pagerank_replays_until_the_memory_wall() {
    // Eight paper-scale Page-Rank instances: four fit on the A100. The
    // leader executes, three siblings replay, and the other four lack a
    // large enough hole, so they execute and run out of memory.
    let fast = run("pagerank", 8, 32, true);
    assert_eq!(fast.replayed_teams, 3);
    assert_eq!(fast.oom_count(), 4);
    assert!(fast.instances[..4].iter().all(|i| i.succeeded()));
    let full = run("pagerank", 8, 32, false);
    assert_same(&fast, &full, "pagerank x8");
}
