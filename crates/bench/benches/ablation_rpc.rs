//! Ablation: host-RPC overhead (the Fig. 2 substrate).
//!
//! A printf-heavy microbenchmark quantifies the round-trip cost the RPC
//! framework adds to device execution, at 1 and 16 instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use device_libc::dl_printf;
use dgc_core::{run_ensemble, EnsembleOptions, HostApp};
use gpu_sim::Gpu;
use host_rpc::HostServices;

const MODULE: &str = r#"
module "chatty" {
  func @main arity=2 calls(@printf)
  extern func @printf variadic
}
"#;

fn chatty_main(
    team: &mut gpu_sim::TeamCtx<'_>,
    cx: &dgc_core::AppContext,
) -> Result<i32, gpu_sim::KernelError> {
    let lines: u64 = cx.argv.get(1).and_then(|v| v.parse().ok()).unwrap_or(10);
    let instance = cx.instance();
    team.serial("chatter", |lane| {
        for k in 0..lines {
            dl_printf(lane, "instance %d line %d\n", &[instance.into(), k.into()])?;
        }
        Ok(())
    })?;
    Ok(0)
}

fn run_chatty(instances: u32, lines: u32) -> f64 {
    let mut gpu = Gpu::a100();
    let app = HostApp::new("chatty", MODULE, chatty_main);
    let opts = EnsembleOptions {
        num_instances: instances,
        thread_limit: 32,
        ..Default::default()
    };
    let res = run_ensemble(
        &mut gpu,
        &app,
        &[vec![lines.to_string()]],
        &opts,
        HostServices::default(),
    )
    .unwrap();
    assert!(res.all_succeeded());
    assert_eq!(res.rpc_stats.stdio_calls, instances as u64 * lines as u64);
    res.kernel_time_s
}

fn bench(c: &mut Criterion) {
    let quiet = run_chatty(1, 1);
    let chatty = run_chatty(1, 100);
    eprintln!(
        "ablation_rpc: 1 printf = {:.1} us, 100 printfs = {:.1} us (~{:.1} us per RPC round trip)",
        quiet * 1e6,
        chatty * 1e6,
        (chatty - quiet) * 1e6 / 99.0
    );
    let mut group = c.benchmark_group("ablation_rpc");
    group.sample_size(10);
    for (instances, lines) in [(1u32, 100u32), (16, 100)] {
        group.bench_with_input(
            BenchmarkId::new("printf_storm", format!("{instances}x{lines}")),
            &(instances, lines),
            |b, &(i, l)| b.iter(|| run_chatty(i, l)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
