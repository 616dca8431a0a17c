//! Criterion bench regenerating Figure 6(a): ensemble speedup at thread
//! limit 32. Each benchmark × instance-count cell measures one ensemble
//! launch end-to-end (functional execution + timing simulation); the
//! figure itself is printed by the `figure6` binary — this bench tracks
//! the harness's own cost and keeps the sweep exercised under `cargo
//! bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgc_bench::{measure_config, smoke_workloads};
use gpu_arch::GpuSpec;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_tl32");
    group.sample_size(10);
    for workload in smoke_workloads() {
        for &n in &[1u32, 8, 64] {
            if workload.name == "pagerank" && n > 4 {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(workload.name, n), &n, |b, &n| {
                b.iter(|| {
                    let t = measure_config(&GpuSpec::a100_40gb(), &workload, n, 32, None).time_s;
                    assert!(t.is_some());
                    t
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
