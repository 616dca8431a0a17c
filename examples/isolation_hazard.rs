//! The §3.3 limitation, demonstrated: mutable globals break instance
//! isolation under ensemble execution — and the globals-to-shared
//! compiler transform (proposed in the paper as the fix) restores it.
//!
//! A counter global is incremented `-k` times by each instance. With the
//! transform disabled the counter lands in device-global memory and the
//! instances' updates interleave (each instance reads the others' traffic);
//! with the transform enabled every team gets its own shared-memory copy
//! and each instance sees exactly its own count.
//!
//! ```text
//! cargo run --release --example isolation_hazard
//! ```

use ensemble_gpu::compiler::CompilerOptions;
use ensemble_gpu::core::{
    parse_arg_file, run_ensemble, AppContext, EnsembleOptions, GlobalSlot, HostApp,
};
use ensemble_gpu::libc::dl_printf;
use ensemble_gpu::rpc::HostServices;
use ensemble_gpu::sim::{Gpu, KernelError, TeamCtx};

const MODULE: &str = r#"
module "counter" {
  global @hits size=8 align=8
  func @main arity=2 calls(@bump, @printf)
  func @bump arity=1
  extern func @printf variadic
}
"#;

fn counter_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    let k: u64 = cx.argv.get(1).and_then(|v| v.parse().ok()).unwrap_or(10);
    let slot = cx.global("hits")?;
    let instance = cx.instance();
    team.serial("bump", |lane| {
        let final_count = match slot {
            GlobalSlot::Device(ptr) => {
                // Shared across *all* instances: a data race in spirit.
                let mut last = 0;
                for _ in 0..k {
                    last = lane.atomic_add_u64(ptr, 1)? + 1;
                }
                last
            }
            GlobalSlot::Shared(buf) => {
                // Team-local copy: perfectly isolated.
                let mut v = u64::from_le_bytes([
                    lane.sh_ld::<u8>(&buf, 0)?,
                    lane.sh_ld::<u8>(&buf, 1)?,
                    lane.sh_ld::<u8>(&buf, 2)?,
                    lane.sh_ld::<u8>(&buf, 3)?,
                    lane.sh_ld::<u8>(&buf, 4)?,
                    lane.sh_ld::<u8>(&buf, 5)?,
                    lane.sh_ld::<u8>(&buf, 6)?,
                    lane.sh_ld::<u8>(&buf, 7)?,
                ]);
                for _ in 0..k {
                    v += 1;
                }
                for (i, b) in v.to_le_bytes().iter().enumerate() {
                    lane.sh_st::<u8>(&buf, i, *b)?;
                }
                v
            }
        };
        dl_printf(
            lane,
            "instance %d incremented %d times, sees counter = %d\n",
            &[instance.into(), k.into(), final_count.into()],
        )?;
        Ok(())
    })?;
    Ok(0)
}

fn run_with(globals_to_shared: bool) {
    let app = HostApp::new("counter", MODULE, counter_main);
    let lines = parse_arg_file("25\n25\n25\n25\n").unwrap();
    let opts = EnsembleOptions {
        num_instances: 4,
        thread_limit: 32,
        compiler: CompilerOptions {
            globals_to_shared,
            ..CompilerOptions::default()
        },
        ..Default::default()
    };
    let mut gpu = Gpu::a100();
    let res = run_ensemble(&mut gpu, &app, &lines, &opts, HostServices::default())
        .expect("counter app launches");
    println!(
        "globals-to-shared {}:",
        if globals_to_shared {
            "ON (isolated)"
        } else {
            "OFF (§3.3 hazard)"
        }
    );
    for out in &res.stdout {
        print!("  {out}");
    }
    println!();
}

fn main() {
    run_with(false);
    run_with(true);
    println!("with the transform off, later instances observe earlier instances'");
    println!("increments through the shared device global; with it on, every");
    println!("instance sees exactly its own 25.");
}
