//! Integration of the compiler pipeline with the offload runtime: what the
//! compiled image says is exactly what the runtime enforces.

use ensemble_gpu::compiler::CompilerOptions;
use ensemble_gpu::core::{
    parse_arg_file, run_ensemble, AppContext, EnsembleOptions, GlobalSlot, HostApp, Loader,
};
use ensemble_gpu::ir::{Attr, GlobalPlacement};
use ensemble_gpu::libc::dl_printf;
use ensemble_gpu::rpc::HostServices;
use ensemble_gpu::sim::{Gpu, KernelError, TeamCtx};

const PRINTING_MODULE: &str = r#"
module "printer" {
  func @main arity=2 calls(@printf)
  extern func @printf variadic
}
"#;

const SILENT_MODULE: &str = r#"
module "silent" {
  func @main arity=2 calls(@compute)
  func @compute arity=0
}
"#;

fn printing_main(team: &mut TeamCtx<'_>, _cx: &AppContext) -> Result<i32, KernelError> {
    team.serial("p", |lane| {
        dl_printf(lane, "out\n", &[])?;
        Ok(())
    })?;
    Ok(0)
}

#[test]
fn rpc_services_gate_runtime_calls() {
    // A module that never references printf gets no stdio stub; the same
    // behaviour code then traps when it tries to print.
    let ok_app = HostApp::new("printer", PRINTING_MODULE, printing_main);
    let bad_app = HostApp::new("silent", SILENT_MODULE, printing_main);
    let mut gpu = Gpu::a100();
    let ok = Loader::default()
        .run(&mut gpu, &ok_app, &[], HostServices::default())
        .unwrap();
    assert_eq!(ok.exit_code, Some(0));
    assert_eq!(ok.stdout, "out\n");

    let bad = Loader::default()
        .run(&mut gpu, &bad_app, &[], HostServices::default())
        .unwrap();
    assert!(bad.trap.as_deref().unwrap_or("").contains("no RPC stub"));
    assert_eq!(bad.stdout, "");
}

#[test]
fn compiled_image_reports_what_ran() {
    let image = Loader::default()
        .compile_app(&HostApp::new("printer", PRINTING_MODULE, printing_main))
        .unwrap();
    assert_eq!(image.entry, "__user_main");
    assert!(image.module.function("__rpc_printf").is_some());
    let wrapper = image.module.function("main").unwrap();
    assert!(wrapper.attrs.has(&Attr::MainWrapper));
    // Everything that survives DCE is device-marked (except the wrapper).
    for f in image.module.defined_functions() {
        if !f.attrs.has(&Attr::MainWrapper) {
            assert!(f.attrs.is_nohost_device(), "{} not device-marked", f.name);
        }
    }
}

const GLOBALS_MODULE: &str = r#"
module "globals" {
  global @small size=64 align=8
  global @big size=1048576 align=8
  global @table size=256 align=8 const
  func @main arity=2 calls(@printf)
  extern func @printf variadic
}
"#;

fn globals_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    // The runtime hands out slots exactly as the compiler placed them.
    let small = cx.global("small")?;
    let big = cx.global("big")?;
    let table = cx.global("table")?;
    assert!(
        matches!(small, GlobalSlot::Shared(_)),
        "small should be team-shared"
    );
    assert!(
        matches!(big, GlobalSlot::Device(_)),
        "big exceeds the budget"
    );
    assert!(
        matches!(table, GlobalSlot::Device(_)),
        "const stays device-resident"
    );
    let instance = cx.instance();
    team.serial("use", |lane| {
        if let GlobalSlot::Shared(buf) = small {
            lane.sh_st::<u8>(&buf, 0, instance as u8)?;
            assert_eq!(lane.sh_ld::<u8>(&buf, 0)?, instance as u8);
        }
        if let GlobalSlot::Device(ptr) = big {
            lane.st::<u64>(ptr, 1)?;
        }
        dl_printf(lane, "ok %d\n", &[instance.into()])?;
        Ok(())
    })?;
    Ok(0)
}

#[test]
fn global_placements_flow_to_runtime_slots() {
    let app = HostApp::new("globals", GLOBALS_MODULE, globals_main);
    let image = Loader::default().compile_app(&app).unwrap();
    assert_eq!(
        image.global_placements["small"],
        GlobalPlacement::TeamShared
    );
    assert_eq!(
        image.global_placements["big"],
        GlobalPlacement::DeviceGlobal
    );
    assert_eq!(image.global_placements["table"], GlobalPlacement::Constant);
    assert_eq!(image.isolation_hazards(), vec!["big"]);
    assert!(image
        .diagnostics
        .warnings()
        .any(|d| d.message.contains("@big")));

    let mut gpu = Gpu::a100();
    let opts = EnsembleOptions {
        cycle_args: true,
        num_instances: 3,
        thread_limit: 32,
        ..Default::default()
    };
    let res = run_ensemble(
        &mut gpu,
        &app,
        &parse_arg_file("x\n").unwrap(),
        &opts,
        HostServices::default(),
    )
    .unwrap();
    assert!(res.all_succeeded(), "{:?}", res.instances);
}

#[test]
fn disabling_the_transform_changes_runtime_placement() {
    let app = HostApp::new("globals", GLOBALS_MODULE, |team, cx| {
        // Now even @small must be a (hazardous) device global.
        assert!(matches!(cx.global("small")?, GlobalSlot::Device(_)));
        team.serial("noop", |_| Ok(()))?;
        Ok(0)
    });
    let mut gpu = Gpu::a100();
    let opts = EnsembleOptions {
        cycle_args: true,
        num_instances: 2,
        thread_limit: 32,
        compiler: CompilerOptions {
            globals_to_shared: false,
            ..CompilerOptions::default()
        },
        ..Default::default()
    };
    let res = run_ensemble(
        &mut gpu,
        &app,
        &parse_arg_file("x\n").unwrap(),
        &opts,
        HostServices::default(),
    )
    .unwrap();
    assert!(res.all_succeeded(), "{:?}", res.instances);
}

const HOST_ONLY_MODULE: &str = r#"
module "forking" {
  func @main arity=2 calls(@fork)
  extern func @fork
}
"#;

#[test]
fn host_only_calls_fail_compilation() {
    let app = HostApp::new("forking", HOST_ONLY_MODULE, |_, _| Ok(0));
    let mut gpu = Gpu::a100();
    let err = Loader::default()
        .run(&mut gpu, &app, &[], HostServices::default())
        .unwrap_err();
    assert!(err.to_string().contains("compilation failed"), "{err}");
}

#[test]
fn benchmarks_expose_expansion_analysis() {
    // All four benchmarks carry order-independent parallel regions, so the
    // [27] multi-team expansion is allowed — and ensemble execution is the
    // alternative this paper explores when it is not.
    for app in ensemble_gpu::apps::all_apps() {
        let image = Loader::default().compile_app(&app).unwrap();
        assert!(
            image.expansion.multi_team_eligible,
            "{} should be expansion-eligible",
            app.name
        );
        assert!(image.expansion.parallel_regions >= 1);
    }
}
