//! End-to-end observability: a traced ensemble run must export a valid
//! Chrome trace and a metrics JSONL stream through the public API alone —
//! exactly what the `ensemble-cli` binary does with `--trace-out` and
//! `--metrics-out`.

use device_libc::dl_printf;
use dgc_core::{parse_arg_file, run_ensemble_traced, AppContext, EnsembleOptions, HostApp};
use dgc_obs::{metrics_jsonl, validate_chrome_trace, Recorder};
use gpu_sim::{Gpu, KernelError, TeamCtx};
use host_rpc::HostServices;
use serde_json::Value;

const MODULE: &str = r#"
module "obs" {
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
        .unwrap_or(256);
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

#[test]
fn traced_ensemble_exports_valid_chrome_trace_and_jsonl() {
    let app = HostApp::new("obs", MODULE, stream_main);
    let arg_lines = parse_arg_file("-n 128\n-n 256\n-n 512\n-n 1024\n").unwrap();
    let opts = EnsembleOptions {
        num_instances: 4,
        thread_limit: 32,
        ..Default::default()
    };
    let mut gpu = Gpu::a100();
    let mut obs = Recorder::enabled();
    let res = run_ensemble_traced(
        &mut gpu,
        &app,
        &arg_lines,
        &opts,
        HostServices::default(),
        &mut obs,
    )
    .unwrap();
    assert!(res.all_succeeded());

    // The Chrome trace round-trips through the validator: well-formed
    // JSON, a traceEvents array, monotone-safe non-negative ts/dur.
    let trace = obs.to_chrome_trace();
    let n_events = validate_chrome_trace(&trace).expect("trace must validate");
    assert!(n_events > 0, "a traced run records events");

    // Every instrumentation layer shows up: loader spans, the kernel
    // span, per-block schedule lanes, phase spans, instance lifecycle.
    let parsed: Value = serde_json::from_str(&trace).unwrap();
    let events = match &parsed {
        Value::Object(fields) => match &fields[0].1 {
            Value::Array(evs) => evs.clone(),
            other => panic!("traceEvents must be an array, got {other:?}"),
        },
        other => panic!("trace must be an object, got {other:?}"),
    };
    let cat_of = |ev: &Value| -> Option<String> {
        if let Value::Object(fields) = ev {
            for (k, v) in fields {
                if k == "cat" {
                    if let Value::Str(s) = v {
                        return Some(s.clone());
                    }
                }
            }
        }
        None
    };
    let cats: Vec<String> = events.iter().filter_map(cat_of).collect();
    for want in ["loader", "kernel", "block", "phase", "lifecycle"] {
        assert!(
            cats.iter().any(|c| c == want),
            "missing '{want}' events in {cats:?}"
        );
    }

    // The metrics stream carries one tagged line per instance plus one
    // launch rollup, each a self-contained JSON object.
    let jsonl = metrics_jsonl(&res.metrics, &res.launch_metrics());
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 4 + 1);
    for (i, line) in lines.iter().enumerate() {
        let v: Value = serde_json::from_str(line).expect("each line is JSON");
        let Value::Object(fields) = v else {
            panic!("line {i} is not an object")
        };
        let kind = fields
            .iter()
            .find(|(k, _)| k == "record")
            .map(|(_, v)| v.clone());
        let want = if i < 4 { "instance" } else { "launch" };
        assert_eq!(kind, Some(Value::Str(want.to_string())));
    }
}
