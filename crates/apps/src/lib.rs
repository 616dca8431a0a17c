//! The paper's four evaluation benchmarks, ported to the direct-GPU device
//! API (paper §4.1):
//!
//! * [`xsbench`] — the OpenMC macroscopic-cross-section lookup proxy
//!   (memory-bound: random lookups across a unionized energy grid);
//! * [`rsbench`] — the multipole cross-section proxy (compute-bound:
//!   complex pole evaluations per lookup);
//! * [`amgmk`] — the AMGmk `relax` kernel (streaming Jacobi sweeps over a
//!   7-point-stencil CSR matrix);
//! * [`pagerank`] — the HeCBench Page-Rank propagation step (irregular
//!   gather over a CSR graph; paper-scale footprint exhausts a 40 GB
//!   device beyond 4 instances).
//!
//! Every benchmark follows the legacy-CPU-application shape the direct GPU
//! compilation scheme expects: a `main(argc, argv)` that parses flags,
//! allocates through the device libc, generates its input deterministically
//! (seeded LCG), runs its measured kernel in OpenMP-style parallel
//! regions, and prints a verification checksum via `printf`. A pure-Rust
//! host reference (`reference_checksum`) reproduces the exact arithmetic,
//! so device results are validated bit-for-bit in tests.
//!
//! **Scaling.** Functional execution materializes scaled-down arrays
//! (parameters below the paper's defaults) while two mechanisms keep
//! paper-scale *behaviour*: a reserved device allocation of the paper-size
//! footprint (drives out-of-memory exactly where the paper hit it) and the
//! footprint multiplier handed to the simulator's L2 model (drives cache
//! behaviour as if the data were full size). The per-benchmark constants
//! live in [`calibration`].

pub mod amgmk;
pub mod calibration;
mod common;
pub mod pagerank;
pub mod rsbench;
pub mod xsbench;

pub use common::{flag_value, parse_flag_or};
use dgc_core::HostApp;

/// All four benchmarks, in the order the paper lists them.
pub fn all_apps() -> Vec<HostApp> {
    vec![
        xsbench::app(),
        rsbench::app(),
        amgmk::app(),
        pagerank::app(),
    ]
}

/// Look a benchmark up by name (CLI entry points use this).
pub fn app_by_name(name: &str) -> Option<HostApp> {
    all_apps().into_iter().find(|a| a.name == name)
}

/// Validate one argument line of benchmark `name` before anything runs:
/// every numeric flag must carry a non-negative integer. Names outside
/// the registry have no known flags and pass.
pub fn validate_args(name: &str, args: &[String]) -> Result<(), String> {
    let flags: &[&str] = match name {
        "xsbench" => &xsbench::NUMERIC_FLAGS,
        "rsbench" => &rsbench::NUMERIC_FLAGS,
        "amgmk" => &amgmk::NUMERIC_FLAGS,
        "pagerank" => &pagerank::NUMERIC_FLAGS,
        _ => &[],
    };
    common::check_numeric_flags(args, flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_papers_four() {
        let names: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["xsbench", "rsbench", "amgmk", "pagerank"]);
    }

    #[test]
    fn validation_covers_every_numeric_flag() {
        let line = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(validate_args("xsbench", &line("-l 100 -g 16 -s small")).is_ok());
        assert!(validate_args("xsbench", &line("-l -5 -g 16")).is_err());
        assert!(validate_args("rsbench", &line("-w -1")).is_err());
        assert!(validate_args("amgmk", &line("-s -2")).is_err());
        assert!(validate_args("pagerank", &line("-i x")).is_err());
        assert!(validate_args("custom", &line("-l -5")).is_ok());
    }

    #[test]
    fn lookup_by_name() {
        assert!(app_by_name("xsbench").is_some());
        assert!(app_by_name("nope").is_none());
    }

    #[test]
    fn intensity_ordering_matches_benchmark_classes() {
        // Memory-bound XSBench must sit far above compute-bound RSBench in
        // bytes per warp-instruction; AMGmk (streaming) lands high too.
        let bpi = |app: &HostApp, args: &[&str]| {
            let mut gpu = gpu_sim::Gpu::a100();
            let res = dgc_core::Loader::default()
                .run(&mut gpu, app, args, host_rpc::HostServices::default())
                .unwrap();
            assert_eq!(
                res.exit_code,
                Some(0),
                "{} trapped: {:?}",
                app.name,
                res.trap
            );
            res.report.useful_bytes / res.report.total_insts
        };
        let xs = bpi(&xsbench::app(), &["-l", "50"]);
        let rs = bpi(&rsbench::app(), &["-l", "50"]);
        let amg = bpi(&amgmk::app(), &["-n", "6", "-s", "4"]);
        assert!(xs > 3.0 * rs, "xs = {xs}, rs = {rs}");
        assert!(amg > 2.0 * rs, "amg = {amg}, rs = {rs}");
        assert!(rs < 8.0, "rs = {rs}");
    }

    #[test]
    fn all_modules_compile_through_the_pipeline() {
        let loader = dgc_core::Loader::default();
        for app in all_apps() {
            let image = loader.compile_app(&app).unwrap_or_else(|e| {
                panic!("{} failed to compile: {e}", app.name);
            });
            assert_eq!(image.entry, "__user_main");
            assert!(
                image.rpc_services.contains(&host_rpc::SERVICE_STDIO),
                "{} must print through the stdio service",
                app.name
            );
        }
    }
}
