//! RSBench: the multipole cross-section lookup proxy (Tramm et al.),
//! compute-bound.
//!
//! Where XSBench tabulates cross sections, RSBench reconstructs them at
//! lookup time from resonance poles: each lookup picks the energy window
//! of every nuclide and evaluates the poles in that window with a
//! Faddeeva-flavoured complex kernel — little memory, lots of arithmetic.
//! The pole tables are small enough to be cache-resident, which is exactly
//! why RSBench scales closest to linear in the paper's Figure 6.

use crate::calibration as cal;
use crate::common::parse_flag_or;
use device_libc::rand::Lcg64;
use device_libc::stdio::dl_printf;
use dgc_core::{AppContext, HostApp};
use gpu_mem::DevicePtr;
use gpu_sim::{KernelError, LaneCtx, TeamCtx};

/// Parsed RSBench arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsParams {
    /// Energy windows per nuclide (`-w`).
    pub windows: u64,
    /// Poles per window (`-p`).
    pub poles_per_window: u64,
    /// Lookups (`-l`).
    pub lookups: u64,
}

/// The flags [`RsParams::parse`] reads as numbers.
pub(crate) const NUMERIC_FLAGS: [&str; 3] = ["-w", "-p", "-l"];

impl RsParams {
    pub fn parse(argv: &[String]) -> RsParams {
        RsParams {
            windows: parse_flag_or(argv, "-w", cal::RS_SCALED_WINDOWS).max(1),
            poles_per_window: parse_flag_or(argv, "-p", cal::RS_SCALED_POLES_PER_WINDOW).max(1),
            lookups: parse_flag_or(argv, "-l", cal::RS_SCALED_LOOKUPS).max(1),
        }
    }

    pub fn nuclides(&self) -> u64 {
        cal::RS_NUCLIDES
    }
}

// ---- analytic table contents ----------------------------------------

/// Pole parameter `c` (0..4: ea, rt, ra, rf) of pole `p` in window `w` of
/// nuclide `j`.
fn pole_value(j: u64, w: u64, p: u64, c: u64, windows: u64, ppw: u64) -> f64 {
    Lcg64::new(((j * windows + w) * ppw + p) * 4 + c + 1).next_f64()
}

/// Window curve-fit parameter `c` (0..2).
fn window_value(j: u64, w: u64, c: u64, windows: u64) -> f64 {
    Lcg64::new(0xA11CE + (j * windows + w) * 2 + c).next_f64()
}

/// Particle energy for lookup `i` (shared stream shape with XSBench).
fn particle_energy(i: u64) -> f64 {
    Lcg64::new(0x55_EED + i).next_f64()
}

/// The multipole evaluation: given pole parameters and the lookup energy,
/// produce this pole's contribution to the total cross section. A
/// rational-function stand-in for the Faddeeva evaluation with the same
/// FLOP class.
fn pole_kernel(e: f64, ea: f64, rt: f64, ra: f64, rf: f64) -> f64 {
    let psi = (e - ea) * (1.0 + rt);
    let denom = psi * psi + ra * ra + 1e-6;
    let sig_t = (rf * psi + ra) / denom;
    let sig_a = (rf * ra - psi * 0.5) / denom;
    sig_t + 0.1 * sig_a
}

/// Data access for one lookup; device and reference implementations.
trait RsAccess {
    fn window(&mut self, j: u64, w: u64, c: u64) -> Result<f64, KernelError>;
    fn pole(&mut self, j: u64, w: u64, p: u64, c: u64) -> Result<f64, KernelError>;
}

fn lookup_contribution<A: RsAccess>(
    acc: &mut A,
    e: f64,
    params: &RsParams,
) -> Result<f64, KernelError> {
    let n = params.nuclides();
    let (windows, ppw) = (params.windows, params.poles_per_window);
    let mut total = 0.0;
    for j in 0..n {
        let w = ((e * windows as f64) as u64).min(windows - 1);
        // Window curve fit: low-order background polynomial.
        let a0 = acc.window(j, w, 0)?;
        let a1 = acc.window(j, w, 1)?;
        let mut sig = a0 + a1 * e;
        for p in 0..ppw {
            let ea = acc.pole(j, w, p, 0)?;
            let rt = acc.pole(j, w, p, 1)?;
            let ra = acc.pole(j, w, p, 2)?;
            let rf = acc.pole(j, w, p, 3)?;
            sig += pole_kernel(e, ea, rt, ra, rf);
        }
        total += sig;
    }
    Ok(total)
}

struct FormulaAccess {
    windows: u64,
    ppw: u64,
}

impl RsAccess for FormulaAccess {
    fn window(&mut self, j: u64, w: u64, c: u64) -> Result<f64, KernelError> {
        Ok(window_value(j, w, c, self.windows))
    }

    fn pole(&mut self, j: u64, w: u64, p: u64, c: u64) -> Result<f64, KernelError> {
        Ok(pole_value(j, w, p, c, self.windows, self.ppw))
    }
}

struct DeviceAccess<'l, 't, 'g> {
    lane: &'l mut LaneCtx<'t, 'g>,
    windows_buf: DevicePtr,
    poles_buf: DevicePtr,
    windows: u64,
    ppw: u64,
}

impl RsAccess for DeviceAccess<'_, '_, '_> {
    fn window(&mut self, j: u64, w: u64, c: u64) -> Result<f64, KernelError> {
        self.lane
            .ld_idx::<f64>(self.windows_buf, (j * self.windows + w) * 2 + c)
    }

    fn pole(&mut self, j: u64, w: u64, p: u64, c: u64) -> Result<f64, KernelError> {
        self.lane.ld_idx::<f64>(
            self.poles_buf,
            ((j * self.windows + w) * self.ppw + p) * 4 + c,
        )
    }
}

/// Host reference checksum.
pub fn reference_checksum(p: &RsParams) -> f64 {
    let mut acc = FormulaAccess {
        windows: p.windows,
        ppw: p.poles_per_window,
    };
    (0..p.lookups)
        .map(|i| {
            lookup_contribution(&mut acc, particle_energy(i), p)
                .expect("reference loads cannot fail")
        })
        .sum()
}

fn rs_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    let p = RsParams::parse(&cx.argv);
    let n = p.nuclides();
    let (windows, ppw) = (p.windows, p.poles_per_window);

    let (windows_buf, poles_buf) = team.serial("setup", |lane| {
        lane.dev_reserve(cal::rs_paper_bytes())?;
        let wb = lane.dev_alloc(n * windows * 2 * 8)?;
        let pb = lane.dev_alloc(n * windows * ppw * 4 * 8)?;
        lane.work(200.0);
        Ok((wb, pb))
    })?;

    team.parallel_for("generate_windows", n * windows, |i, lane| {
        let (j, w) = (i / windows, i % windows);
        for c in 0..2u64 {
            lane.st_idx::<f64>(windows_buf, i * 2 + c, window_value(j, w, c, windows))?;
        }
        for pp in 0..ppw {
            for c in 0..4u64 {
                lane.st_idx::<f64>(
                    poles_buf,
                    (i * ppw + pp) * 4 + c,
                    pole_value(j, w, pp, c, windows, ppw),
                )?;
            }
        }
        lane.work(12.0 * ppw as f64);
        Ok(())
    })?;

    let checksum = team.parallel_for_reduce_f64("lookups", p.lookups, |i, lane| {
        let e = particle_energy(i);
        lane.work(cal::RS_POLE_WORK * n as f64 * ppw as f64);
        let mut acc = DeviceAccess {
            lane,
            windows_buf,
            poles_buf,
            windows,
            ppw,
        };
        lookup_contribution(&mut acc, e, &p)
    })?;

    let lookups = p.lookups;
    team.serial("report", |lane| {
        dl_printf(
            lane,
            "Simulation complete.\nLookups: %d\nVerification checksum: %.10e\n",
            &[lookups.into(), checksum.into()],
        )?;
        Ok(())
    })?;
    Ok(0)
}

const MODULE: &str = r#"
module "rsbench" {
  func @main arity=2 calls(@parse_args, @generate_windows, @run_lookups, @printf)
  func @parse_args arity=2 calls(@atoi, @strcmp)
  func @generate_windows arity=1 calls(@malloc, @rand) !parallel(1) !order_independent
  func @run_lookups arity=1 calls(@sqrt, @fabs) !parallel(1) !order_independent
  extern func @printf variadic
  extern func @atoi
  extern func @strcmp
  extern func @malloc
  extern func @rand
  extern func @sqrt
  extern func @fabs
}
"#;

fn footprint_scale(argv: &[String]) -> f64 {
    let p = RsParams::parse(argv);
    cal::rs_paper_bytes() as f64 / cal::rs_scaled_bytes(p.windows, p.poles_per_window).max(1) as f64
}

/// The packaged RSBench application.
pub fn app() -> HostApp {
    let mut a = HostApp::new("rsbench", MODULE, rs_main);
    a.footprint_scale = Some(footprint_scale);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::Loader;
    use gpu_sim::Gpu;
    use host_rpc::HostServices;

    #[test]
    fn params_parse() {
        let argv: Vec<String> = ["rsbench", "-l", "50", "-w", "8", "-p", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            RsParams::parse(&argv),
            RsParams {
                windows: 8,
                poles_per_window: 3,
                lookups: 50
            }
        );
    }

    #[test]
    fn device_checksum_matches_reference() {
        let mut gpu = Gpu::a100();
        let res = Loader::default()
            .run(
                &mut gpu,
                &app(),
                &["-l", "30", "-w", "6", "-p", "2"],
                HostServices::default(),
            )
            .unwrap();
        assert_eq!(res.exit_code, Some(0), "trap: {:?}", res.trap);
        let p = RsParams {
            windows: 6,
            poles_per_window: 2,
            lookups: 30,
        };
        let expected = reference_checksum(&p);
        let line = res
            .stdout
            .lines()
            .find(|l| l.starts_with("Verification"))
            .unwrap();
        let printed: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(
            (printed - expected).abs() <= expected.abs() * 1e-9,
            "printed {printed} vs expected {expected}"
        );
    }

    #[test]
    fn kernel_is_compute_heavy() {
        let mut gpu = Gpu::a100();
        let res = Loader::default()
            .run(&mut gpu, &app(), &["-l", "60"], HostServices::default())
            .unwrap();
        // Note on units: instruction counts are warp-level (lockstep max
        // across lanes) while bytes are summed across lanes, so "bytes per
        // warp-instruction" runs ~32× the per-thread ratio. Compute-bound
        // RSBench sits far below memory-bound XSBench on this metric
        // (see `lib.rs::intensity_ordering_matches_benchmark_classes`).
        let bpi = res.report.useful_bytes / res.report.total_insts;
        assert!(bpi < 10.0, "bytes/warp-inst = {bpi}");
    }

    #[test]
    fn pole_kernel_is_finite_everywhere() {
        for i in 0..1000 {
            let mut r = Lcg64::new(i);
            let v = pole_kernel(
                r.next_f64(),
                r.next_f64(),
                r.next_f64(),
                r.next_f64(),
                r.next_f64(),
            );
            assert!(v.is_finite());
        }
    }
}
