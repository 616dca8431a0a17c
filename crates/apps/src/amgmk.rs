//! AMGmk: the `relax` kernel of the CORAL AMGmk proxy application —
//! weighted Jacobi sweeps over the 7-point Laplacian of a 3-D grid.
//!
//! The kernel streams the matrix (values and column indices) and gathers
//! `x[col]`: almost no arithmetic per byte, which is why the paper sees
//! AMGmk lose the most ensemble scaling — its working set is L2-resident
//! for one instance and L2-thrashing for 64.
//!
//! The matrix is stored 7-wide ELL (a regular-stencil-friendly layout;
//! absent neighbours carry a zero coefficient against the diagonal
//! column), which keeps generation parallel and the access pattern
//! faithful to the relax loop.

use crate::calibration as cal;
use crate::common::parse_flag_or;
use device_libc::rand::Lcg64;
use device_libc::stdio::dl_printf;
use dgc_core::{AppContext, HostApp};
use gpu_sim::{KernelError, TeamCtx};

/// Parsed AMGmk arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmgParams {
    /// Grid dimension (`-n`): the matrix has `n³` rows.
    pub dim: u64,
    /// Relax sweeps (`-s`).
    pub sweeps: u64,
}

/// The flags [`AmgParams::parse`] reads as numbers.
pub(crate) const NUMERIC_FLAGS: [&str; 2] = ["-n", "-s"];

impl AmgParams {
    pub fn parse(argv: &[String]) -> AmgParams {
        AmgParams {
            dim: parse_flag_or(argv, "-n", cal::AMG_SCALED_DIM).max(2),
            sweeps: parse_flag_or(argv, "-s", cal::AMG_SCALED_SWEEPS).max(1),
        }
    }

    pub fn rows(&self) -> u64 {
        self.dim * self.dim * self.dim
    }
}

/// Jacobi damping factor.
const OMEGA: f64 = 0.8;

/// The 7-point stencil neighbour offsets in (x, y, z).
const STENCIL: [(i64, i64, i64); 6] = [
    (-1, 0, 0),
    (1, 0, 0),
    (0, -1, 0),
    (0, 1, 0),
    (0, 0, -1),
    (0, 0, 1),
];

/// Column index of slot `s` (0 = diagonal, 1..=6 neighbours) for row `r`;
/// out-of-grid neighbours fold onto the diagonal with coefficient 0.
fn ell_col(r: u64, s: usize, dim: u64) -> u64 {
    if s == 0 {
        return r;
    }
    let (dx, dy, dz) = STENCIL[s - 1];
    let x = (r % dim) as i64 + dx;
    let y = ((r / dim) % dim) as i64 + dy;
    let z = (r / (dim * dim)) as i64 + dz;
    if x < 0 || y < 0 || z < 0 || x >= dim as i64 || y >= dim as i64 || z >= dim as i64 {
        r
    } else {
        (x as u64) + dim * (y as u64) + dim * dim * (z as u64)
    }
}

/// Coefficient of slot `s` for row `r`.
fn ell_val(r: u64, s: usize, dim: u64) -> f64 {
    if s == 0 {
        // Strictly diagonally dominant Laplacian diagonal.
        6.5
    } else if ell_col(r, s, dim) == r {
        0.0 // folded boundary slot
    } else {
        -1.0
    }
}

/// Right-hand side for row `r`.
fn rhs_value(r: u64) -> f64 {
    Lcg64::new(0xA3_6B + r).next_f64()
}

/// Initial guess.
fn x0_value(r: u64) -> f64 {
    Lcg64::new(0x1217 + r).next_f64() * 0.1
}

/// Host reference: run the sweeps in plain Rust and return `Σ x`.
pub fn reference_checksum(p: &AmgParams) -> f64 {
    let rows = p.rows();
    let dim = p.dim;
    let mut x: Vec<f64> = (0..rows).map(x0_value).collect();
    let mut xn = vec![0.0f64; rows as usize];
    for _ in 0..p.sweeps {
        for r in 0..rows {
            let mut acc = rhs_value(r);
            let mut diag = 0.0;
            for s in 0..7 {
                let col = ell_col(r, s, dim);
                let val = ell_val(r, s, dim);
                if s == 0 {
                    diag = val;
                } else {
                    acc -= val * x[col as usize];
                }
            }
            let xr = x[r as usize];
            xn[r as usize] = xr + OMEGA * (acc / diag - xr);
        }
        std::mem::swap(&mut x, &mut xn);
    }
    x.iter().sum()
}

fn amg_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    let p = AmgParams::parse(&cx.argv);
    let rows = p.rows();
    let dim = p.dim;

    let (cols, vals, rhs, mut x, mut xn) = team.serial("setup", |lane| {
        lane.dev_reserve(cal::amg_paper_bytes())?;
        let cols = lane.dev_alloc(rows * 7 * 4)?;
        let vals = lane.dev_alloc(rows * 7 * 8)?;
        let rhs = lane.dev_alloc(rows * 8)?;
        let x = lane.dev_alloc(rows * 8)?;
        let xn = lane.dev_alloc(rows * 8)?;
        lane.work(200.0);
        Ok((cols, vals, rhs, x, xn))
    })?;

    // Matrix/vector generation (AMGmk's laplacian setup).
    // ELL is stored slot-major (`slot * rows + row`) so that adjacent
    // lanes read adjacent elements — the standard coalescing-friendly
    // layout GPU SpMV ports use.
    team.parallel_for("generate", rows, |r, lane| {
        for s in 0..7usize {
            lane.st_idx::<u32>(cols, s as u64 * rows + r, ell_col(r, s, dim) as u32)?;
            lane.st_idx::<f64>(vals, s as u64 * rows + r, ell_val(r, s, dim))?;
        }
        lane.st_idx::<f64>(rhs, r, rhs_value(r))?;
        lane.st_idx::<f64>(x, r, x0_value(r))?;
        lane.work(14.0);
        Ok(())
    })?;

    // The measured kernel: `sweeps` damped-Jacobi relax passes.
    for _ in 0..p.sweeps {
        team.parallel_for("relax", rows, |r, lane| {
            let mut acc = lane.ld_idx::<f64>(rhs, r)?;
            let mut diag = 1.0;
            for s in 0..7u64 {
                let col = lane.ld_idx::<u32>(cols, s * rows + r)? as u64;
                let val = lane.ld_idx::<f64>(vals, s * rows + r)?;
                if s == 0 {
                    diag = val;
                } else {
                    acc -= val * lane.ld_idx::<f64>(x, col)?;
                }
                lane.work(cal::AMG_NNZ_WORK);
            }
            let xr = lane.ld_idx::<f64>(x, r)?;
            lane.st_idx::<f64>(xn, r, xr + OMEGA * (acc / diag - xr))?;
            lane.work(4.0);
            Ok(())
        })?;
        std::mem::swap(&mut x, &mut xn);
    }

    let checksum =
        team.parallel_for_reduce_f64("checksum", rows, |r, lane| lane.ld_idx::<f64>(x, r))?;

    let sweeps = p.sweeps;
    team.serial("report", |lane| {
        dl_printf(
            lane,
            "Relax complete.\nRows: %d\nSweeps: %d\nVerification checksum: %.10e\n",
            &[rows.into(), sweeps.into(), checksum.into()],
        )?;
        Ok(())
    })?;
    Ok(0)
}

const MODULE: &str = r#"
module "amgmk" {
  global @relax_weight size=8 align=8
  func @main arity=2 calls(@parse_args, @laplacian_setup, @relax, @printf)
  func @parse_args arity=2 calls(@atoi)
  func @laplacian_setup arity=1 calls(@malloc, @rand) !parallel(1) !order_independent
  func @relax arity=1 !parallel(1) !order_independent
  extern func @printf variadic
  extern func @atoi
  extern func @malloc
  extern func @rand
}
"#;

fn footprint_scale(argv: &[String]) -> f64 {
    let p = AmgParams::parse(argv);
    cal::amg_paper_bytes() as f64 / cal::amg_scaled_bytes(p.dim).max(1) as f64
}

/// The packaged AMGmk application.
pub fn app() -> HostApp {
    let mut a = HostApp::new("amgmk", MODULE, amg_main);
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
        let argv: Vec<String> = ["amgmk", "-n", "6", "-s", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(AmgParams::parse(&argv), AmgParams { dim: 6, sweeps: 3 });
        assert_eq!(AmgParams::parse(&argv).rows(), 216);
    }

    #[test]
    fn stencil_columns_stay_in_grid() {
        let dim = 4u64;
        for r in 0..dim * dim * dim {
            for s in 0..7usize {
                assert!(ell_col(r, s, dim) < dim * dim * dim);
            }
        }
    }

    #[test]
    fn jacobi_converges_toward_solution() {
        // With a diagonally dominant matrix, more sweeps → residual sum
        // approaches A⁻¹ rhs; checksum should stabilize.
        let few = reference_checksum(&AmgParams { dim: 5, sweeps: 5 });
        let many = reference_checksum(&AmgParams { dim: 5, sweeps: 60 });
        let more = reference_checksum(&AmgParams { dim: 5, sweeps: 80 });
        assert!((many - more).abs() < (few - more).abs());
    }

    #[test]
    fn device_checksum_matches_reference() {
        let mut gpu = Gpu::a100();
        let res = Loader::default()
            .run(
                &mut gpu,
                &app(),
                &["-n", "5", "-s", "4"],
                HostServices::default(),
            )
            .unwrap();
        assert_eq!(res.exit_code, Some(0), "trap: {:?}", res.trap);
        let expected = reference_checksum(&AmgParams { dim: 5, sweeps: 4 });
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
    fn kernel_is_streaming_memory_bound() {
        let mut gpu = Gpu::a100();
        let res = Loader::default()
            .run(
                &mut gpu,
                &app(),
                &["-n", "8", "-s", "4"],
                HostServices::default(),
            )
            .unwrap();
        let bpi = res.report.useful_bytes / res.report.total_insts;
        assert!(bpi > 1.5, "bytes/inst = {bpi}");
    }
}
