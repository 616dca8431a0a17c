//! Page-Rank (HeCBench): the propagation step of the power-iteration
//! PageRank over a CSR in-edge graph.
//!
//! Each iteration computes, for every vertex `v`,
//! `rank'[v] = (1-d)/V + d · Σ_{u→v} rank[u] / outdeg[u]` — an irregular
//! gather over the in-neighbour list. The paper-scale graph is the largest
//! data set of the four benchmarks: one instance occupies ≈ 9 GB, so four
//! instances fill the A100's 40 GB and eight cannot launch — the §4.3
//! "memory limitations" that restrict the paper's Figure 6 to 2 and 4
//! instances for Page-Rank.
//!
//! The synthetic graph is `degree`-regular in in-edges with hashed source
//! vertices (deterministic), and out-degrees equal the in-degree, keeping
//! device and reference arithmetic identical.

use crate::calibration as cal;
use crate::common::parse_flag_or;
use device_libc::rand::XorShift64;
use device_libc::stdio::dl_printf;
use dgc_core::{AppContext, HostApp};
use gpu_sim::{KernelError, TeamCtx};

/// Damping factor.
const DAMPING: f64 = 0.85;

/// Parsed Page-Rank arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrParams {
    /// Vertices (`-v`).
    pub vertices: u64,
    /// In-degree per vertex (`-d`).
    pub degree: u64,
    /// Propagation iterations (`-i`).
    pub iterations: u64,
}

/// The flags [`PrParams::parse`] reads as numbers.
pub(crate) const NUMERIC_FLAGS: [&str; 3] = ["-v", "-d", "-i"];

impl PrParams {
    pub fn parse(argv: &[String]) -> PrParams {
        PrParams {
            vertices: parse_flag_or(argv, "-v", cal::PR_SCALED_VERTICES).max(2),
            degree: parse_flag_or(argv, "-d", cal::PR_SCALED_DEGREE).max(1),
            iterations: parse_flag_or(argv, "-i", cal::PR_SCALED_ITERATIONS).max(1),
        }
    }

    pub fn edges(&self) -> u64 {
        self.vertices * self.degree
    }
}

/// Source vertex of in-edge `k` of vertex `v` (hashed, deterministic).
fn edge_src(v: u64, k: u64, vertices: u64) -> u64 {
    XorShift64::new(v * 0x9E37_79B9 + k + 1).next_range(vertices)
}

/// Host reference: run the iterations in plain Rust; returns `Σ rank`.
pub fn reference_checksum(p: &PrParams) -> f64 {
    let v_count = p.vertices;
    let mut rank = vec![1.0 / v_count as f64; v_count as usize];
    let mut next = vec![0.0f64; v_count as usize];
    let base = (1.0 - DAMPING) / v_count as f64;
    for _ in 0..p.iterations {
        for v in 0..v_count {
            let mut acc = 0.0;
            for k in 0..p.degree {
                let u = edge_src(v, k, v_count);
                acc += rank[u as usize] / p.degree as f64;
            }
            next[v as usize] = base + DAMPING * acc;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank.iter().sum()
}

fn pr_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    let p = PrParams::parse(&cx.argv);
    let v_count = p.vertices;
    let deg = p.degree;

    let (srcs, outdeg, mut rank, mut next) = team.serial("setup", |lane| {
        // The paper-scale graph is reserved first: this is the allocation
        // that fails for instances 5..N on a 40 GB device.
        lane.dev_reserve(cal::pr_paper_bytes())?;
        let srcs = lane.dev_alloc(v_count * deg * 8)?;
        let outdeg = lane.dev_alloc(v_count * 4)?;
        let rank = lane.dev_alloc(v_count * 8)?;
        let next = lane.dev_alloc(v_count * 8)?;
        lane.work(200.0);
        Ok((srcs, outdeg, rank, next))
    })?;

    // Graph generation + rank initialization.
    team.parallel_for("generate", v_count, |v, lane| {
        for k in 0..deg {
            lane.st_idx::<u64>(srcs, v * deg + k, edge_src(v, k, v_count))?;
        }
        lane.st_idx::<u32>(outdeg, v, deg as u32)?;
        lane.st_idx::<f64>(rank, v, 1.0 / v_count as f64)?;
        lane.work(6.0 * deg as f64);
        Ok(())
    })?;

    // The measured kernel: the propagation step, iterated.
    let base = (1.0 - DAMPING) / v_count as f64;
    for _ in 0..p.iterations {
        team.parallel_for("propagate", v_count, |v, lane| {
            let mut acc = 0.0;
            for k in 0..deg {
                let u = lane.ld_idx::<u64>(srcs, v * deg + k)?;
                let d = lane.ld_idx::<u32>(outdeg, u)? as f64;
                acc += lane.ld_idx::<f64>(rank, u)? / d;
                lane.work(cal::PR_EDGE_WORK);
            }
            lane.st_idx::<f64>(next, v, base + DAMPING * acc)?;
            lane.work(3.0);
            Ok(())
        })?;
        std::mem::swap(&mut rank, &mut next);
    }

    let checksum =
        team.parallel_for_reduce_f64("checksum", v_count, |v, lane| lane.ld_idx::<f64>(rank, v))?;

    let iters = p.iterations;
    team.serial("report", |lane| {
        dl_printf(
            lane,
            "PageRank complete.\nVertices: %d\nIterations: %d\nVerification checksum: %.10e\n",
            &[v_count.into(), iters.into(), checksum.into()],
        )?;
        Ok(())
    })?;
    Ok(0)
}

const MODULE: &str = r#"
module "pagerank" {
  func @main arity=2 calls(@parse_args, @build_graph, @propagate, @printf)
  func @parse_args arity=2 calls(@atoi)
  func @build_graph arity=1 calls(@malloc, @rand) !parallel(1) !order_independent
  func @propagate arity=1 !parallel(1) !order_independent
  extern func @printf variadic
  extern func @atoi
  extern func @malloc
  extern func @rand
}
"#;

fn footprint_scale(argv: &[String]) -> f64 {
    let p = PrParams::parse(argv);
    cal::pr_paper_bytes() as f64 / cal::pr_scaled_bytes(p.vertices, p.degree).max(1) as f64
}

/// The packaged Page-Rank application.
pub fn app() -> HostApp {
    let mut a = HostApp::new("pagerank", MODULE, pr_main);
    a.footprint_scale = Some(footprint_scale);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::{run_ensemble, EnsembleOptions, Loader};
    use gpu_sim::Gpu;
    use host_rpc::HostServices;

    #[test]
    fn params_parse() {
        let argv: Vec<String> = ["pagerank", "-v", "100", "-d", "4", "-i", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            PrParams::parse(&argv),
            PrParams {
                vertices: 100,
                degree: 4,
                iterations: 2
            }
        );
    }

    #[test]
    fn rank_mass_is_conserved() {
        // With uniform out-degrees the total rank stays 1 each iteration.
        let p = PrParams {
            vertices: 200,
            degree: 5,
            iterations: 10,
        };
        let total = reference_checksum(&p);
        assert!((total - 1.0).abs() < 1e-6, "total rank = {total}");
    }

    #[test]
    fn device_checksum_matches_reference() {
        let mut gpu = Gpu::a100();
        let res = Loader::default()
            .run(
                &mut gpu,
                &app(),
                &["-v", "150", "-d", "4", "-i", "3"],
                HostServices::default(),
            )
            .unwrap();
        assert_eq!(res.exit_code, Some(0), "trap: {:?}", res.trap);
        let expected = reference_checksum(&PrParams {
            vertices: 150,
            degree: 4,
            iterations: 3,
        });
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
    fn paper_scale_oom_at_eight_instances() {
        // The §4.3 behaviour: 4 instances run, 8 hit device OOM.
        let run_n = |n: u32| {
            let mut gpu = Gpu::a100();
            let opts = EnsembleOptions {
                cycle_args: true,
                num_instances: n,
                thread_limit: 32,
                ..Default::default()
            };
            run_ensemble(
                &mut gpu,
                &app(),
                &[vec!["-v".into(), "200".into(), "-i".into(), "1".into()]],
                &opts,
                HostServices::default(),
            )
            .unwrap()
        };
        assert!(!run_n(4).any_oom());
        assert!(run_n(8).any_oom());
    }
}
