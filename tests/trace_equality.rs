//! Trace equality: the warp segments the functional executor records for
//! each of the four applications, at thread limits 32 and 1024, are pinned
//! field by field. The digests were recorded with the executor's original
//! implementation — two region lookups per access, per-lane record
//! vectors, and a fold that re-searched a region snapshot and sorted every
//! warp access — so they certify that the single-lookup, struct-of-arrays
//! hot path changes host time only.

use ensemble_gpu::apps;
use ensemble_gpu::core::Loader;
use ensemble_gpu::rpc::HostServices;
use ensemble_gpu::sim::{Gpu, MixedSeg, TeamTrace};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Every field of the segment, floats by their exact bits.
    fn seg(&mut self, s: &MixedSeg) {
        let MixedSeg {
            insts,
            moved_bytes,
            useful_bytes,
            sectors,
            region_tags,
            region_footprints,
            rpc_calls,
            alloc_ops,
            alloc_fast_ops,
            stall_cycles,
        } = s;
        for f in [
            insts,
            moved_bytes,
            useful_bytes,
            alloc_ops,
            alloc_fast_ops,
            stall_cycles,
        ] {
            self.word(f.to_bits());
        }
        self.word(*sectors);
        self.word(*rpc_calls);
        self.word(region_tags.len() as u64);
        for &t in region_tags {
            self.word(u64::from(t));
        }
        self.word(region_footprints.len() as u64);
        for &(start, len) in region_footprints {
            self.word(start);
            self.word(len);
        }
    }

    fn team(&mut self, t: &TeamTrace) {
        self.word(u64::from(t.warp_count));
        self.word(t.phases.len() as u64);
        for p in &t.phases {
            self.word(p.warps.len() as u64);
            for w in &p.warps {
                self.seg(w);
            }
        }
    }
}

/// Digest of the single-team trace of `app` run with `args` at `thread_limit`.
fn trace_digest(app: &str, args: &[&str], thread_limit: u32) -> u64 {
    let loader = Loader {
        thread_limit,
        keep_traces: true,
        ..Default::default()
    };
    let app = apps::app_by_name(app).expect("known app");
    let mut gpu = Gpu::a100();
    let res = loader
        .run(&mut gpu, &app, args, HostServices::default())
        .expect("app runs");
    assert!(res.trap.is_none(), "{}: {:?}", app.name, res.trap);
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for block in res.block_traces.as_ref().expect("keep_traces was set") {
        for team in &block.teams {
            d.team(team);
        }
    }
    d.0
}

/// Digests recorded with the original executor, per (app, argument line,
/// thread limit): the smoke-sized and the full-sized Fig. 6 argument lines
/// (`dgc_bench::smoke_workloads` and `dgc_bench::default_workloads`).
const GOLDEN: [(&str, &[&str], u32, u64); 16] = [
    (
        "xsbench",
        &["-l", "60", "-g", "16"],
        32,
        0xccb4_19f3_59aa_b991,
    ),
    (
        "rsbench",
        &["-l", "60", "-w", "8", "-p", "2"],
        32,
        0xcec0_ef70_3f01_b12f,
    ),
    ("amgmk", &["-n", "6", "-s", "4"], 32, 0x2ce3_eb69_57e5_6b90),
    (
        "pagerank",
        &["-v", "500", "-d", "6", "-i", "3"],
        32,
        0xcf5e_dc7d_f036_737c,
    ),
    (
        "xsbench",
        &["-l", "60", "-g", "16"],
        1024,
        0x4647_77d4_5832_c4ea,
    ),
    (
        "rsbench",
        &["-l", "60", "-w", "8", "-p", "2"],
        1024,
        0x025a_8e7e_70f3_af48,
    ),
    (
        "amgmk",
        &["-n", "6", "-s", "4"],
        1024,
        0x99e1_9208_8021_afd9,
    ),
    (
        "pagerank",
        &["-v", "500", "-d", "6", "-i", "3"],
        1024,
        0xa74c_89ce_be29_9ce4,
    ),
    (
        "xsbench",
        &["-l", "500", "-g", "32"],
        32,
        0xf140_9ba9_918a_bb04,
    ),
    (
        "rsbench",
        &["-l", "400", "-w", "20", "-p", "2"],
        32,
        0xd5ac_f586_c72f_0d32,
    ),
    (
        "amgmk",
        &["-n", "10", "-s", "10"],
        32,
        0x2a1e_483b_993d_8c2a,
    ),
    (
        "pagerank",
        &["-v", "3000", "-d", "10", "-i", "5"],
        32,
        0x620a_aad9_3b50_6a59,
    ),
    (
        "xsbench",
        &["-l", "500", "-g", "32"],
        1024,
        0x6a0f_edae_9742_2deb,
    ),
    (
        "rsbench",
        &["-l", "400", "-w", "20", "-p", "2"],
        1024,
        0xbd6b_6152_3163_6d7b,
    ),
    (
        "amgmk",
        &["-n", "10", "-s", "10"],
        1024,
        0x751c_9e50_0fc4_8f55,
    ),
    (
        "pagerank",
        &["-v", "3000", "-d", "10", "-i", "5"],
        1024,
        0x8326_46f0_3ede_9a18,
    ),
];

#[test]
fn every_segment_field_matches_the_original_executor() {
    for (app, args, tl, want) in GOLDEN {
        let got = trace_digest(app, args, tl);
        assert_eq!(
            format!("{got:#018x}"),
            format!("{want:#018x}"),
            "trace of {app} {args:?} at thread limit {tl} changed"
        );
    }
}
