//! Critical-path extraction and blame attribution.
//!
//! [`CriticalPath::from_graph`] walks a [`SpanGraph`] with the same
//! accumulation structure the drivers used, so [`CriticalPath::span_sum_s`]
//! equals [`SpanGraph::replay_makespan_s`] — and therefore the reported
//! makespan — **bit-exactly** for in-process graphs. The path is the
//! makespan's causal decomposition: backoff waits, serial launches, and
//! for each concurrent round the slowest device lane.
//!
//! [`BlameTable`] then answers "where did the time go": path seconds are
//! attributed to transfer, launch overhead, scheduling gaps and the
//! critical chain's stall buckets, or regrouped per device lane or per
//! instance. Every table's percentages fold to **exactly** `100.0` (the
//! last row absorbs the rounding residue — `x + (100 − x) == 100` holds
//! in IEEE double for any `x` in range), which makes "shares sum to 100"
//! a testable invariant instead of a rendering convention.

use dgc_obs::{LaunchNode, SpanGraph, SpanNode};

/// One segment of the critical path, in driver accumulation order.
#[derive(Debug, Clone, PartialEq)]
pub enum PathSegment {
    /// Simulated backoff wait before retry round `round`.
    Backoff { round: u32, wait_s: f64 },
    /// A serial (non-concurrent) launch; `node` indexes
    /// [`SpanGraph::nodes`]. `span_s` is the launch's exact addend.
    Launch { node: usize, span_s: f64 },
    /// A concurrent round's slowest device lane: `nodes` index that
    /// lane's launches; `span_s` is the lane's fold (the round's cost).
    Lane {
        round: u32,
        device: u32,
        nodes: Vec<usize>,
        span_s: f64,
    },
}

impl PathSegment {
    /// The segment's exact contribution to the makespan accumulator.
    pub fn span_s(&self) -> f64 {
        match self {
            PathSegment::Backoff { wait_s, .. } => *wait_s,
            PathSegment::Launch { span_s, .. } | PathSegment::Lane { span_s, .. } => *span_s,
        }
    }
}

/// The critical path of one ensemble run: the segments whose spans sum
/// (in accumulation order) to the reported makespan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    pub segments: Vec<PathSegment>,
    /// Fold of the segment spans in order — bit-exact against
    /// [`SpanGraph::replay_makespan_s`] for in-process graphs.
    pub span_sum_s: f64,
}

impl CriticalPath {
    /// Extract the critical path, mirroring the drivers' accumulation:
    /// backoffs and serial launches contribute directly; a run of
    /// concurrent launches of one round contributes its slowest device
    /// lane (the other lanes were hidden behind it).
    pub fn from_graph(g: &SpanGraph) -> CriticalPath {
        let mut segments = Vec::new();
        let mut i = 0usize;
        while i < g.nodes.len() {
            match &g.nodes[i] {
                SpanNode::Backoff { round, wait_s } => {
                    segments.push(PathSegment::Backoff {
                        round: *round,
                        wait_s: *wait_s,
                    });
                    i += 1;
                }
                SpanNode::Launch(n) if !n.concurrent => {
                    segments.push(PathSegment::Launch {
                        node: i,
                        span_s: n.total_s,
                    });
                    i += 1;
                }
                SpanNode::Launch(first) => {
                    let round = first.round;
                    // Per-device lanes in first-seen order, each folding
                    // its launches' addends from zero — exactly the
                    // round loop's per-round accumulation on a fleet.
                    let mut lanes: Vec<(u32, f64, Vec<usize>)> = Vec::new();
                    while let Some(SpanNode::Launch(m)) = g.nodes.get(i) {
                        if !m.concurrent || m.round != round {
                            break;
                        }
                        match lanes.iter_mut().find(|(d, _, _)| *d == m.device) {
                            Some(l) => {
                                l.1 += m.total_s;
                                l.2.push(i);
                            }
                            None => lanes.push((m.device, m.total_s, vec![i])),
                        }
                        i += 1;
                    }
                    let max = lanes.iter().fold(0.0f64, |m, &(_, t, _)| m.max(t));
                    // First lane whose fold equals the max: identical
                    // f64s, so `==` picks the same value the replay adds.
                    let (device, span_s, nodes) = lanes
                        .into_iter()
                        .find(|&(_, t, _)| t == max)
                        .unwrap_or((0, max, Vec::new()));
                    segments.push(PathSegment::Lane {
                        round,
                        device,
                        nodes,
                        span_s,
                    });
                }
            }
        }
        let span_sum_s = segments.iter().fold(0.0f64, |acc, s| acc + s.span_s());
        CriticalPath {
            segments,
            span_sum_s,
        }
    }

    /// The launches on the critical path, resolved against the graph.
    pub fn launches<'g>(&self, g: &'g SpanGraph) -> Vec<(usize, &'g LaunchNode)> {
        let resolve = |idx: usize| match &g.nodes[idx] {
            SpanNode::Launch(l) => Some((idx, l)),
            SpanNode::Backoff { .. } => None,
        };
        self.segments
            .iter()
            .flat_map(|s| match s {
                PathSegment::Backoff { .. } => Vec::new(),
                PathSegment::Launch { node, .. } => resolve(*node).into_iter().collect(),
                PathSegment::Lane { nodes, .. } => {
                    nodes.iter().filter_map(|&n| resolve(n)).collect()
                }
            })
            .collect()
    }

    /// Render the path as a markdown list, one segment per line.
    pub fn render(&self, g: &SpanGraph) -> String {
        let mut out = String::new();
        for s in &self.segments {
            match s {
                PathSegment::Backoff { round, wait_s } => {
                    out.push_str(&format!(
                        "- backoff before round {round}: {:.3} ms\n",
                        wait_s * 1e3
                    ));
                }
                PathSegment::Launch { node, span_s } => {
                    if let SpanNode::Launch(l) = &g.nodes[*node] {
                        out.push_str(&format!(
                            "- {} on dev{} (round {}): {:.3} ms ({} waves, {} instances)\n",
                            l.kernel,
                            l.device,
                            l.round,
                            span_s * 1e3,
                            l.waves,
                            l.instances.len()
                        ));
                    }
                }
                PathSegment::Lane {
                    round,
                    device,
                    nodes,
                    span_s,
                } => {
                    out.push_str(&format!(
                        "- round {round} critical lane dev{device}: {:.3} ms over {} launch(es)\n",
                        span_s * 1e3,
                        nodes.len()
                    ));
                }
            }
        }
        out
    }
}

/// One blame row: a labelled share of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameRow {
    pub label: String,
    pub seconds: f64,
    /// Share of the attributed total. Row percentages fold to exactly
    /// `100.0` (last row absorbs the residue).
    pub pct: f64,
}

/// A blame table over the critical path, rows sorted largest-first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlameTable {
    pub rows: Vec<BlameRow>,
    /// Sum of the attributed seconds (the denominator of `pct`).
    pub total_s: f64,
}

impl BlameTable {
    /// Build a table from `(label, seconds)` shares: same-label shares
    /// merge, non-positive shares drop, rows sort descending, and the
    /// last row's percentage is fixed up so the fold is exactly 100.
    pub fn from_shares(shares: Vec<(String, f64)>) -> BlameTable {
        let mut merged: Vec<(String, f64)> = Vec::new();
        for (label, secs) in shares {
            if secs <= 0.0 {
                continue;
            }
            match merged.iter_mut().find(|(l, _)| *l == label) {
                Some(m) => m.1 += secs,
                None => merged.push((label, secs)),
            }
        }
        merged.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let total_s: f64 = merged.iter().map(|&(_, s)| s).sum();
        if merged.is_empty() || total_s <= 0.0 {
            return BlameTable::default();
        }
        let n = merged.len();
        let mut rows = Vec::with_capacity(n);
        // Fold the first n-1 percentages exactly as `pct_sum` will, then
        // let the last row be `100 - acc`: the re-fold telescopes to
        // `acc + (100 - acc) == 100.0` bit-exactly.
        let mut acc = 0.0f64;
        for (i, (label, seconds)) in merged.into_iter().enumerate() {
            let pct = if i + 1 == n {
                100.0 - acc
            } else {
                let p = seconds / total_s * 100.0;
                acc += p;
                p
            };
            rows.push(BlameRow {
                label,
                seconds,
                pct,
            });
        }
        BlameTable { rows, total_s }
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Fold of the row percentages, in row order. Exactly `100.0` for
    /// any non-empty table.
    pub fn pct_sum(&self) -> f64 {
        self.rows.iter().fold(0.0f64, |a, r| a + r.pct)
    }

    /// Render as a markdown table.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("### {title}\n\n");
        if self.rows.is_empty() {
            out.push_str("(no attributed time)\n");
            return out;
        }
        out.push_str("| where | ms | % |\n|---|---:|---:|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {:.4} | {:.2} |\n",
                r.label,
                r.seconds * 1e3,
                r.pct
            ));
        }
        out
    }
}

/// Attribute each critical-path launch's time to transfer, launch
/// overhead, scheduling gaps and the critical chain's stall buckets.
/// Chains recorded without stall collection blame their residence as
/// plain `kernel` time.
pub fn blame_stalls(g: &SpanGraph, path: &CriticalPath) -> BlameTable {
    let mut shares: Vec<(String, f64)> = Vec::new();
    for s in &path.segments {
        if let PathSegment::Backoff { wait_s, .. } = s {
            shares.push(("backoff".into(), *wait_s));
        }
    }
    for (_, l) in path.launches(g) {
        shares.push(("transfer".into(), l.h2d_s + l.d2h_s));
        shares.push(("launch overhead".into(), l.overhead_s));
        if l.chain.is_empty() {
            shares.push(("kernel".into(), (l.kernel_s - l.overhead_s).max(0.0)));
            continue;
        }
        for hop in &l.chain {
            shares.push(("sched gap".into(), hop.gap_cycles * l.cycle_s));
            if hop.stall.total() > 0.0 {
                for (name, cycles) in hop.stall.named() {
                    shares.push((format!("stall: {name}"), cycles * l.cycle_s));
                }
            } else {
                let residence = (hop.end_cycle - hop.start_cycle) * l.cycle_s;
                shares.push(("kernel".into(), residence));
            }
        }
    }
    BlameTable::from_shares(shares)
}

/// Regroup the critical path per device lane (plus host backoff).
pub fn blame_devices(g: &SpanGraph, path: &CriticalPath) -> BlameTable {
    let mut shares: Vec<(String, f64)> = Vec::new();
    for s in &path.segments {
        match s {
            PathSegment::Backoff { wait_s, .. } => shares.push(("host backoff".into(), *wait_s)),
            PathSegment::Launch { node, span_s } => {
                if let SpanNode::Launch(l) = &g.nodes[*node] {
                    shares.push((format!("dev{}", l.device), *span_s));
                }
            }
            PathSegment::Lane { device, span_s, .. } => {
                shares.push((format!("dev{device}"), *span_s))
            }
        }
    }
    BlameTable::from_shares(shares)
}

/// Attribute critical-chain residence to the instances resident in each
/// chain block (split equally within a packed block). Launches without
/// a recorded chain split their whole span across their instances.
pub fn blame_instances(g: &SpanGraph, path: &CriticalPath) -> BlameTable {
    let mut shares: Vec<(String, f64)> = Vec::new();
    for s in &path.segments {
        if let PathSegment::Backoff { wait_s, .. } = s {
            shares.push(("host backoff".into(), *wait_s));
        }
    }
    for (_, l) in path.launches(g) {
        if l.chain.is_empty() {
            let per = l.total_s / l.instances.len().max(1) as f64;
            for &i in &l.instances {
                shares.push((format!("instance {i}"), per));
            }
            continue;
        }
        for hop in &l.chain {
            let residence = (hop.end_cycle - hop.start_cycle) * l.cycle_s;
            let members = l.block_instances(hop.block);
            if members.is_empty() {
                shares.push((format!("block {}", hop.block), residence));
            } else {
                let per = residence / members.len() as f64;
                for &i in members {
                    shares.push((format!("instance {i}"), per));
                }
            }
        }
    }
    BlameTable::from_shares(shares)
}

/// Wave-level Gantt summary: per launch, one row per scheduling wave
/// with an ASCII bar over the kernel's cycle span.
pub fn gantt(g: &SpanGraph) -> String {
    const WIDTH: usize = 40;
    let mut out = String::new();
    for l in g.launches() {
        out.push_str(&format!(
            "{} dev{} round {} @ {:.3} ms ({} waves, {} instances)\n",
            l.kernel,
            l.device,
            l.round,
            l.start_s * 1e3,
            l.waves,
            l.instances.len()
        ));
        let span_end = l
            .wave_spans
            .iter()
            .map(|&(_, end, _)| end)
            .fold(0.0f64, f64::max);
        for (w, &(start, end, blocks)) in l.wave_spans.iter().enumerate() {
            let col = |c: f64| {
                if span_end > 0.0 {
                    ((c / span_end) * WIDTH as f64).round() as usize
                } else {
                    0
                }
            };
            let (a, b) = (col(start).min(WIDTH), col(end).min(WIDTH));
            let bar: String = (0..WIDTH)
                .map(|i| if i >= a && i < b.max(a + 1) { '#' } else { '.' })
                .collect();
            out.push_str(&format!(
                "  wave {w:>2} |{bar}| {:>10.0}..{:<10.0} cyc, {blocks} block(s)\n",
                start, end
            ));
        }
    }
    out
}

/// The full post-hoc report: summary, critical path, the three blame
/// views and the wave Gantt, as one markdown document. When the
/// driver-reported makespan is supplied the summary states whether the
/// replayed span sum reproduced it bit-exactly.
pub fn render_report(g: &SpanGraph, reported_makespan_s: Option<f64>) -> String {
    let path = CriticalPath::from_graph(g);
    let mut out = String::from("# dgc-insight run analysis\n\n## Summary\n\n");
    out.push_str(&format!(
        "- launches: {} | devices: {} | rounds: {}\n",
        g.launches().count(),
        g.devices(),
        g.rounds()
    ));
    out.push_str(&format!(
        "- critical-path span sum: {:.6} ms over {} segment(s)\n",
        path.span_sum_s * 1e3,
        path.segments.len()
    ));
    if let Some(reported) = reported_makespan_s {
        let exact = path.span_sum_s == reported;
        out.push_str(&format!(
            "- reported makespan: {:.6} ms — span sum {}\n",
            reported * 1e3,
            if exact {
                "reproduces it bit-exactly"
            } else {
                "differs (post-hoc trace reconstruction is approximate)"
            }
        ));
    }
    out.push_str("\n## Critical path\n\n");
    out.push_str(&path.render(g));
    out.push_str("\n## Blame\n\n");
    out.push_str(&blame_stalls(g, &path).render("By stall bucket"));
    out.push('\n');
    out.push_str(&blame_devices(g, &path).render("By device"));
    out.push('\n');
    out.push_str(&blame_instances(g, &path).render("By instance"));
    out.push_str("\n## Wave Gantt\n\n```text\n");
    out.push_str(&gantt(g));
    out.push_str("```\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_obs::LaunchNode;

    fn launch(device: u32, round: u32, concurrent: bool, total_s: f64) -> LaunchNode {
        LaunchNode {
            kernel: "app-x1".into(),
            device,
            round,
            concurrent,
            start_s: 0.0,
            h2d_s: total_s * 0.25,
            kernel_s: total_s * 0.5,
            d2h_s: total_s * 0.25,
            total_s,
            overhead_s: 0.0,
            cycle_s: 1e-9,
            waves: 1,
            teams_per_block: 1,
            instances: vec![0],
            block_stalls: Vec::new(),
            wave_spans: vec![(0.0, 100.0, 1)],
            chain: Vec::new(),
        }
    }

    #[test]
    fn path_span_sum_matches_replay_bit_exactly() {
        // Association-sensitive values, a backoff, and a concurrent round.
        let mut g = SpanGraph::default();
        g.push_launch(launch(0, 0, false, 0.1));
        g.push_launch(launch(0, 0, false, 0.2));
        g.push_backoff(1, 0.3);
        g.push_launch(launch(0, 1, true, 0.05));
        g.push_launch(launch(1, 1, true, 0.07));
        g.push_launch(launch(0, 1, true, 0.04));
        let path = CriticalPath::from_graph(&g);
        assert_eq!(path.span_sum_s, g.replay_makespan_s());
        // The concurrent round picked dev0's lane (0.05 + 0.04 > 0.07).
        let lane = path
            .segments
            .iter()
            .find_map(|s| match s {
                PathSegment::Lane { device, nodes, .. } => Some((*device, nodes.len())),
                _ => None,
            })
            .unwrap();
        assert_eq!(lane, (0, 2));
    }

    #[test]
    fn blame_tables_fold_to_exactly_one_hundred() {
        let mut g = SpanGraph::default();
        g.push_launch(launch(0, 0, false, 0.123));
        g.push_backoff(1, 0.017);
        g.push_launch(launch(0, 1, false, 0.456));
        let path = CriticalPath::from_graph(&g);
        for table in [
            blame_stalls(&g, &path),
            blame_devices(&g, &path),
            blame_instances(&g, &path),
        ] {
            assert!(!table.is_empty());
            assert_eq!(table.pct_sum(), 100.0);
        }
    }

    #[test]
    fn empty_and_zero_share_tables_are_empty() {
        assert!(BlameTable::from_shares(Vec::new()).is_empty());
        assert!(BlameTable::from_shares(vec![("x".into(), 0.0), ("y".into(), -1.0)]).is_empty());
        let single = BlameTable::from_shares(vec![("only".into(), 0.5)]);
        assert_eq!(single.rows.len(), 1);
        assert_eq!(single.rows[0].pct, 100.0);
        assert_eq!(single.pct_sum(), 100.0);
    }

    #[test]
    fn same_label_shares_merge_and_sort_descending() {
        let t = BlameTable::from_shares(vec![
            ("a".into(), 0.1),
            ("b".into(), 0.5),
            ("a".into(), 0.2),
        ]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].label, "b");
        assert!((t.rows[1].seconds - 0.3).abs() < 1e-15);
        assert_eq!(t.pct_sum(), 100.0);
    }

    #[test]
    fn report_renders_all_sections_and_flags_exactness() {
        let mut g = SpanGraph::default();
        g.push_launch(launch(0, 0, false, 0.2));
        let reported = g.replay_makespan_s();
        let text = render_report(&g, Some(reported));
        for needle in [
            "## Summary",
            "## Critical path",
            "## Blame",
            "By stall bucket",
            "By device",
            "By instance",
            "## Wave Gantt",
            "bit-exactly",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        let off = render_report(&g, Some(reported * 1.5));
        assert!(off.contains("differs"));
    }
}
