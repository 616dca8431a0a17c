//! Output checks: per-instance checksums against the host references, the
//! Fig. 6 golden times, and an exact digest of simulated statistics.

use dgc_apps::{amgmk, pagerank, rsbench, xsbench};
use std::collections::BTreeMap;

/// The host reference checksum of one instance's argument line.
pub fn reference_checksum(app: &str, line: &[String]) -> f64 {
    match app {
        "xsbench" => xsbench::reference_checksum(&xsbench::XsParams::parse(line)),
        "rsbench" => rsbench::reference_checksum(&rsbench::RsParams::parse(line)),
        "amgmk" => amgmk::reference_checksum(&amgmk::AmgParams::parse(line)),
        "pagerank" => pagerank::reference_checksum(&pagerank::PrParams::parse(line)),
        other => panic!("no reference for app `{other}`"),
    }
}

/// Whether `stdout` carries a `Verification checksum` line equal to
/// `reference` at the printed precision (`%.10e`).
pub fn checksum_matches(stdout: &str, reference: f64) -> bool {
    let printed = stdout
        .lines()
        .find_map(|l| l.strip_prefix("Verification checksum: "))
        .and_then(|v| v.trim().parse::<f64>().ok());
    let expected: f64 = format!("{reference:.10e}")
        .parse()
        .expect("a formatted float parses");
    printed == Some(expected)
}

/// Fig. 6 golden kernel times by (benchmark, thread limit, instances):
/// `None` marks the by-design out-of-memory points.
pub type Golden = BTreeMap<(String, u32, u32), Option<f64>>;

/// Parse the checked-in `results/figure6.json`.
pub fn parse_figure6(text: &str) -> Result<Golden, String> {
    let v: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let field = |v: &serde_json::Value, k: &str| -> Result<serde_json::Value, String> {
        v.as_object()
            .and_then(|o| o.iter().find(|(name, _)| name == k))
            .map(|(_, x)| x.clone())
            .ok_or_else(|| format!("figure6.json: missing `{k}`"))
    };
    let array = |v: serde_json::Value| -> Result<Vec<serde_json::Value>, String> {
        match v {
            serde_json::Value::Array(a) => Ok(a),
            _ => Err("figure6.json: expected an array".into()),
        }
    };
    let uint = |v: serde_json::Value| -> Result<u32, String> {
        match v {
            serde_json::Value::U64(n) => u32::try_from(n).map_err(|e| e.to_string()),
            _ => Err("figure6.json: expected an integer".into()),
        }
    };
    let mut golden = Golden::new();
    for panel in array(v)? {
        for series in array(field(&panel, "series")?)? {
            let name = match field(&series, "benchmark")? {
                serde_json::Value::Str(s) => s,
                _ => return Err("figure6.json: benchmark must be a string".into()),
            };
            let tl = uint(field(&series, "thread_limit")?)?;
            for point in array(field(&series, "points")?)? {
                let n = uint(field(&point, "instances")?)?;
                let t = match field(&point, "time_s")? {
                    serde_json::Value::F64(t) => Some(t),
                    serde_json::Value::Null => None,
                    _ => return Err("figure6.json: time_s must be a number or null".into()),
                };
                golden.insert((name.clone(), tl, n), t);
            }
        }
    }
    Ok(golden)
}

/// FNV-1a over 64-bit words: an exact, order-sensitive digest of
/// simulated statistics (floats enter by their bit patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    pub fn floats(&mut self, fs: &[f64]) {
        self.word(fs.len() as u64);
        for &f in fs {
            self.float(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_parses_with_exact_times_and_the_oom_set() {
        let g = parse_figure6(include_str!("../../results/figure6.json")).unwrap();
        assert_eq!(g.len(), 56);
        assert_eq!(
            g[&("xsbench".to_string(), 32, 1)].map(f64::to_bits),
            Some(0.008789018467530134f64.to_bits())
        );
        assert_eq!(g[&("pagerank".to_string(), 32, 8)], None);
        assert!(g[&("pagerank".to_string(), 1024, 4)].is_some());
    }

    #[test]
    fn checksum_compares_at_printed_precision() {
        let out = "Simulation complete.\nVerification checksum: 1.2345678901e+03\n";
        assert!(checksum_matches(out, 1234.56789012));
        assert!(!checksum_matches(out, 1234.56789));
        assert!(!checksum_matches("no checksum here", 1.0));
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.floats(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.floats(&[1.0, f64::from_bits(2.0f64.to_bits() + 1)]);
        assert_ne!(a, b);
    }
}
