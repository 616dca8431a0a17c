//! Seeded input generation. Every argument line, request and arrival time
//! is a pure function of the `--seed` value, so two runs with one seed
//! drive the program with identical inputs.

/// The paper's four applications, in the order the registry lists them.
pub const APPS: [&str; 4] = ["xsbench", "rsbench", "amgmk", "pagerank"];

/// splitmix64: small, seedable and fully specified here, so the inputs do
/// not depend on any library's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent `stream` of a seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is below 2^-40 for the small `n`
    /// used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// One application's argument line with its size flag set to `size`.
/// Only the size flag varies; the other flags stay at small fixed values
/// so one instance costs a few milliseconds of host time.
pub fn arg_line(app: &str, size: u64) -> Vec<String> {
    let size = size.to_string();
    let s = size.as_str();
    let fixed: &[&str] = match app {
        "xsbench" => &["-l", s, "-g", "16"],
        "rsbench" => &["-l", s, "-w", "8", "-p", "2"],
        "amgmk" => &["-n", "6", "-s", s],
        "pagerank" => &["-v", s, "-d", "6", "-i", "3"],
        other => panic!("no argument family for app `{other}`"),
    };
    fixed.iter().map(|a| a.to_string()).collect()
}

/// `count` distinct argument lines for `app` with sizes in `lo..hi`,
/// stratified: line `k` draws its size from the `k`-th of `count` equal
/// strata of the range. The strata do not overlap, so the lines are
/// distinct, and the pool's total work hardly depends on the seed, so
/// runs with different seeds measure the same amount of work.
pub fn arg_pool(app: &str, lo: u64, hi: u64, count: u64, rng: &mut Rng) -> Vec<Vec<String>> {
    let width = (hi - lo) / count;
    assert!(
        width >= 1,
        "{app}: range {lo}..{hi} holds fewer than {count} sizes"
    );
    (0..count)
        .map(|k| arg_line(app, lo + k * width + rng.below(width)))
        .collect()
}

/// An index deck over `0..len`: dealt in a seeded order and reshuffled
/// once exhausted, so every index is drawn equally often over a run.
pub struct Deck {
    order: Vec<usize>,
    next: usize,
    rng: Rng,
}

impl Deck {
    pub fn new(len: usize, rng: Rng) -> Deck {
        Deck {
            order: (0..len).collect(),
            next: len,
            rng,
        }
    }

    pub fn deal(&mut self) -> usize {
        if self.next == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Arrival times in `[0, seconds)` of an open-loop Poisson stream at
/// `rate` per second, conditioned on its expected count: given `n`
/// arrivals in a window, Poisson arrival times are `n` sorted uniform
/// draws. Fixing `n` removes the count's own noise (±√n) from the
/// throughput figures while keeping Poisson burstiness.
pub fn poisson_arrivals(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut t: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    t.sort_by(f64::total_cmp);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_lines_are_distinct() {
        let mut rng = Rng::new(7, 0);
        for app in APPS {
            let pool = arg_pool(app, 100, 164, 32, &mut rng);
            let mut sorted = pool.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 32, "{app} lines repeat");
        }
    }

    #[test]
    fn deck_deals_every_index_once_per_round() {
        let mut deck = Deck::new(5, Rng::new(3, 1));
        for _ in 0..4 {
            let mut round: Vec<usize> = (0..5).map(|_| deck.deal()).collect();
            round.sort();
            assert_eq!(round, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn arrivals_are_sorted_and_count_is_fixed() {
        let t = poisson_arrivals(40.0, 2.5, &mut Rng::new(1, 2));
        assert_eq!(t.len(), 100);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        assert!(t.iter().all(|&x| (0.0..2.5).contains(&x)));
    }
}
