//! The host-speed reference.
//!
//! On a shared host the speed of this workspace's code drifts with what
//! the neighbours do to the shared last-level cache and memory bus. On a
//! 2-vCPU Xeon VM, fig6 pass times ranged over 0.68–1.36× their median
//! within 90 s, with no steal time and no change to the program, and the
//! drift lasts tens of seconds, so longer runs do not average it away.
//!
//! The reference is a fixed kernel owned by the benchmark: seeded random
//! read-modify-writes over a 4 MiB buffer, past the 2 MiB L2 of that
//! host. Its time tracked fig6 pass time with correlation 0.93 at a slope
//! of 1.1–1.3. It runs before every request (closed loops) or in idle gaps
//! (open loop). A run's slowdown is the median of its samples over
//! `NOMINAL_S`, and the timed end-to-end metrics, set-up time included,
//! are divided by it: they read as if the host ran at nominal speed. The
//! kernel never calls the workspace, so no change to the program can move
//! it. Every sample starts with the buffer evicted by the work before it;
//! a burst of back-to-back samples would run warm and read fast.

use crate::stats;
use std::time::Instant;

/// About the kernel's median time on the 2-vCPU Xeon VM the benchmark was
/// written on, at its quietest. It only fixes the scale: a run's slowdown
/// is relative to it.
pub const NOMINAL_S: f64 = 0.002;
/// Buffer length in words: 4 MiB.
const WORDS: usize = 1 << 19;
/// Read-modify-writes per sample.
const STEPS: usize = 200_000;

pub struct HostRef {
    buf: Vec<u64>,
    samples: Vec<f64>,
    total_s: f64,
}

impl HostRef {
    pub fn new() -> HostRef {
        HostRef {
            buf: vec![1; WORDS],
            samples: Vec::new(),
            total_s: 0.0,
        }
    }

    /// Run the kernel once and record its host time. Every sample walks
    /// the same addresses.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) % WORDS;
            self.buf[j] = self.buf[j].wrapping_add(x ^ self.buf[i % WORDS]);
        }
        std::hint::black_box(&self.buf);
        let s = t.elapsed().as_secs_f64();
        self.samples.push(s);
        self.total_s += s;
    }

    /// Host time spent in samples so far, to keep it out of timed phases.
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median sample time over `NOMINAL_S`: above 1 when the host ran
    /// slow.
    pub fn slowdown(&self) -> f64 {
        stats::median(&self.samples) / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_sample_over_nominal() {
        let mut r = HostRef::new();
        r.samples = vec![NOMINAL_S, 4.0 * NOMINAL_S, 2.0 * NOMINAL_S];
        assert!((r.slowdown() - 2.0).abs() < 1e-12);
        r.sample();
        assert_eq!(r.samples(), 4);
        assert!(r.total_s() > 0.0);
    }
}
