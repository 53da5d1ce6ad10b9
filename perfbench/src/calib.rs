//! Machine-speed reference for normalizing timings.
//!
//! On a shared 2-vCPU virtual machine (Xeon, 2.1 GHz) the same
//! single-threaded serve run swings by up to 2x over tens of seconds
//! (host contention and clock changes), far more than the run-to-run
//! spread of the program itself. A fixed reference kernel, timed between
//! timed iterations, swings with it. Each iteration is divided by a speed
//! factor, `(kernel speed / nominal)^ELASTICITY`, which reports
//! throughput and time as they would read on a machine running the kernel
//! at [`REFERENCE_OPS_PER_S`]. Raw figures are printed beside the
//! normalized ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nominal kernel speed the normalized figures refer to, in kernel ops
/// per second per thread (about the uncontended speed of one 2.1 GHz
/// Xeon vCPU).
pub const REFERENCE_OPS_PER_S: f64 = 4e8;

/// How strongly workload speed follows kernel speed. Regressing log
/// throughput on log kernel speed over two minutes of alternating samples
/// gave 0.86 (serve-attack), 0.72 (serve-live) and 0.58 (serve-zipf, whose
/// Zipf sampler and replay sets miss the caches the kernel stays in); one
/// shared value of 0.75 left 6.5%, 8% and 6.7% residual spread where 1.0
/// left 6.6%, 9.3% and 10%.
const ELASTICITY: f64 = 0.75;

/// Kernel operations per speed sample (a few ms).
const KERNEL_OPS: u64 = 2_000_000;

/// The reference kernel: a splitmix64 chain feeding read-modify-writes
/// into a 64 KiB table. Fixed code, independent of the program under test.
fn kernel_secs() -> f64 {
    let mut table = vec![0u64; 8192];
    let started = Instant::now();
    let (mut x, mut acc) = (black_box(0x1234u64), 0u64);
    for i in 0..KERNEL_OPS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let slot = (z & 8191) as usize;
        acc = acc.wrapping_add(table[slot]);
        table[slot] = acc ^ i;
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Current speed factor: kernel speed relative to the reference, raised to
/// [`ELASTICITY`] (1.0 = nominal). The kernel runs once on each of
/// `threads` threads at the same time, so a multi-threaded workload is
/// calibrated against every core it uses.
pub fn speed(threads: usize) -> f64 {
    let secs: Vec<f64> = if threads <= 1 {
        vec![kernel_secs()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(kernel_secs)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the reference kernel cannot panic"))
                .collect()
        })
    };
    let ops_per_s = secs.iter().map(|s| KERNEL_OPS as f64 / s).sum::<f64>() / secs.len() as f64;
    (ops_per_s / REFERENCE_OPS_PER_S).powf(ELASTICITY)
}

/// Speed samples taken at the boundaries of consecutive timed
/// intervals: sample `i` precedes interval `i` and follows interval
/// `i - 1`.
#[derive(Debug)]
pub struct Speeds {
    threads: usize,
    samples: Vec<f64>,
}

impl Speeds {
    /// Takes the first sample.
    pub fn start(threads: usize) -> Self {
        Self {
            threads,
            samples: vec![speed(threads)],
        }
    }

    /// Samples at the end of the interval that just finished.
    pub fn sample(&mut self) {
        self.samples.push(speed(self.threads));
    }

    /// Intervals sampled on both sides so far.
    pub fn intervals(&self) -> usize {
        self.samples.len() - 1
    }

    /// Speed factor for interval `i`: the median of the samples within
    /// `half_window` intervals of it, both bracketing samples included.
    /// A window of several samples smooths the kernel's own noise while
    /// still following machine-speed changes, which last seconds.
    pub fn around(&self, i: usize, half_window: usize) -> f64 {
        let lo = i.saturating_sub(half_window);
        let hi = (i + 1 + half_window).min(self.samples.len() - 1);
        crate::stats::median(&self.samples[lo.min(hi)..=hi]).unwrap_or(1.0)
    }

    /// The half window that spans about `span_secs` of intervals lasting
    /// `interval_secs` each (at least one interval).
    pub fn half_window(interval_secs: f64, span_secs: f64) -> usize {
        if interval_secs > 0.0 {
            ((span_secs / 2.0 / interval_secs).ceil() as usize).max(1)
        } else {
            1
        }
    }
}

/// Median seconds per call of `f`, called repeatedly for about `span`
/// (at least once). Set-up is timed this way in a short block after every
/// timed iteration, so its median spans the whole run and each block can
/// be scaled by that iteration's speed factor.
pub fn block_median(span: Duration, mut f: impl FnMut()) -> f64 {
    let block = Instant::now();
    let mut calls = Vec::new();
    while calls.is_empty() || block.elapsed() < span {
        let t = Instant::now();
        f();
        calls.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&calls).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_clamped_at_both_ends() {
        let speeds = Speeds {
            threads: 1,
            samples: vec![1.0, 2.0, 3.0, 4.0, 100.0],
        };
        // Interval 0 with half window 1: samples 0..=2.
        assert_eq!(speeds.around(0, 1), 2.0);
        // Interval 3 (last) with half window 1: samples 2..=4.
        assert_eq!(speeds.around(3, 1), 4.0);
        // Half window 0: the two bracketing samples.
        assert_eq!(speeds.around(1, 0), 2.5);
        assert_eq!(Speeds::half_window(0.1, 1.0), 5);
        assert_eq!(Speeds::half_window(3.0, 1.0), 1);
    }
}
