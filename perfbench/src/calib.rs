//! The calibration kernel, which turns host seconds into reference
//! seconds.
//!
//! The benchmark's host shares its cores and caches with other machines'
//! work. That work slows the simulator by up to ~1.8x, in spells from
//! under a second to many minutes, so plain wall times measure the
//! neighbours more than the program. Every timed operation is therefore
//! bracketed by runs of a fixed kernel that stresses the same resources as
//! the simulator: counter tables of 64 KiB and 1 MiB, like a predictor's
//! small and large tables, indexed by a hash of a pseudo-random branch
//! address and a global history, with a data-dependent update. An
//! operation's time is scaled by [`REF_NS`] over the mean of the kernel's
//! two times around it. On an uncontended host the kernel takes about
//! `REF_NS` and a reference second is a wall second; under contention the
//! kernel and the program slow together and the scale cancels most of it.
//!
//! The kernel is part of the benchmark, not of the simulator, so no change
//! to the simulator changes it.

use std::hint::black_box;
use std::time::Instant;

/// Kernel updates per calibration.
const STEPS: u32 = 1 << 20;

/// The kernel's time, in ns, on the 2-core Intel Xeon VM the benchmark
/// was built on when that host was quiet (5 to 7 ms).
pub const REF_NS: f64 = 6.0e6;

/// The kernel's tables and generator state, kept across calls so every
/// call after the first runs with warm tables.
pub struct Calibrator {
    small: Vec<i8>,
    large: Vec<i8>,
    x: u64,
    history: u64,
}

impl Calibrator {
    /// A calibrator with warm tables.
    pub fn new() -> Self {
        let mut c = Calibrator {
            small: vec![0; 1 << 16],
            large: vec![0; 1 << 20],
            x: 1,
            history: 0,
        };
        c.measure();
        c
    }

    /// Runs the kernel once; returns its wall time in ns.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        let mut wrong = 0u32;
        for i in 0..STEPS {
            self.x = self
                .x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pc = (self.x >> 33) & 0xf_ffff;
            let taken = (self.x >> 20) & 7 != 0;
            let hash = (pc ^ self.history).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
            let table = if i & 1 == 0 {
                &mut self.small
            } else {
                &mut self.large
            };
            let mask = table.len() - 1;
            let slot = &mut table[hash as usize & mask];
            if (*slot >= 0) != taken {
                wrong += 1;
            }
            *slot = if taken {
                (*slot + 1).min(3)
            } else {
                (*slot - 1).max(-4)
            };
            self.history = (self.history << 1 | u64::from(taken)) & 0xffff;
        }
        black_box(wrong);
        start.elapsed().as_nanos() as f64
    }
}

/// Times `f` in reference seconds, with a kernel run on either side;
/// returns its result and the reference seconds.
pub fn timed<T>(cal: &mut Calibrator, f: impl FnOnce() -> T) -> (T, f64) {
    let before = cal.measure();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let after = cal.measure();
    (out, scale(wall, before, after))
}

/// `secs` of wall time in reference seconds, given the kernel's times
/// (ns) before and after.
pub fn scale(secs: f64, before_ns: f64, after_ns: f64) -> f64 {
    secs * REF_NS * 2.0 / (before_ns + after_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_divides_by_the_mean_kernel_time() {
        assert_eq!(scale(1.0, REF_NS, REF_NS), 1.0);
        assert_eq!(scale(3.0, 2.0 * REF_NS, 4.0 * REF_NS), 1.0);
    }
}
