//! Statistical validation of remapping functions: uniformity (C2),
//! avalanche effect (C3) and the weighted scoring of Section V-B.

use crate::circuit::{low_bits, Circuit};
use crate::compiled::CompiledCircuit;
use rand::{Rng, SeedableRng};

/// Result of a balls-and-bins uniformity test (constraint C2).
#[derive(Clone, Copy, Debug)]
pub struct UniformityReport {
    /// Number of bins (size of the output space tested).
    pub bins: usize,
    /// Number of balls thrown (random inputs).
    pub balls: usize,
    /// Coefficient of variation of bin loads.
    pub cv: f64,
    /// Expected CV for an ideal uniform thrower (Poisson): `1/sqrt(λ)`.
    pub expected_cv: f64,
}

impl UniformityReport {
    /// Excess CV relative to the ideal uniform thrower, clamped at zero —
    /// the normalized metric fed to the optimizer (0 is optimal).
    pub fn excess(&self) -> f64 {
        (self.cv - self.expected_cv).max(0.0)
    }
}

/// Result of a strict-avalanche-criterion test (constraint C3).
#[derive(Clone, Copy, Debug)]
pub struct AvalancheReport {
    /// Mean Hamming distance between `F(x)` and `F(x ^ e_i)`, normalized by
    /// the output width. Ideal: 0.5.
    pub mean_hd: f64,
    /// Coefficient of variation of per-input average Hamming distances.
    /// Ideal: 0.
    pub cv: f64,
    /// Max − min per-*input-bit* flip rate across all input bit positions.
    /// Ideal: 0 (every input bit perturbs the output equally).
    pub input_bit_spread: f64,
    /// Max − min per-*output-bit* flip rate across all output bit
    /// positions. Ideal: 0.
    pub output_bit_spread: f64,
    /// Inputs sampled.
    pub samples: usize,
}

/// Tests uniformity of a single output *field* (bits `[lo, lo+width)`)
/// using balls and bins with `lambda` expected balls per bin.
///
/// # Panics
///
/// Panics if the field exceeds the circuit's output width or `width > 20`
/// (tables would not fit in memory for a quick check).
pub fn uniformity(c: &Circuit, lo: u32, width: u32, lambda: usize, seed: u64) -> UniformityReport {
    assert!(lo + width <= c.output_bits(), "field outside output");
    assert!(width <= 20, "field too wide for balls-and-bins");
    let bins = 1usize << width;
    let balls = bins * lambda;
    let mut counts = vec![0u32; bins];
    let fast = CompiledCircuit::new(c);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let in_mask = low_bits(c.input_bits());
    for _ in 0..balls {
        let x: u128 = rng.gen::<u128>() & in_mask;
        let y = (fast.eval(x) >> lo) & ((1u64 << width) - 1);
        counts[y as usize] += 1;
    }
    let mean = balls as f64 / bins as f64;
    let var = counts
        .iter()
        .map(|&n| {
            let d = n as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / bins as f64;
    UniformityReport {
        bins,
        balls,
        cv: var.sqrt() / mean,
        expected_cv: 1.0 / mean.sqrt(),
    }
}

/// Runs the strict-avalanche test of Section V-A over `samples` random
/// inputs: for each input, every single-bit flip is applied and the output
/// Hamming distances are aggregated.
pub fn avalanche(c: &Circuit, samples: usize, seed: u64) -> AvalancheReport {
    let fast = CompiledCircuit::new(c);
    let n_in = c.input_bits();
    let n_out = c.output_bits();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let in_mask = low_bits(n_in);

    let mut per_input_means = Vec::with_capacity(samples);
    let mut input_bit_hd = vec![0u64; n_in as usize];
    let mut output_bit_flips = vec![0u64; n_out as usize];
    let mut total_hd = 0u64;

    for _ in 0..samples {
        let x: u128 = rng.gen::<u128>() & in_mask;
        let y = fast.eval(x);
        let mut sum = 0u64;
        for b in 0..n_in {
            let y2 = fast.eval(x ^ (1u128 << b));
            let diff = y ^ y2;
            let hd = diff.count_ones() as u64;
            sum += hd;
            input_bit_hd[b as usize] += hd;
            let mut d = diff;
            while d != 0 {
                let o = d.trailing_zeros();
                output_bit_flips[o as usize] += 1;
                d &= d - 1;
            }
        }
        total_hd += sum;
        per_input_means.push(sum as f64 / (n_in as f64 * n_out as f64));
    }

    let flips_total = samples as u64 * n_in as u64;
    let mean_hd = total_hd as f64 / (flips_total as f64 * n_out as f64);
    let m = per_input_means.iter().sum::<f64>() / samples as f64;
    let var = per_input_means
        .iter()
        .map(|v| (v - m) * (v - m))
        .sum::<f64>()
        / samples as f64;
    let cv = if m > 0.0 {
        var.sqrt() / m
    } else {
        f64::INFINITY
    };

    let in_rates: Vec<f64> = input_bit_hd
        .iter()
        .map(|&h| h as f64 / (samples as f64 * n_out as f64))
        .collect();
    let out_rates: Vec<f64> = output_bit_flips
        .iter()
        .map(|&f| f as f64 / flips_total as f64)
        .collect();
    let spread = |v: &[f64]| {
        let mx = v.iter().cloned().fold(f64::MIN, f64::max);
        let mn = v.iter().cloned().fold(f64::MAX, f64::min);
        mx - mn
    };

    AvalancheReport {
        mean_hd,
        cv,
        input_bit_spread: spread(&in_rates),
        output_bit_spread: spread(&out_rates),
        samples,
    }
}

/// The weighted multi-objective score of Section V-B: all metrics are
/// normalized so 0 is optimal and summed with unit weights. Lower is
/// better; used by the generator to select among candidates.
pub fn score(c: &Circuit, samples: usize, seed: u64) -> f64 {
    let av = avalanche(c, samples, seed);
    // Uniformity over the low min(output, 10) bits (index fields).
    let w = c.output_bits().min(10);
    let un = uniformity(c, 0, w, 16, seed ^ 0x5eed);
    let cost = c.cost();
    (av.mean_hd - 0.5).abs() * 2.0
        + av.cv
        + av.input_bit_spread
        + av.output_bit_spread
        + un.excess()
        + cost.critical_path as f64 / crate::MAX_CRITICAL_PATH as f64 * 0.25
}

/// A reference keyed hash (multiply–xorshift) used by the ablation bench to
/// compare the generated hardware circuits against an "ideal" software
/// mixer. Not implementable in one cycle — that is the point of the
/// comparison.
pub fn reference_hash(key: u64, x: u64, bits: u32) -> u64 {
    let mut v = x ^ key.rotate_left(17);
    v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    v ^= v >> 32;
    v = v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    v ^= v >> 29;
    v & ((1u64 << bits) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Layer;
    use crate::primitive::SboxKind;

    /// A deliberately bad "hash": straight wires (identity permutation).
    fn bad_circuit() -> Circuit {
        Circuit::new(8, vec![Layer::Permute((0..8).collect())]).unwrap()
    }

    /// A decent small mixer: two S/P rounds then compress 8 -> 4.
    fn good_circuit() -> Circuit {
        Circuit::new(
            8,
            vec![
                Layer::Substitute(vec![(0, SboxKind::Present4), (4, SboxKind::Spongent4)]),
                Layer::Permute(vec![0, 4, 1, 5, 2, 6, 3, 7]),
                Layer::Substitute(vec![(0, SboxKind::Spongent4), (4, SboxKind::Present4)]),
                Layer::Compress(vec![0b0001_0011, 0b0010_0110, 0b0100_1100, 0b1010_1001]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn avalanche_separates_good_from_bad() {
        let good = avalanche(&good_circuit(), 400, 1);
        let bad = avalanche(&bad_circuit(), 400, 1);
        assert!(
            (good.mean_hd - 0.5).abs() < 0.15,
            "good circuit mean HD {} far from 0.5",
            good.mean_hd
        );
        // Identity: one input flip flips exactly one output bit -> HD = 1/8.
        assert!((bad.mean_hd - 1.0 / 8.0).abs() < 1e-9);
        assert!(good.mean_hd > bad.mean_hd);
    }

    #[test]
    fn uniformity_of_good_circuit_close_to_poisson() {
        let r = uniformity(&good_circuit(), 0, 4, 64, 7);
        assert!(r.excess() < 0.25, "excess CV too large: {}", r.excess());
        assert_eq!(r.bins, 16);
    }

    #[test]
    fn uniformity_detects_constant_function() {
        // Compress everything into parity bits of a single wire: output is
        // highly non-uniform over 2 bits (bit 1 constant 0 is impossible
        // here, so instead use duplicated masks — both bits always equal).
        let c = Circuit::new(8, vec![Layer::Compress(vec![0b1, 0b1])]).unwrap();
        let r = uniformity(&c, 0, 2, 64, 3);
        assert!(
            r.excess() > 0.5,
            "should flag non-uniform output, cv={}",
            r.cv
        );
    }

    #[test]
    fn score_prefers_good_circuit() {
        let sg = score(&good_circuit(), 200, 11);
        let sb = score(&bad_circuit(), 200, 11);
        assert!(sg < sb, "good {sg} should beat bad {sb}");
    }

    #[test]
    fn reference_hash_stays_in_range_and_mixes() {
        let a = reference_hash(1, 2, 14);
        let b = reference_hash(1, 3, 14);
        let c = reference_hash(2, 2, 14);
        assert!(a < (1 << 14) && b < (1 << 14));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "field outside output")]
    fn uniformity_rejects_oob_field() {
        let _ = uniformity(&good_circuit(), 2, 4, 4, 0);
    }
}
