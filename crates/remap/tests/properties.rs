//! Property tests for the remap circuits and generator.

use proptest::prelude::*;
use stbpu_remap::{Circuit, CompiledCircuit, Generator, HwConstraints, Layer, RemapSet, SboxKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Canonical circuit outputs are pure functions of (key, input) and
    /// stay in range for arbitrary inputs.
    #[test]
    fn canonical_pure_and_in_range(psi in any::<u32>(), pc in any::<u64>(), aux in any::<u16>()) {
        let r = RemapSet::standard();
        let pc = pc & ((1 << 48) - 1);
        prop_assert_eq!(r.r2(psi, pc), r.r2(psi, pc));
        prop_assert!(r.r2(psi, pc) < 256);
        prop_assert!(r.r4(psi, aux, pc) < (1 << 14));
        let (i, t) = r.rt(psi, pc, aux);
        prop_assert!(i < (1 << 13) && t < (1 << 12));
    }

    /// Substitution and permutation layers are bijections: distinct inputs
    /// stay distinct through any S/P-only circuit.
    #[test]
    fn sp_layers_preserve_distinctness(a in any::<u16>(), b in any::<u16>()) {
        prop_assume!(a != b);
        let c = Circuit::new(
            16,
            vec![
                Layer::Substitute(vec![
                    (0, SboxKind::Present4),
                    (4, SboxKind::Spongent4),
                    (8, SboxKind::Present4),
                    (12, SboxKind::Spongent4),
                ]),
                Layer::Permute((0..16).rev().collect()),
            ],
        )
        .expect("valid circuit");
        prop_assert_ne!(c.eval(a as u128), c.eval(b as u128));
    }

    /// Compression layers only depend on the bits their masks select.
    #[test]
    fn compress_mask_locality(x in any::<u8>(), noise in any::<u8>()) {
        let c = Circuit::new(16, vec![Layer::Compress(vec![0x0f, 0xf0])]).expect("valid");
        // Bits 8..16 are selected by no mask: they must never matter.
        let base = c.eval(x as u128);
        let with_noise = c.eval(x as u128 | ((noise as u128) << 8));
        prop_assert_eq!(base, with_noise);
    }

    /// The generator always respects the critical-path constraint it was
    /// given, across random feasible geometries.
    #[test]
    fn generator_respects_budget(inb in 24u32..100, outb in 6u32..20, seed in any::<u64>()) {
        prop_assume!(outb < inb);
        let cs = HwConstraints::for_geometry(inb, outb);
        if let Ok(c) = Generator::new(cs, seed).generate(1, 30) {
            let cost = c.cost();
            prop_assert!(cost.critical_path <= cs.max_critical_path);
            prop_assert!(cost.total_transistors <= cs.max_total_transistors);
            prop_assert_eq!(c.input_bits(), inb);
            prop_assert_eq!(c.output_bits(), outb);
        }
    }

    /// The fused compiled form evaluates exactly like the interpreted
    /// circuit for any generated geometry, including inputs wider than
    /// 64 bits and intermediate widths with 3-bit tail boxes.
    #[test]
    fn compiled_matches_interpreted_on_generated_circuits(
        inb in 12u32..=128,
        outb in 3u32..=40,
        seed in any::<u64>(),
        inputs in proptest::collection::vec(any::<u128>(), 16..64),
    ) {
        prop_assume!(outb < inb);
        let cs = HwConstraints::for_geometry(inb, outb);
        if let Ok(c) = Generator::new(cs, seed).generate(1, 8) {
            let fast = CompiledCircuit::new(&c);
            for x in inputs {
                prop_assert_eq!(fast.eval(x), c.eval(x));
            }
        }
    }
}
