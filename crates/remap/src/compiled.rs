//! Precompiled circuit evaluation: fused S-box tables for the hot path.
//!
//! [`crate::Circuit::eval`] walks the layer list interpreting it bit by
//! bit — a permutation layer alone costs one shift/mask/or per wire (up to
//! 96 of them), and the simulator evaluates several circuits per branch.
//! A [`CompiledCircuit`] folds the circuit into a few *fused stages* once,
//! at construction time (the AES T-table technique):
//!
//! * A stage is one substitution layer plus every permutation and
//!   compression layer up to the next substitution layer. The S-boxes
//!   write disjoint bits and the layers after them are linear over GF(2),
//!   so the stage output is the XOR of one 16-entry table per S-box:
//!   `lut[v]` is the box's output for input `v`, already pushed through
//!   the linear run.
//! * Linear layers ahead of the first substitution layer (only hand-built
//!   circuits have them) fold into one set of byte-sliced 256-entry
//!   tables, XOR-combined.
//! * Stages whose output fits in 64 bits keep `u64` tables, and every box
//!   shifts a `u64`: a stage whose input is wider than 64 bits reads it
//!   through three overlapping windows at bits 0, 32 and 64, so a box
//!   straddling bit 64 still sits whole inside the middle one. Past the
//!   first compression every stage of the canonical circuits is narrow.
//!
//! A canonical circuit becomes 3–5 stages and 4–7 KB of tables, one lookup
//! per S-box, with no per-call allocation and no data-dependent branching.
//! Evaluation is bit-identical to the interpreted [`crate::Circuit::eval`]
//! (property-tested below and in `tests/properties.rs`).

use crate::circuit::{low_bits, Circuit, Layer};
use crate::primitive::SboxKind;
use std::ops::BitXor;

/// One S-box fused with the linear layers after it. The box reads the 4
/// bits at `off` of its state window (window `word` of [`lookup_wide`] for
/// a stage input wider than 64 bits, the state itself otherwise); a 3-bit
/// box's table ignores the fourth, so `lut[v]` equals `lut[v & 7]` for it.
#[derive(Clone, Debug)]
struct FusedBox<T> {
    word: u32,
    off: u32,
    lut: [T; 16],
}

/// A fused stage: the XOR of its boxes' lookups.
type Stage<T> = Vec<FusedBox<T>>;

/// XOR of the stage's lookups, where `state(b)` yields the state bits
/// that box `b` reads in its low nibble.
#[inline(always)]
fn lookup<T>(stage: &[FusedBox<T>], state: impl Fn(&FusedBox<T>) -> u64) -> T
where
    T: Copy + Default + BitXor<Output = T>,
{
    stage
        .iter()
        .fold(T::default(), |y, b| y ^ b.lut[state(b) as usize & 0xf])
}

/// XOR of the lookups of a stage whose input is wider than 64 bits, read
/// through its 64-bit windows at bits 0, 32 and 64 (plus a zero pad, so
/// indexing with `word & 3` needs no bounds check).
#[inline(always)]
fn lookup_wide<T>(stage: &[FusedBox<T>], x: u128) -> T
where
    T: Copy + Default + BitXor<Output = T>,
{
    let w = [x as u64, (x >> 32) as u64, (x >> 64) as u64, 0];
    lookup(stage, |b| w[b.word as usize & 3] >> b.off)
}

/// Applies a run of linear (permutation/compression) layers.
fn run(linear: &[Layer], x: u128) -> u128 {
    linear.iter().fold(x, |x, layer| layer.apply(x))
}

/// Fuses each S-box of a substitution layer with the `linear` run after
/// it, converting table entries with `cast`.
fn fuse<T>(boxes: &[(u32, SboxKind)], linear: &[Layer], cast: fn(u128) -> T) -> Stage<T> {
    boxes
        .iter()
        .map(|&(off, kind)| {
            let mask = (1u8 << kind.width()) - 1;
            let lut = std::array::from_fn(|v| {
                cast(run(linear, (kind.apply(v as u8 & mask) as u128) << off))
            });
            // The lowest window holding all of the box's bits.
            let window = u32::from(off + kind.width() > 64) + u32::from(off >= 64);
            FusedBox {
                word: window,
                off: off - 32 * window,
                lut,
            }
        })
        .collect()
}

/// A [`Circuit`] lowered to fused lookup tables — same outputs, built once,
/// evaluated without interpretation overhead.
///
/// ```
/// use stbpu_remap::{Circuit, CompiledCircuit, Layer, SboxKind};
///
/// let c = Circuit::new(8, vec![
///     Layer::Substitute(vec![(0, SboxKind::Present4), (4, SboxKind::Present4)]),
///     Layer::Compress(vec![0b0000_0011, 0b0000_1100, 0b0011_0000, 0b1100_0000]),
/// ]).unwrap();
/// let fast = CompiledCircuit::new(&c);
/// for v in 0..=255u128 {
///     assert_eq!(fast.eval(v), c.eval(v));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    input_mask: u128,
    output_bits: u32,
    /// Byte-sliced tables of the leading linear layers; empty when the
    /// circuit starts with a substitution layer.
    prefix: Vec<[u128; 256]>,
    /// Stages whose output is wider than 64 bits.
    wide: Vec<Stage<u128>>,
    /// The stage whose input is wider than 64 bits and whose output is not.
    entry: Option<Stage<u64>>,
    /// Stages whose input fits in 64 bits.
    narrow: Vec<Stage<u64>>,
}

impl CompiledCircuit {
    /// Lowers `circuit` into fused lookup tables. The result evaluates
    /// bit-identically to [`Circuit::eval`].
    pub fn new(circuit: &Circuit) -> Self {
        let input_mask = low_bits(circuit.input_bits());
        let is_sub = |l: &Layer| matches!(l, Layer::Substitute(_));
        let layers = circuit.layers();
        let (lead, mut rest) =
            layers.split_at(layers.iter().position(is_sub).unwrap_or(layers.len()));

        let mut width = circuit.input_bits();
        let mut prefix = Vec::new();
        if !lead.is_empty() {
            prefix = (0..width.div_ceil(8))
                .map(|byte| {
                    std::array::from_fn(|v| run(lead, ((v as u128) << (byte * 8)) & input_mask))
                })
                .collect();
            width = lead.iter().fold(width, |w, l| l.output_width(w));
        }

        let (mut wide, mut entry, mut narrow) = (Vec::new(), None, Vec::new());
        while let Some((Layer::Substitute(boxes), tail)) = rest.split_first() {
            let (linear, next) = tail.split_at(tail.iter().position(is_sub).unwrap_or(tail.len()));
            rest = next;
            let out = linear.iter().fold(width, |w, l| l.output_width(w));
            if out > 64 {
                wide.push(fuse(boxes, linear, |y| y));
            } else if width > 64 {
                entry = Some(fuse(boxes, linear, |y| y as u64));
            } else {
                narrow.push(fuse(boxes, linear, |y| y as u64));
            }
            width = out;
        }
        CompiledCircuit {
            input_mask,
            output_bits: circuit.output_bits(),
            prefix,
            wide,
            entry,
            narrow,
        }
    }

    /// Output width in bits (matches the source circuit).
    pub fn output_bits(&self) -> u32 {
        self.output_bits
    }

    /// Evaluates the compiled circuit on `input` (low input bits used) —
    /// bit-identical to the source [`Circuit::eval`], allocation-free.
    #[inline]
    pub fn eval(&self, input: u128) -> u64 {
        let mut x = input & self.input_mask;
        if !self.prefix.is_empty() {
            x = self
                .prefix
                .iter()
                .enumerate()
                .fold(0, |y, (i, t)| y ^ t[(x >> (i * 8)) as u8 as usize]);
        }
        for stage in &self.wide {
            x = lookup_wide(stage, x);
        }
        let mut y = match &self.entry {
            Some(stage) => lookup_wide(stage, x),
            None => x as u64,
        };
        for stage in &self.narrow {
            y = lookup(stage, |b| y >> b.off);
        }
        y
    }
}

impl From<&Circuit> for CompiledCircuit {
    fn from(c: &Circuit) -> Self {
        CompiledCircuit::new(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CompiledCircuit {
        /// Bytes of lookup tables the evaluation touches.
        fn table_bytes(&self) -> usize {
            fn stage_bytes<T>(s: &Stage<T>) -> usize {
                s.len() * std::mem::size_of::<FusedBox<T>>()
            }
            self.prefix.len() * std::mem::size_of::<[u128; 256]>()
                + self.wide.iter().map(stage_bytes).sum::<usize>()
                + self.entry.iter().map(stage_bytes).sum::<usize>()
                + self.narrow.iter().map(stage_bytes).sum::<usize>()
        }
    }

    fn agree_on_samples(c: &Circuit) {
        let fast = CompiledCircuit::new(c);
        assert_eq!(fast.output_bits(), c.output_bits());
        let mut x: u128 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        for i in 0..2_000u128 {
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i);
            assert_eq!(fast.eval(x), c.eval(x), "input {x:#x}");
        }
        // Edge inputs.
        for v in [0u128, 1, u128::MAX, 1 << 127, (1 << 96) - 1] {
            assert_eq!(fast.eval(v), c.eval(v));
        }
    }

    /// Tiles `width` bits with 4-bit boxes, alternating PRESENT and
    /// SPONGENT, then 3-bit tail boxes.
    fn sub(width: u32, threes: u32) -> Layer {
        let fours = (width - 3 * threes) / 4;
        let mut boxes: Vec<_> = (0..fours)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    SboxKind::Present4
                } else {
                    SboxKind::Spongent4
                };
                (i * 4, kind)
            })
            .collect();
        boxes.extend((0..threes).map(|i| (fours * 4 + i * 3, SboxKind::Tail3)));
        assert_eq!(fours * 4 + threes * 3, width);
        Layer::Substitute(boxes)
    }

    /// A fixed pseudo-random permutation of `width` wires.
    fn perm(width: u32, seed: u32) -> Layer {
        let mut p: Vec<u32> = (0..width).collect();
        let mut s = seed as u64 | 1;
        for i in (1..p.len()).rev() {
            s = s
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x14057b7ef767814f);
            p.swap(i, (s >> 33) as usize % (i + 1));
        }
        Layer::Permute(p)
    }

    /// Deals `width` input bits into `out` parity groups, plus one overlap
    /// bit each.
    fn compress(width: u32, out: u32) -> Layer {
        let mut masks = vec![0u128; out as usize];
        for b in 0..width {
            masks[(b * 7 % out) as usize] |= 1 << b;
        }
        for (i, m) in masks.iter_mut().enumerate() {
            *m |= 1 << ((i as u32 * 13 + 5) % width);
        }
        Layer::Compress(masks)
    }

    #[test]
    fn compiled_matches_interpreted_per_layer_kind() {
        let sub8 = Circuit::new(
            8,
            vec![Layer::Substitute(vec![
                (0, SboxKind::Present4),
                (4, SboxKind::Spongent4),
            ])],
        )
        .unwrap();
        agree_on_samples(&sub8);

        let perm = Circuit::new(11, vec![Layer::Permute((0..11).rev().collect())]).unwrap();
        agree_on_samples(&perm);

        let comp = Circuit::new(12, vec![Layer::Compress(vec![0xf0f, 0x3c3, 0xaaa])]).unwrap();
        agree_on_samples(&comp);

        let empty = Circuit::new(20, vec![]).unwrap();
        agree_on_samples(&empty);
    }

    #[test]
    fn compiled_matches_interpreted_on_canonical_circuits() {
        // The real Table II geometries: odd widths, 3-bit tail boxes,
        // multi-stage layering — the exact circuits the simulator runs.
        let set = crate::RemapSet::generate(991).unwrap();
        for (name, c) in set.circuits() {
            let fast = CompiledCircuit::new(c);
            let mut x: u128 = 0xdead_beef_cafe_f00d;
            for i in 0..4_000u128 {
                x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
                assert_eq!(fast.eval(x), c.eval(x), "{name} diverged on {x:#x}");
            }
        }
    }

    #[test]
    fn canonical_tables_fit_in_l1() {
        let set = crate::RemapSet::standard();
        let mut total = 0;
        for (name, c) in set.circuits() {
            let fast = CompiledCircuit::new(c);
            assert!(fast.prefix.is_empty() && fast.wide.is_empty(), "{name}");
            assert!(fast.entry.is_some(), "{name} starts wider than 64 bits");
            let bytes = fast.table_bytes();
            assert!(bytes <= 8 << 10, "{name}: {bytes} bytes of tables");
            total += bytes;
        }
        assert!(total <= 40 << 10, "{total} bytes of tables in all");
    }

    #[test]
    fn leading_linear_prefix_folds_into_byte_tables() {
        // P then C ahead of the first S-layer, as only hand-built circuits
        // have; the prefix narrows 72 bits to 40.
        let c = Circuit::new(
            72,
            vec![
                perm(72, 1),
                compress(72, 40),
                sub(40, 0),
                perm(40, 2),
                compress(40, 17),
                sub(17, 3),
            ],
        )
        .unwrap();
        let fast = CompiledCircuit::new(&c);
        assert_eq!(fast.prefix.len(), 9);
        assert!(fast.entry.is_none() && fast.wide.is_empty());
        assert_eq!(fast.narrow.len(), 2);
        agree_on_samples(&c);
    }

    #[test]
    fn wide_intermediate_stage_uses_u128_tables() {
        // S96 P96 stays 96 bits wide, so its tables are u128; the next
        // stage narrows from 96 to 20 bits.
        let c = Circuit::new(
            96,
            vec![
                sub(96, 0),
                perm(96, 3),
                sub(96, 0),
                perm(96, 4),
                compress(96, 20),
            ],
        )
        .unwrap();
        let fast = CompiledCircuit::new(&c);
        assert_eq!(fast.wide.len(), 1);
        assert!(fast.entry.is_some() && fast.narrow.is_empty());
        agree_on_samples(&c);

        // Wide throughout up to a final compression in one stage, with a
        // 128-bit input.
        let c = Circuit::new(128, vec![sub(128, 0), perm(128, 5), compress(128, 64)]).unwrap();
        agree_on_samples(&c);
    }

    #[test]
    fn tail_box_at_the_top_of_a_stage() {
        // 3-bit boxes sit at the top of each stage, where the fourth bit a
        // box reads lies past the state width: bit 67 of the 67-bit entry
        // stage, bit 64 of a u64 stage and bit 25 of the last stage.
        let c = Circuit::new(
            67,
            vec![
                sub(67, 1),
                perm(67, 6),
                compress(67, 64),
                sub(64, 4),
                perm(64, 7),
                compress(64, 25),
                sub(25, 3),
            ],
        )
        .unwrap();
        agree_on_samples(&c);
        let fast = CompiledCircuit::new(&c);
        let top = fast.narrow[0].last().unwrap();
        assert_eq!(top.off, 61);
        for v in 0..8 {
            assert_eq!(top.lut[v], top.lut[v | 8]);
        }
    }

    #[test]
    fn boxes_straddling_bit_64_read_the_middle_window() {
        // A 4-bit box at 62 and a 3-bit box at 63, in the two stages whose
        // input is wider than 64 bits.
        let mut boxes: Vec<_> = (0..14).map(|i| (i * 4, SboxKind::Present4)).collect();
        boxes.extend([
            (56, SboxKind::Tail3),
            (59, SboxKind::Tail3),
            (62, SboxKind::Spongent4),
            (66, SboxKind::Tail3),
            (69, SboxKind::Present4),
        ]);
        let mut tail_boxes: Vec<_> = (0..15).map(|i| (i * 4, SboxKind::Spongent4)).collect();
        tail_boxes.extend([
            (60, SboxKind::Tail3),
            (63, SboxKind::Tail3),
            (66, SboxKind::Tail3),
        ]);
        let c = Circuit::new(
            73,
            vec![
                Layer::Substitute(boxes),
                perm(73, 8),
                compress(73, 69),
                Layer::Substitute(tail_boxes),
                perm(69, 9),
                compress(69, 30),
                sub(30, 2),
            ],
        )
        .unwrap();
        let fast = CompiledCircuit::new(&c);
        let words = |s: &Stage<u64>| s.iter().map(|b| (b.word, b.off)).collect::<Vec<_>>();
        let entry = words(fast.entry.as_ref().unwrap());
        assert!(
            entry.contains(&(1, 31)) && entry.contains(&(2, 2)),
            "{entry:?}"
        );
        let wide: Vec<_> = fast.wide[0].iter().map(|b| (b.word, b.off)).collect();
        assert!(
            wide.contains(&(1, 30)) && wide.contains(&(2, 5)),
            "{wide:?}"
        );
        agree_on_samples(&c);
    }

    #[test]
    fn boundary_straddling_boxes_compile_correctly() {
        // 11 bits cannot tile with 3-bit boxes alone (9 < 11): the builder
        // rejects it, so the compiler never sees invalid circuits.
        let c = Circuit::new(
            11,
            vec![Layer::Substitute(vec![
                (0, SboxKind::Tail3),
                (3, SboxKind::Tail3),
                (6, SboxKind::Tail3),
            ])],
        );
        assert!(c.is_err());
        // A 3-bit S-box straddling the byte boundary at offset 6.
        let c = Circuit::new(
            9,
            vec![
                Layer::Substitute(vec![
                    (0, SboxKind::Tail3),
                    (3, SboxKind::Tail3),
                    (6, SboxKind::Tail3),
                ]),
                Layer::Permute(vec![8, 6, 4, 2, 0, 1, 3, 5, 7]),
                Layer::Compress(vec![0b1_1100_0111, 0b0_0011_1100]),
            ],
        )
        .unwrap();
        agree_on_samples(&c);
    }
}
