//! Checkpoint round-trip properties: for every registry model, a
//! checkpoint cut at an arbitrary branch index and pushed through the
//! full `.stck` byte format must resume to a run bit-identical to the
//! uninterrupted sequential reference — and no truncation or single-byte
//! corruption of the encoded form may ever panic the decoder; it must
//! come back as a positioned [`CheckpointError`].

use proptest::prelude::*;
use stbpu_engine::{cut_checkpoints, run_sequential, ModelRegistry, Workload};
use stbpu_sim::{Checkpoint, Protection, Warmup};

const BRANCHES: usize = 3_000;

/// A protection policy each model actually runs under in the paper grid.
fn policy_for(spec: &str) -> Protection {
    if spec.starts_with("st_") {
        Protection::Stbpu
    } else if spec == "conservative" {
        Protection::Conservative
    } else {
        Protection::Unprotected
    }
}

/// One checkpoint cut at `at`, serialized through the `.stck` byte format
/// and resumed to the end of the stream.
fn roundtrip_resume(
    registry: &ModelRegistry,
    spec: &str,
    seed: u64,
    workload: &Workload,
    at: u64,
) -> Result<(stbpu_sim::SimReport, Vec<stbpu_sim::IntervalWindow>), String> {
    let cps = cut_checkpoints(
        registry,
        spec,
        policy_for(spec),
        seed,
        workload,
        BRANCHES,
        Warmup::Branches(0),
        None,
        None,
        &[at],
    )
    .map_err(|e| e.to_string())?;
    let cp = cps.into_iter().next().ok_or("no checkpoint")?;
    // Through the real byte format, not just the in-memory struct.
    let back = Checkpoint::from_bytes(&cp.to_bytes()).map_err(|e| e.to_string())?;
    assert_eq!(back, cp, "{spec}: .stck round trip changed the checkpoint");
    stbpu_engine::resume_to_end(registry, &back, workload, BRANCHES).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// save → to_bytes → from_bytes → resume at an arbitrary branch index
    /// is bit-identical to the uninterrupted run, for every registered
    /// (non-alias) model.
    #[test]
    fn resume_is_bit_identical_for_every_registry_model(
        seed in any::<u64>(),
        frac in 0u64..100,
    ) {
        let registry = ModelRegistry::standard();
        let workload = Workload::Named("541.leela".to_string());
        let seed = seed % 10_000;
        // Anywhere from the second branch to the second-to-last.
        let at = 1 + frac * (BRANCHES as u64 - 2) / 100;
        let mut resumed_models = 0usize;
        for (spec, _, alias) in registry.catalog() {
            if alias {
                continue;
            }
            let (seq, seq_iv) = run_sequential(
                &registry,
                spec,
                policy_for(spec),
                seed,
                &workload,
                BRANCHES,
                Warmup::Branches(0),
                None,
                None,
            )
            .unwrap_or_else(|e| panic!("{spec}: sequential reference failed: {e}"));
            let (resumed, resumed_iv) = roundtrip_resume(&registry, spec, seed, &workload, at)
                .unwrap_or_else(|e| panic!("{spec}: roundtrip resume failed: {e}"));
            prop_assert_eq!(&resumed, &seq, "{}@{}: report drift", spec, at);
            prop_assert_eq!(&resumed_iv, &seq_iv, "{}@{}: interval drift", spec, at);
            resumed_models += 1;
        }
        // If the registry shrinks or capture support silently regresses,
        // fail loudly instead of vacuously passing.
        prop_assert!(resumed_models >= 15, "only {} models round-tripped", resumed_models);
    }

    /// Any truncation of a valid `.stck` image decodes to a positioned
    /// error — never a panic, never a checkpoint.
    #[test]
    fn truncated_stck_is_a_positioned_error(
        seed in any::<u64>(),
        cut_frac in 0u64..1000,
    ) {
        let registry = ModelRegistry::standard();
        let workload = Workload::Named("541.leela".to_string());
        let cps = cut_checkpoints(
            &registry,
            "st_skl",
            Protection::Stbpu,
            seed % 100,
            &workload,
            BRANCHES,
            Warmup::Branches(0),
        None,
        None,
            &[1_500],
        )
        .expect("cutting the reference checkpoint");
        let bytes = cps[0].to_bytes();
        let cut = (cut_frac as usize * (bytes.len() - 1)) / 1000;
        let err = Checkpoint::from_bytes(&bytes[..cut])
            .expect_err("truncated image must not decode");
        // Positioned within what remains of the image.
        prop_assert!(err.offset <= cut, "error offset {} past cut {}", err.offset, cut);
    }

    /// Any single-byte corruption of a valid `.stck` image decodes to an
    /// error — the checksum tail covers every byte before it, and the
    /// tail itself is checked against the recomputed sum.
    #[test]
    fn corrupt_stck_is_an_error_never_a_panic(
        pos_frac in 0u64..1000,
        flip in 1u8..=255,
    ) {
        let registry = ModelRegistry::standard();
        let workload = Workload::Named("541.leela".to_string());
        let cps = cut_checkpoints(
            &registry,
            "st_skl",
            Protection::Stbpu,
            7,
            &workload,
            BRANCHES,
            Warmup::Branches(0),
        None,
        None,
            &[1_500],
        )
        .expect("cutting the reference checkpoint");
        let mut bytes = cps[0].to_bytes();
        let pos = (pos_frac as usize * (bytes.len() - 1)) / 1000;
        bytes[pos] ^= flip; // flip != 0, so the byte really changes
        prop_assert!(
            Checkpoint::from_bytes(&bytes).is_err(),
            "corrupting byte {} must not decode cleanly",
            pos
        );
    }
}

/// The cut index is exact: the checkpoint records precisely the requested
/// number of retired branches, at every boundary flavor (first possible,
/// mid-stream, last).
#[test]
fn cut_lands_exactly_on_the_requested_branch() {
    let registry = ModelRegistry::standard();
    let workload = Workload::Named("505.mcf".to_string());
    for at in [1u64, 2, 1_499, 1_500, 2_999] {
        let cps = cut_checkpoints(
            &registry,
            "st_skl@r=0.05",
            Protection::Stbpu,
            3,
            &workload,
            BRANCHES,
            Warmup::Branches(0),
            None,
            None,
            &[at],
        )
        .unwrap();
        assert_eq!(cps[0].branches_seen, at, "cut at {at}");
        assert!(cps[0].events_consumed >= at, "events cover the branches");
    }
}
