//! Property tests: every `dlb-wire/2` frame type survives
//! encode → decode bit-for-bit, for arbitrary payload contents — the
//! serialization half of the process backend's bit-identity guarantee.

use dlb_wire::{
    read_frame, DoneFrame, Frame, KernelPlan, LoadType, PlanFrame, RoundCmdFrame, RoundMode,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn round_trip(frame: Frame) {
    let bytes = frame.encode();
    let back = read_frame(&mut bytes.as_slice()).expect("decode");
    assert_eq!(back, frame);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_frames(
        (seq, shard, n) in (0u64..u64::MAX, 0u32..64, 1u32..512),
        owned in vec(0u32..512, 0..40),
        interior in vec(0u32..512, 0..40),
        boundary in vec(0u32..512, 0..40),
        groups in vec((0u32..64, vec(0u32..512, 0..12)), 0..5),
        kernel in (0u8..2, vec((0u32..512, 0u32..512), 0..30), 0u64..u64::MAX,
                   0u64..u64::MAX),
        load_f64 in 0u8..2,
    ) {
        let (has_kernel, edges, fingerprint, factor) = kernel;
        round_trip(Frame::Plan(PlanFrame {
            seq,
            shard,
            n,
            load_type: if load_f64 == 0 { LoadType::F64 } else { LoadType::I64 },
            owned,
            interior,
            boundary,
            recv_groups: groups,
            kernel: (has_kernel != 0).then_some(KernelPlan {
                edges,
                fingerprint,
                factor,
            }),
        }));
    }

    #[test]
    fn round_cmd_frames(
        seq in 0u64..u64::MAX,
        round in 0u64..u64::MAX,
        mode in 0u8..2,
        halo_batches in 0u32..u32::MAX,
    ) {
        round_trip(Frame::RoundCmd(RoundCmdFrame {
            seq,
            round,
            mode: if mode == 0 { RoundMode::Precomputed } else { RoundMode::Diffusion },
            halo_batches,
        }));
    }

    #[test]
    fn value_frames(
        seq in 0u64..u64::MAX,
        src in 0u32..u32::MAX,
        values in vec(0u64..u64::MAX, 0..100),
    ) {
        // Value words cover the full u64 range, so every f64 bit
        // pattern (NaNs, negative zero, subnormals) and every i64 is
        // exercised through the same path the backend ships loads on.
        round_trip(Frame::OwnedValues { seq, values: values.clone() });
        round_trip(Frame::HaloBatch { seq, src, values: values.clone() });
        round_trip(Frame::Results { seq, values: values.clone() });
        round_trip(Frame::Collected { seq, values: values.clone() });
        round_trip(Frame::Stats { seq, words: values });
    }

    #[test]
    fn control_frames(
        seq in 0u64..u64::MAX,
        ok in 0u8..2,
        entries in vec((0u32..u32::MAX, 0u64..u64::MAX), 0..50),
    ) {
        round_trip(Frame::Done(DoneFrame { seq, ok: ok != 0 }));
        round_trip(Frame::Deltas { seq, entries });
        round_trip(Frame::Collect { seq });
        round_trip(Frame::Exit);
    }

    #[test]
    fn truncation_at_every_boundary_is_typed(
        values in vec(0u64..u64::MAX, 0..20),
        cut_frac in 0usize..100,
    ) {
        // Chopping an encoded frame anywhere strictly inside it must
        // produce a typed error — Closed at offset 0, Truncated after —
        // never a panic, a hang, or a bogus successful decode.
        let bytes = Frame::OwnedValues { seq: 3, values }.encode();
        let cut = cut_frac * bytes.len() / 100;
        prop_assume!(cut < bytes.len());
        let err = read_frame(&mut &bytes[..cut]).unwrap_err();
        match (cut, err) {
            (0, dlb_wire::WireError::Closed) => {}
            (_, dlb_wire::WireError::Truncated { .. }) => {}
            (c, other) => panic!("cut at {c}: got {other:?}"),
        }
    }
}
