//! Property tests: every `dlb-wire/3` frame type survives
//! encode → decode bit-for-bit, for arbitrary payload contents — the
//! serialization half of the process backend's bit-identity guarantee —
//! and a plan frame streamed through `plan_frame_mut` is byte-equal to
//! the encoded `Frame::Plan`.

use dlb_wire::{
    plan_frame_mut, read_frame, DoneFrame, Frame, FrameBuf, FrameView, GatherKernel, LoadType,
    LocalCsrPlan, PlanFrame, RoundCmdFrame, RoundMode,
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
        (seq, shard, owned) in (0u64..u64::MAX, 0u32..64, 0u32..512),
        degrees in vec(0u32..64, 0..40),
        slots in vec(0u32..512, 0..60),
        groups in vec((0u32..64, vec(0u32..512, 0..12)), 0..5),
        (has_kernel, factor) in (0u8..2, 0u64..u64::MAX),
        load_f64 in 0u8..2,
    ) {
        let load_type = if load_f64 == 0 { LoadType::F64 } else { LoadType::I64 };
        let kernel = LocalCsrPlan::new(degrees, slots, groups, factor);
        // The streaming writer emits the bytes `Frame::encode` does.
        let mut streamed = vec![0xEE];
        let mut w = plan_frame_mut(&mut streamed, seq, shard, load_type, owned);
        w.list(kernel.degrees.len(), kernel.degrees.iter().copied());
        w.list(kernel.slots.len(), kernel.slots.iter().copied());
        w.u32(kernel.recv_groups.len() as u32);
        for (src, positions) in &kernel.recv_groups {
            w.u32(*src);
            w.list(positions.len(), positions.iter().copied());
        }
        w.finish(kernel.factor);
        let with_kernel = Frame::Plan(PlanFrame {
            seq,
            shard,
            load_type,
            owned,
            kernel: Some(kernel.clone()),
        });
        prop_assert_eq!(&streamed[1..], &with_kernel.encode()[..]);
        round_trip(Frame::Plan(PlanFrame {
            seq,
            shard,
            load_type,
            owned,
            kernel: (has_kernel != 0).then_some(kernel),
        }));
    }

    #[test]
    fn plan_truncation_at_every_boundary_is_typed(
        degrees in vec(0u32..64, 0..20),
        slots in vec(0u32..512, 0..20),
        cut_frac in 0usize..100,
    ) {
        let bytes = Frame::Plan(PlanFrame {
            seq: 1,
            shard: 0,
            load_type: LoadType::F64,
            owned: degrees.len() as u32,
            kernel: Some(LocalCsrPlan::new(degrees, slots, vec![(1, vec![0, 2])], 7)),
        })
        .encode();
        let cut = cut_frac * bytes.len() / 100;
        prop_assume!(cut < bytes.len());
        match read_frame(&mut &bytes[..cut]).unwrap_err() {
            dlb_wire::WireError::Closed if cut == 0 => {}
            dlb_wire::WireError::Truncated { .. } if cut > 0 => {}
            other => panic!("cut at {cut}: got {other:?}"),
        }
    }

    #[test]
    fn plan_payload_truncated_at_any_byte_is_truncated(
        degrees in vec(0u32..64, 0..20),
        slots in vec(0u32..512, 0..20),
        groups in vec((0u32..64, vec(0u32..512, 0..6)), 0..4),
        cut_frac in 0usize..100,
    ) {
        // The envelope is patched to the shortened payload, so the cut
        // lands inside the plan decoder's own reads — its bulk list
        // reads included — and never in the stream read.
        let bytes = Frame::Plan(PlanFrame {
            seq: 2,
            shard: 1,
            load_type: LoadType::I64,
            owned: degrees.len() as u32,
            kernel: Some(LocalCsrPlan::new(degrees, slots, groups, 11)),
        })
        .encode();
        let payload = bytes.len() - 5;
        let cut = cut_frac * payload / 100;
        let mut short = bytes[..5 + cut].to_vec();
        short[1..5].copy_from_slice(&(cut as u32).to_le_bytes());
        for err in [
            read_frame(&mut short.as_slice()).unwrap_err(),
            FrameBuf::new().read(&mut short.as_slice()).unwrap_err(),
        ] {
            match err {
                dlb_wire::WireError::Truncated { frame: Some(1) } => {}
                other => panic!("payload cut at {cut} of {payload}: got {other:?}"),
            }
        }
    }

    #[test]
    fn round_cmd_frames(
        seq in 0u64..u64::MAX,
        round in 0u64..u64::MAX,
        mode in 0u8..2,
        halo_batches in 0u32..u32::MAX,
        scalar in 0u8..2,
    ) {
        round_trip(Frame::RoundCmd(RoundCmdFrame {
            seq,
            round,
            mode: if mode == 0 { RoundMode::Precomputed } else { RoundMode::Diffusion },
            halo_batches,
            kernel: if scalar == 0 { GatherKernel::Unrolled } else { GatherKernel::Scalar },
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
        round_trip(Frame::Results { seq, values });
    }

    #[test]
    fn control_frames(
        seq in 0u64..u64::MAX,
        ok in 0u8..2,
    ) {
        round_trip(Frame::Done(DoneFrame { seq, ok: ok != 0 }));
        round_trip(Frame::Exit);
    }

    #[test]
    fn truncation_at_every_boundary_is_typed(
        values in vec(0u64..u64::MAX, 0..20),
        cut_frac in 0usize..100,
    ) {
        // Chopping an encoded frame anywhere strictly inside it must
        // produce a typed error — Closed at offset 0, Truncated after —
        // never a panic, a hang, or a bogus successful decode; through
        // the reused read buffer as well as through `read_frame`.
        for frame in [
            Frame::OwnedValues { seq: 3, values: values.clone() },
            Frame::HaloBatch { seq: 3, src: 1, values: values.clone() },
            Frame::Results { seq: 3, values: values.clone() },
        ] {
            let bytes = frame.encode();
            let cut = cut_frac * bytes.len() / 100;
            prop_assume!(cut < bytes.len());
            let mut reused = FrameBuf::new();
            let errs = [
                read_frame(&mut &bytes[..cut]).unwrap_err(),
                reused.read(&mut &bytes[..cut]).unwrap_err(),
            ];
            for err in errs {
                match (cut, err) {
                    (0, dlb_wire::WireError::Closed) => {}
                    (c, dlb_wire::WireError::Truncated { .. }) if c > 0 => {}
                    (c, other) => panic!("cut at {c}: got {other:?}"),
                }
            }
            // The buffer that saw the truncation reads the whole frame.
            match reused.read(&mut bytes.as_slice()).unwrap() {
                FrameView::Values(v) => prop_assert_eq!(v.to_frame(), frame),
                other => panic!("got {other:?}"),
            }
        }
    }
}
