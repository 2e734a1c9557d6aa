//! Property tests of the control-frame codec that the serving protocol
//! rides on: arbitrary frames round-trip exactly, and — because every
//! frame carries a word-wise FNV-1a trailer — any corruption confined to
//! one aligned 8-byte word, and any single flipped byte, yields a typed
//! `MalformedWire` error. Never a panic, never a silently wrong frame.

use appclass_metrics::wire::{
    control_checksum, decode_control, encode_control, fnv1a64, MAX_CONTROL_SIZE, WIRE_SIZE,
};
use appclass_metrics::{
    ByeReason, ControlFrame, Error, FrameDisposition, TelemetryHealth, METRIC_COUNT,
};
use appclass_obs::trace::TRACE_EXT_LEN;
use appclass_obs::TraceContext;
use proptest::prelude::*;

/// One strategy covering all the frame kinds. The vendored proptest shim
/// has no `prop_oneof`, so a kind selector plus a pool of generic fields
/// is mapped into whichever variant the selector picks.
fn arb_frame() -> impl Strategy<Value = ControlFrame> {
    (
        (0u8..10, any::<u32>(), any::<u64>(), 0usize..=WIRE_SIZE),
        prop::collection::vec(any::<u8>(), WIRE_SIZE),
        (0u8..5, 0.0f64..1.0, prop::collection::vec(0.0f64..0.2, 5)),
        (prop::collection::vec(0u64..1_000_000, 10), 0u32..1000, 0u64..(1u64 << METRIC_COUNT)),
        (any::<bool>(), any::<u64>(), any::<u64>(), any::<u8>()),
    )
        .prop_map(|(head, snap_bytes, verdict, health, trace)| {
            let (kind, session, model_id, snap_len) = head;
            let (class, confidence, comp) = verdict;
            let (counters, streak, dead_mask) = health;
            let (traced, trace_id, parent_span, flags) = trace;
            // Old peers send no extension at all, so ctx stays optional
            // in the strategy; zero is the wire sentinel for "absent"
            // and never a valid id.
            let ctx =
                traced.then_some(TraceContext { trace_id: trace_id.max(1), parent_span, flags });
            match kind {
                0 => ControlFrame::Hello { session, model_id },
                1 => ControlFrame::Snapshot { wire: snap_bytes[..snap_len].to_vec(), ctx },
                2 => ControlFrame::Classify { ctx },
                3 => ControlFrame::Verdict {
                    class,
                    confidence,
                    composition: [comp[0], comp[1], comp[2], comp[3], comp[4]],
                    model: model_id,
                    ctx,
                },
                6 => ControlFrame::SwapModel {
                    json: String::from_utf8_lossy(&snap_bytes[..snap_len]).into_owned(),
                },
                7 => ControlFrame::SwapAck { old_model: model_id, new_model: counters[0] },
                8 => ControlFrame::Busy { retry_after_ms: session },
                9 => ControlFrame::SnapshotBatch {
                    wires: snap_bytes.chunks(97).take(4).map(<[u8]>::to_vec).collect(),
                    ctx,
                },
                4 => ControlFrame::Health(TelemetryHealth {
                    seen: counters[0],
                    accepted: counters[1],
                    repaired: counters[2],
                    dropped: counters[3],
                    duplicates: counters[4],
                    reordered: counters[5],
                    gaps: counters[6],
                    missed_frames: counters[7],
                    values_patched: counters[8],
                    malformed: counters[9],
                    dead_metrics: (0..METRIC_COUNT).filter(|i| dead_mask >> i & 1 == 1).collect(),
                    max_repair_streak: streak,
                }),
                _ => ControlFrame::Bye {
                    reason: ByeReason::from_code((session % 6) as u8).expect("codes 0..6 valid"),
                },
            }
        })
}

/// One frame of every kind, traced where the kind can be, each with a
/// payload that ends in zero bytes wherever the kind allows.
fn one_of_each_kind() -> Vec<ControlFrame> {
    let ctx = Some(TraceContext { trace_id: 0x0123_4567_89AB_CDEF, parent_span: 9, flags: 0 });
    let mut datagram = vec![0x5Au8; WIRE_SIZE - 16];
    datagram.extend_from_slice(&[0; 16]);
    vec![
        ControlFrame::Hello { session: 3, model_id: 0 },
        ControlFrame::Snapshot { wire: datagram.clone(), ctx: None },
        ControlFrame::Snapshot { wire: datagram.clone(), ctx },
        ControlFrame::Classify { ctx },
        ControlFrame::Verdict {
            class: 1,
            confidence: 0.75,
            composition: [0.0, 0.75, 0.25, 0.0, 0.0],
            model: 0,
            ctx: None,
        },
        ControlFrame::Health(TelemetryHealth {
            seen: 40,
            accepted: 38,
            ..TelemetryHealth::default()
        }),
        ControlFrame::Bye { reason: ByeReason::Normal },
        ControlFrame::Stats { text: "serve_frames_in_total 7\n\0\0\0".to_string() },
        ControlFrame::SnapshotBatch { wires: vec![datagram.clone(), Vec::new(), datagram], ctx },
        ControlFrame::VerdictBatch {
            statuses: vec![FrameDisposition::Repaired, FrameDisposition::Accepted],
        },
        ControlFrame::SwapModel { json: "{\"knn\":{}}\0\0".to_string() },
        ControlFrame::SwapAck { old_model: 5, new_model: 0 },
        ControlFrame::Busy { retry_after_ms: 0 },
    ]
}

/// Decodes `bytes`, requiring a typed `MalformedWire` rejection.
fn assert_rejected(bytes: &[u8], what: &str) {
    match decode_control(bytes) {
        Err(Error::MalformedWire { .. }) => {}
        Ok(frame) => panic!("{what}: decoded as {frame:?}"),
        Err(other) => panic!("{what}: wrong error class: {other}"),
    }
}

#[test]
fn every_single_byte_flip_is_rejected_for_every_kind() {
    for frame in one_of_each_kind() {
        let bytes = encode_control(&frame).to_vec();
        assert_eq!(decode_control(&bytes).unwrap(), frame);
        for at in 0..bytes.len() {
            for xor in (0..8).map(|bit| 1u8 << bit).chain([0xFF, 0x5A]) {
                let mut bad = bytes.clone();
                bad[at] ^= xor;
                assert_rejected(&bad, &format!("{} byte {at} ^ {xor:#04x}", frame.name()));
            }
        }
    }
}

#[test]
fn truncation_at_every_byte_is_rejected_even_inside_zero_padding() {
    for frame in one_of_each_kind() {
        let bytes = encode_control(&frame).to_vec();
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        assert!(body.ends_with(&[0]), "{} must end in a zero byte", frame.name());
        for cut in 0..bytes.len() {
            assert_rejected(&bytes[..cut], &format!("{} cut at {cut}", frame.name()));
        }
        // The body cut short with its trailer intact. Cutting zero bytes
        // off the last word leaves every zero-padded word unchanged, so
        // only the length round tells the two bodies apart: the frame
        // must fail the checksum, before any payload check sees it.
        for cut in 7..body.len() {
            let mut short = body[..cut].to_vec();
            short.extend_from_slice(trailer);
            match decode_control(&short) {
                Err(Error::MalformedWire { reason: "control checksum mismatch", .. }) => {}
                other => panic!("{} body cut at {cut}: {other:?}", frame.name()),
            }
        }
    }
}

#[test]
fn checksum_known_answers_pin_the_wire_format() {
    // The control trailer: words, zero padding and the length round.
    assert_eq!(control_checksum(b""), 0xaf63_bd4c_8601_b7df);
    assert_eq!(control_checksum(b"appclass control frame"), 0x458a_28d6_7a89_c1b8);
    // The byte-wise hash behind model fingerprints and the durable
    // appdb/modelstore trailers must never drift.
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    // One whole frame, byte for byte: envelope (version 2), payload,
    // trailer.
    let hello = encode_control(&ControlFrame::Hello { session: 1, model_id: 2 });
    let mut want = vec![0x41, 0x50, 0x43, 0x53, 0x00, 0x02, 0x01];
    want.extend_from_slice(&[0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2]);
    want.extend_from_slice(&0x42c8_2340_eeef_62ac_u64.to_be_bytes());
    assert_eq!(&hello[..], &want[..]);
}

#[test]
fn zero_bytes_cut_off_the_end_change_the_checksum() {
    let body = [0x11u8, 0x22, 0x33, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    let full = control_checksum(&body);
    for cut in 0..body.len() {
        assert_ne!(control_checksum(&body[..cut]), full, "cut at {cut}");
    }
}

/// The same frame as an old (pre-extension) peer would send it.
fn strip_ctx(frame: &ControlFrame) -> ControlFrame {
    let mut bare = frame.clone();
    match &mut bare {
        ControlFrame::Snapshot { ctx, .. }
        | ControlFrame::Classify { ctx }
        | ControlFrame::Verdict { ctx, .. }
        | ControlFrame::SnapshotBatch { ctx, .. } => *ctx = None,
        _ => {}
    }
    bare
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn roundtrip_is_exact(frame in arb_frame()) {
        let bytes = encode_control(&frame);
        prop_assert!(bytes.len() <= MAX_CONTROL_SIZE);
        let back = decode_control(&bytes).unwrap();
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn any_single_byte_flip_is_a_typed_error(
        frame in arb_frame(),
        pick in any::<usize>(),
        xor in 1u8..=255,
    ) {
        // The satellite claim, literally: flip ANY byte of ANY control
        // frame and the decoder must answer with MalformedWire. The
        // checksum trailer is what makes this total — unlike the raw
        // snapshot codec, there is no byte whose corruption slides
        // through as a different-but-valid frame.
        let mut bytes = encode_control(&frame).to_vec();
        let at = pick % bytes.len();
        bytes[at] ^= xor;
        match decode_control(&bytes) {
            Err(Error::MalformedWire { .. }) => {}
            Ok(decoded) => prop_assert!(false, "flip at {} decoded as {:?}", at, decoded),
            Err(other) => prop_assert!(false, "wrong error class: {}", other),
        }
    }

    #[test]
    fn any_change_inside_one_aligned_word_is_a_typed_error(
        frame in arb_frame(),
        pick in any::<usize>(),
        mask in any::<u64>(),
    ) {
        // Each checksum round is a bijection of the state, so a change
        // confined to one aligned 8-byte word of the body cannot cancel
        // out; in the trailer it breaks the stored sum itself.
        let mut bytes = encode_control(&frame).to_vec();
        let word = pick % bytes.len().div_ceil(8);
        let end = (word * 8 + 8).min(bytes.len());
        let span = &mut bytes[word * 8..end];
        let mut mask = mask.to_be_bytes();
        if mask[..span.len()].iter().all(|&m| m == 0) {
            mask[0] = 1;
        }
        for (b, m) in span.iter_mut().zip(mask) {
            *b ^= m;
        }
        match decode_control(&bytes) {
            Err(Error::MalformedWire { .. }) => {}
            Ok(decoded) => prop_assert!(false, "word {} change decoded as {:?}", word, decoded),
            Err(other) => prop_assert!(false, "wrong error class: {}", other),
        }
    }

    #[test]
    fn truncation_is_a_typed_error(frame in arb_frame(), pick in any::<usize>()) {
        let bytes = encode_control(&frame);
        let cut = pick % bytes.len();
        match decode_control(&bytes[..cut]) {
            Err(Error::MalformedWire { .. }) => {}
            other => prop_assert!(false, "truncated frame must be malformed, got {:?}", other),
        }
    }

    #[test]
    fn corruption_bursts_never_panic(
        frame in arb_frame(),
        hits in prop::collection::vec((any::<usize>(), any::<u8>()), 6),
        extend in 0usize..32,
    ) {
        // Bursts, garbage tails, anything — the decoder either proves
        // integrity or returns the typed error. (A burst can cancel
        // itself out: xor-ing the same byte twice restores it, so a
        // successful decode must equal the original frame.)
        let mut bytes = encode_control(&frame).to_vec();
        for &(pick, xor) in &hits {
            let at = pick % bytes.len();
            bytes[at] ^= xor;
        }
        bytes.extend(std::iter::repeat_n(0x5A, extend));
        match decode_control(&bytes) {
            Ok(back) => {
                prop_assert_eq!(back, frame, "corrupt bytes may only decode to the original")
            }
            Err(Error::MalformedWire { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error class: {}", other),
        }
    }

    #[test]
    fn trace_extension_is_backward_compatible(frame in arb_frame()) {
        // Old-peer compatibility, both directions: an untraced frame is
        // byte-identical to the pre-extension encoding (so old peers
        // keep decoding it), and a traced frame is exactly that
        // encoding plus one fixed-size extension before the trailer
        // (so stripping the context loses nothing else). An untraced
        // encoding always decodes with `ctx = None`.
        let bare = strip_ctx(&frame);
        let bare_bytes = encode_control(&bare);
        let bytes = encode_control(&frame);
        if bare == frame {
            prop_assert_eq!(&bytes[..], &bare_bytes[..]);
        } else {
            prop_assert_eq!(bytes.len(), bare_bytes.len() + TRACE_EXT_LEN);
        }
        let back = decode_control(&bare_bytes).unwrap();
        prop_assert_eq!(back, bare);
    }

    #[test]
    fn random_garbage_never_panics(
        pool in prop::collection::vec(any::<u8>(), MAX_CONTROL_SIZE),
        len in 0usize..=MAX_CONTROL_SIZE,
    ) {
        match decode_control(&pool[..len]) {
            Ok(_) | Err(Error::MalformedWire { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error class: {}", other),
        }
    }
}
