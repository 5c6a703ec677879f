//! Property tests for the wire protocol: encode→decode is the
//! identity for every frame type, and malformed bytes are rejected
//! with a protocol error — never a panic, never a bogus frame.

use ivl_service::metrics::{ObjectStats, StatsReport};
use ivl_service::objects::{ObjectInfo, ObjectKind};
use ivl_service::protocol::{
    read_frame, FrameDecoder, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN, MAX_BATCH_ITEMS,
};
use ivl_service::{Envelope, ErrorEnvelope};
use proptest::collection::vec;
use proptest::prelude::*;

/// Encodes, reframes and decodes one request.
fn request_roundtrip(req: &Request) -> Request {
    let mut buf = Vec::new();
    req.encode(&mut buf);
    let payload = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN)
        .expect("self-encoded frame reads")
        .expect("not eof");
    Request::decode(&payload).expect("self-encoded frame decodes")
}

fn response_roundtrip(rsp: &Response) -> Response {
    let mut buf = Vec::new();
    rsp.encode(&mut buf);
    let payload = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN)
        .expect("self-encoded frame reads")
        .expect("not eof");
    Response::decode(&payload).expect("self-encoded frame decodes")
}

proptest! {
    #[test]
    fn update_frames_roundtrip(object in any::<u32>(), key in any::<u64>(), weight in any::<u64>()) {
        let req = Request::Update { object, key, weight };
        prop_assert_eq!(request_roundtrip(&req), req);
    }

    #[test]
    fn query_frames_roundtrip(object in any::<u32>(), key in any::<u64>()) {
        let req = Request::Query { object, key };
        prop_assert_eq!(request_roundtrip(&req), req);
    }

    #[test]
    fn batch_frames_roundtrip(object in any::<u32>(), items in vec((any::<u64>(), any::<u64>()), 0..50)) {
        let req = Request::Batch { object, items };
        prop_assert_eq!(request_roundtrip(&req), req.clone());
    }

    #[test]
    fn bodyless_frames_roundtrip(pick in 0u8..3) {
        let req = match pick {
            0 => Request::Stats,
            1 => Request::Shutdown,
            _ => Request::Objects,
        };
        prop_assert_eq!(request_roundtrip(&req), req);
    }

    #[test]
    fn ack_frames_roundtrip(applied in any::<u64>()) {
        let rsp = Response::Ack { applied };
        prop_assert_eq!(response_roundtrip(&rsp), rsp);
    }

    #[test]
    fn envelope_frames_roundtrip(
        key in any::<u64>(),
        estimate in any::<u64>(),
        stream_len in 0u64..1_000_000_000,
        alpha_m in 1u64..1_000,
        delta_m in 1u64..1_000,
        lag in any::<u64>(),
    ) {
        let env = Envelope::new(
            key,
            estimate,
            stream_len,
            alpha_m as f64 / 1_000.0,
            delta_m as f64 / 1_000.0,
            lag,
        );
        let rsp = Response::Envelope(ErrorEnvelope::Frequency(env));
        prop_assert_eq!(response_roundtrip(&rsp), rsp);
    }

    #[test]
    fn typed_envelope_frames_roundtrip(
        kind in 0u8..3,
        a in any::<u64>(),
        b in any::<u64>(),
        c in 0u32..1_000_000,
        obs in any::<u64>(),
        num in 1u64..1_000,
    ) {
        let env = match kind {
            0 => ErrorEnvelope::Cardinality {
                estimate: a as f64,
                rel_std_err: num as f64 / 1_000.0,
                registers: b,
                register_sum: c as u64,
                observed: obs,
            },
            1 => ErrorEnvelope::ApproxCount {
                estimate: a as f64,
                a: num as f64 / 1_000.0,
                exponent: c,
                observed: obs,
            },
            _ => ErrorEnvelope::Minimum { minimum: a, observed: obs },
        };
        let rsp = Response::Envelope(env);
        prop_assert_eq!(response_roundtrip(&rsp), rsp);
    }

    #[test]
    fn stats_frames_roundtrip(
        fields in vec(any::<u64>(), StatsReport::NUM_FIELDS),
        rows in vec((any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..6),
    ) {
        let mut report = StatsReport::from_fields(
            <[u64; StatsReport::NUM_FIELDS]>::try_from(fields).expect("fixed size"),
        );
        report.objects = rows
            .into_iter()
            .map(|(id, updates, queries, observed)| ObjectStats { id, updates, queries, observed })
            .collect();
        let rsp = Response::Stats(report);
        prop_assert_eq!(response_roundtrip(&rsp), rsp);
    }

    #[test]
    fn objects_frames_roundtrip(entries in vec((any::<u32>(), 0u8..4, vec(97u8..123, 1..13)), 0..6)) {
        let infos = entries
            .into_iter()
            .map(|(id, kind, name)| ObjectInfo {
                id,
                kind: ObjectKind::from_u8(kind).expect("kind tag in range"),
                name: String::from_utf8(name).expect("ascii lowercase"),
            })
            .collect();
        let rsp = Response::Objects(infos);
        prop_assert_eq!(response_roundtrip(&rsp), rsp);
    }

    #[test]
    fn error_frames_roundtrip(code in 0u8..5, msg in vec(32u8..127, 0..40)) {
        let code = [
            ivl_service::ErrorCode::Busy,
            ivl_service::ErrorCode::Protocol,
            ivl_service::ErrorCode::ShuttingDown,
            ivl_service::ErrorCode::UnknownObject,
            ivl_service::ErrorCode::MergeMismatch,
        ][code as usize];
        let message = String::from_utf8(msg).expect("ascii");
        let rsp = Response::Error { code, message };
        prop_assert_eq!(response_roundtrip(&rsp), rsp);
    }

    // --- malformed input: always a typed error, never a panic ---

    #[test]
    fn truncated_frames_are_truncated_errors(
        key in any::<u64>(),
        weight in any::<u64>(),
        keep_num in any::<u32>(),
    ) {
        let mut buf = Vec::new();
        Request::Update { object: 0, key, weight }.encode(&mut buf);
        let keep = keep_num as usize % buf.len(); // strictly shorter
        buf.truncate(keep);
        let got = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN);
        if keep == 0 {
            prop_assert_eq!(got.expect("clean eof"), None);
        } else {
            prop_assert_eq!(got.expect_err("mid-frame eof"), WireError::Truncated);
        }
    }

    #[test]
    fn oversized_prefixes_are_rejected(len in 65u32..u32::MAX) {
        let mut buf = Vec::from(len.to_le_bytes());
        buf.resize(16, 0);
        prop_assert_eq!(
            read_frame(&mut buf.as_slice(), 64).expect_err("over limit"),
            WireError::Oversized { len, max: 64 }
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in vec(0u8..=255, 0..64)) {
        // Any outcome is fine except a panic; a successful decode must
        // re-encode to a frame that decodes to the same value.
        if let Ok(req) = Request::decode(&bytes) {
            prop_assert_eq!(request_roundtrip(&req), req);
        }
        if let Ok(rsp) = Response::decode(&bytes) {
            prop_assert_eq!(response_roundtrip(&rsp), rsp);
        }
        let _ = read_frame(&mut bytes.as_slice(), 32);
    }

    #[test]
    fn overlong_batches_are_rejected(extra in 1u32..1_000, object in any::<u32>()) {
        let mut payload = vec![0x13];
        payload.extend_from_slice(&object.to_le_bytes());
        payload.extend_from_slice(&(MAX_BATCH_ITEMS + extra).to_le_bytes());
        prop_assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    // --- resumable FrameDecoder vs. one-shot read_frame ---

    #[test]
    fn decoder_agrees_with_one_shot_under_arbitrary_splits(
        reqs in vec(arb_request(), 1..12),
        cuts in vec(1usize..64, 0..24),
    ) {
        let stream = encode_all(&reqs);
        let expected = one_shot_frames(&stream);
        // Feed the stream in chunks of the given (arbitrary, possibly
        // mid-header / mid-payload) sizes, the remainder at the end.
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut got = Vec::new();
        let mut at = 0;
        for cut in cuts {
            let next = (at + cut).min(stream.len());
            decoder.feed(&stream[at..next]);
            at = next;
            drain(&mut decoder, &mut got);
        }
        decoder.feed(&stream[at..]);
        drain(&mut decoder, &mut got);
        prop_assert_eq!(got, expected);
        prop_assert!(!decoder.mid_frame(), "whole stream consumed");
    }

    #[test]
    fn decoder_agrees_with_one_shot_byte_at_a_time(reqs in vec(arb_request(), 1..8)) {
        let stream = encode_all(&reqs);
        let expected = one_shot_frames(&stream);
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut got = Vec::new();
        for &b in &stream {
            decoder.feed(std::slice::from_ref(&b));
            drain(&mut decoder, &mut got);
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn decoder_reports_oversized_exactly_like_read_frame(
        len in 65u32..u32::MAX,
        split in 0usize..8,
    ) {
        let mut stream = Vec::from(len.to_le_bytes());
        stream.resize(16, 0);
        let split = split.min(stream.len());
        let mut decoder = FrameDecoder::new(64);
        decoder.feed(&stream[..split]);
        // Possibly mid-prefix: no verdict yet, never a wrong one.
        if split >= 4 {
            prop_assert_eq!(
                decoder.next_frame().expect_err("over limit"),
                WireError::Oversized { len, max: 64 }
            );
        } else {
            prop_assert_eq!(decoder.next_frame().expect("no header yet"), None);
            decoder.feed(&stream[split..]);
            prop_assert_eq!(
                decoder.next_frame().expect_err("over limit"),
                WireError::Oversized { len, max: 64 }
            );
        }
    }

    #[test]
    fn decoder_mid_frame_tracks_truncation(
        key in any::<u64>(),
        weight in any::<u64>(),
        keep_num in any::<u32>(),
    ) {
        let mut stream = Vec::new();
        Request::Update { object: 0, key, weight }.encode(&mut stream);
        let keep = keep_num as usize % stream.len(); // strictly shorter
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        decoder.feed(&stream[..keep]);
        prop_assert_eq!(decoder.next_frame().expect("incomplete, no error"), None);
        // EOF here would be WireError::Truncated iff bytes are pending
        // — exactly read_frame's clean-EOF/truncation split.
        prop_assert_eq!(decoder.mid_frame(), keep > 0);
    }
}

/// The assigned request opcodes: `STATS`, `SHUTDOWN`, `OBJECTS`, then
/// `UPDATE2`, `QUERY2`, `BATCH2`, `SNAPSHOT`, `SNAPSHOT_SINCE` and
/// `PUSH_STATE`. Every other byte, the retired 0x01..=0x03 included,
/// is unassigned.
const REQUEST_OPCODES: [u8; 9] = [0x04, 0x05, 0x06, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16];

/// Every byte outside [`REQUEST_OPCODES`] is refused as an unknown
/// opcode, whatever body follows; no assigned byte ever is. Exhaustive
/// over the byte, and over bodies of every length an assigned frame
/// could take up to a push header.
#[test]
fn unknown_opcodes_are_rejected() {
    for op in 0..=u8::MAX {
        for len in 0..=24usize {
            let mut payload = vec![op];
            payload.extend((0..len).map(|i| i as u8));
            let got = Request::decode(&payload);
            if REQUEST_OPCODES.contains(&op) {
                assert_ne!(got, Err(WireError::UnknownOpcode(op)), "assigned {op:#04x}");
            } else {
                assert_eq!(
                    got,
                    Err(WireError::UnknownOpcode(op)),
                    "{op:#04x}, {len}-byte body"
                );
            }
        }
    }
}

/// Strategy over the request variants (small batches keep cases
/// fast).
fn arb_request() -> impl Strategy<Value = Request> {
    let object = 0u32..4;
    prop_oneof![
        (object.clone(), any::<u64>(), any::<u64>()).prop_map(|(object, key, weight)| {
            Request::Update {
                object,
                key,
                weight,
            }
        }),
        (object.clone(), any::<u64>()).prop_map(|(object, key)| Request::Query { object, key }),
        (object, vec((any::<u64>(), any::<u64>()), 0..5))
            .prop_map(|(object, items)| Request::Batch { object, items }),
        Just(Request::Stats),
        Just(Request::Objects),
        Just(Request::Shutdown),
    ]
}

fn encode_all(reqs: &[Request]) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in reqs {
        r.encode(&mut buf);
    }
    buf
}

/// Reference decoding: repeated one-shot `read_frame` over the stream.
fn one_shot_frames(stream: &[u8]) -> Vec<Vec<u8>> {
    let mut r = stream;
    let mut frames = Vec::new();
    while let Some(payload) = read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).expect("well-formed") {
        frames.push(payload);
    }
    frames
}

fn drain(decoder: &mut FrameDecoder, out: &mut Vec<Vec<u8>>) {
    while let Some(payload) = decoder.next_frame().expect("well-formed") {
        out.push(payload.to_vec());
    }
}
