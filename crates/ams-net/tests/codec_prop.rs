//! Property tests for the frame codec: encode ≡ decode round-trips for
//! arbitrary blocks and queries, and clean (panic-free) rejection of
//! truncated, corrupted, and arbitrary byte prefixes.

use ams_net::codec::{encode_ingest_batch_frame_into, encode_ingest_into, MAX_FRAME_PAYLOAD};
use ams_net::crc::{crc32, crc32_bytewise};
use ams_net::{FrameDecoder, FrameError, IngestOpts, Request, Response};
use ams_service::IngestTag;
use ams_stream::OpBlock;
use proptest::prelude::*;

/// Arbitrary attribute names: short ASCII with an occasional
/// multi-byte UTF-8 character.
fn attr_name() -> impl Strategy<Value = String> {
    (proptest::collection::vec(0u8..26, 0..12), any::<bool>()).prop_map(|(letters, unicode)| {
        let mut name: String = letters.iter().map(|&l| (b'a' + l) as char).collect();
        if unicode {
            name.push('π');
        }
        name
    })
}

/// Arbitrary columnar blocks (built through the push path, so the
/// entries honour `OpBlock`'s run-coalescing invariants).
fn block() -> impl Strategy<Value = OpBlock> {
    proptest::collection::vec((0u64..500, -4i64..5), 0..40).prop_map(|entries| {
        let mut block = OpBlock::new();
        for (v, d) in entries {
            block.push(v, d);
        }
        block
    })
}

/// Ingest tags: untagged, or tagged at the edge producers 1 and
/// `u64::MAX`, an arbitrary producer, or the unencodable producer 0 —
/// with edge or arbitrary sequence numbers.
fn tag() -> impl Strategy<Value = Option<IngestTag>> {
    (0u8..5, any::<u64>(), 0u8..3, any::<u64>()).prop_map(|(kind, producer, edge, seq)| {
        let seq = match edge {
            0 => 0,
            1 => u64::MAX,
            _ => seq,
        };
        let producer = match kind {
            0 => return None,
            1 => 1,
            2 => u64::MAX,
            3 => 0,
            _ => producer,
        };
        Some(IngestTag { producer, seq })
    })
}

/// Arbitrary ingest options: durable or not, any [`tag`], and a trace
/// id that is either absent (0) or an arbitrary nonzero id.
fn opts() -> impl Strategy<Value = IngestOpts> {
    (any::<bool>(), tag(), any::<u64>(), any::<bool>()).prop_map(|(durable, tag, id, traced)| {
        IngestOpts {
            durable,
            tag,
            trace: if traced { id | 1 } else { 0 },
        }
    })
}

/// Arbitrary requests whose ingest options are always encodable
/// (a producer-0 tag is dropped).
fn request() -> impl Strategy<Value = Request> {
    (
        0u8..7,
        attr_name(),
        attr_name(),
        proptest::collection::vec(block(), 1..5),
        opts(),
    )
        .prop_map(|(kind, a, b, blocks, mut opts)| {
            opts.tag = opts.tag.filter(|tag| tag.producer != 0);
            match kind {
                0 => Request::IngestBlocks {
                    attribute: a,
                    blocks,
                    opts,
                },
                1 => Request::QuerySelfJoin { attribute: a },
                2 => Request::QueryTwoWayJoin { left: a, right: b },
                3 => Request::Snapshot,
                4 => Request::Stats,
                5 => Request::Drain,
                _ => Request::Shutdown,
            }
        })
}

fn decode_one(bytes: &[u8]) -> Result<Option<Vec<u8>>, ams_net::FrameError> {
    let mut decoder = FrameDecoder::new();
    decoder.feed(bytes);
    decoder.next_frame()
}

proptest! {
    #[test]
    fn request_encode_decode_roundtrips(request in request()) {
        let frame = request.encode().unwrap();
        let body = decode_one(&frame).unwrap().expect("whole frame decodes");
        prop_assert_eq!(Request::decode(&body).unwrap(), request);
    }

    #[test]
    fn scalar_response_roundtrips(
        shard in 0u32..64,
        hint in 0u32..1_000_000,
        bits in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        let responses = [
            Response::Ingested,
            Response::Busy { shard, retry_hint_micros: hint },
            Response::SelfJoin { estimate: f64::from_bits(bits) },
            Response::Drained { epoch },
        ];
        for response in responses {
            let frame = response.encode().unwrap();
            let body = decode_one(&frame).unwrap().expect("whole frame decodes");
            let back = Response::decode(&body).unwrap();
            // NaN payloads must survive bit-exactly, so compare the
            // encodings rather than the (NaN-unequal) values.
            prop_assert_eq!(back.encode().unwrap(), response.encode().unwrap());
        }
    }

    /// A strict prefix of a valid frame never yields a frame (and
    /// never panics): the decoder just waits for more bytes.
    #[test]
    fn truncated_prefixes_never_yield_frames(request in request(), cut in 0usize..4096) {
        let frame = request.encode().unwrap();
        let cut = cut % frame.len();
        prop_assert!(matches!(decode_one(&frame[..cut]), Ok(None)));
    }

    /// Flipping any single byte of a valid frame is either detected
    /// (error), leaves the decoder waiting (length grew), or — if it
    /// produced a formally valid frame — still decodes without
    /// panicking. No input may crash the decoder.
    #[test]
    fn corrupted_frames_never_panic(request in request(), at in 0usize..4096, flip in 1u8..255) {
        let mut frame = request.encode().unwrap();
        let at = at % frame.len();
        frame[at] ^= flip;
        if let Ok(Some(body)) = decode_one(&frame) {
            let _ = Request::decode(&body);
        }
    }

    /// Arbitrary byte soup: the decoder terminates with a clean
    /// verdict (wait, frame, or error) and never panics.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        loop {
            match decoder.next_frame() {
                Ok(Some(body)) => {
                    let _ = Request::decode(&body);
                    let _ = Response::decode(&body);
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    /// Oversized length declarations are refused before any buffering.
    #[test]
    fn oversized_declarations_rejected(extra in 1u32..1_000_000) {
        let declared = (MAX_FRAME_PAYLOAD as u32).saturating_add(extra);
        let mut bytes = declared.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"AMSN");
        prop_assert!(matches!(
            decode_one(&bytes),
            Err(ams_net::FrameError::Oversized { .. })
        ));
    }

    /// The slice-by-8 CRC kernel is bit-identical to the bytewise
    /// oracle on arbitrary byte strings — including the empty string,
    /// single bytes, and every alignment straddling the 8-byte stride
    /// (the `cut` trims force lengths ≡ ±1 mod 8 and everything else).
    #[test]
    fn crc_slice_by_8_matches_bytewise_oracle(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        cut in 0usize..8,
    ) {
        let trimmed = &bytes[..bytes.len().saturating_sub(cut)];
        prop_assert_eq!(crc32(trimmed), crc32_bytewise(trimmed));
        prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }

    /// Ingest frames round-trip through the reusable encode buffer,
    /// and both borrowed encoders (default and explicit options) agree
    /// with the owned `Request` encoder byte for byte.
    #[test]
    fn ingest_batch_frames_roundtrip(
        attribute in attr_name(),
        blocks in proptest::collection::vec(block(), 1..6),
        opts in opts(),
    ) {
        let mut buf = Vec::new();
        encode_ingest_batch_frame_into(&attribute, &blocks, &mut buf).unwrap();
        let plain = Request::IngestBlocks {
            attribute: attribute.clone(),
            blocks: blocks.clone(),
            opts: IngestOpts::default(),
        };
        prop_assert_eq!(&buf, &plain.encode().unwrap());
        let body = decode_one(&buf).unwrap().expect("whole frame decodes");
        prop_assert_eq!(Request::decode(&body).unwrap(), plain);

        let request = Request::IngestBlocks { attribute: attribute.clone(), blocks: blocks.clone(), opts };
        match encode_ingest_into(&attribute, &blocks, &opts, &mut buf) {
            Ok(()) => {
                prop_assert_eq!(&buf, &request.encode().unwrap());
                let body = decode_one(&buf).unwrap().expect("whole frame decodes");
                prop_assert_eq!(Request::decode(&body).unwrap(), request);
            }
            Err(e) => {
                prop_assert!(opts.tag.is_some_and(|tag| tag.producer == 0));
                prop_assert_eq!(e, FrameError::Malformed { reason: "tagged ingest with zero producer id" });
            }
        }
    }

    /// Truncating or flipping bytes of a batch frame is always a clean
    /// rejection (or, for a formally valid mutation, a clean decode) —
    /// never a panic, never an allocation sized by hostile counts.
    #[test]
    fn corrupted_batch_frames_never_panic(
        attribute in attr_name(),
        blocks in proptest::collection::vec(block(), 1..6),
        at in 0usize..4096,
        flip in 1u8..255,
        cut in 1usize..4096,
    ) {
        let mut frame = Vec::new();
        encode_ingest_batch_frame_into(&attribute, &blocks, &mut frame).unwrap();
        // Truncation: strictly shorter input never yields a frame.
        let cut = cut % frame.len();
        prop_assert!(matches!(decode_one(&frame[..cut]), Ok(None)));
        // Corruption: one flipped byte is detected or decodes cleanly.
        let at = at % frame.len();
        frame[at] ^= flip;
        if let Ok(Some(body)) = decode_one(&frame) {
            let _ = Request::decode(&body);
        }
    }

    /// The ingest options survive the wire exactly: the trace context
    /// flagged (nonzero id, `TRACED` flag, 8 extra bytes) and
    /// unflagged (zero id, flag absent), on single-block and batch
    /// frames alike, independent of the durable flag and the tag around
    /// it. Every request that encodes decodes back to itself; the only
    /// refusal is a tag with producer 0, which the decoder would reject.
    #[test]
    fn trace_context_roundtrips_flagged_and_unflagged(
        attribute in attr_name(),
        single_block in block(),
        blocks in proptest::collection::vec(block(), 1..4),
        opts in opts(),
    ) {
        for blocks in [vec![single_block.clone()], blocks.clone()] {
            let request = Request::IngestBlocks { attribute: attribute.clone(), blocks, opts };
            match request.encode() {
                Ok(frame) => {
                    let body = decode_one(&frame).unwrap().expect("whole frame decodes");
                    let back = Request::decode(&body).unwrap();
                    prop_assert_eq!(back.trace_id(), opts.trace);
                    prop_assert_eq!(back, request);
                }
                Err(e) => {
                    prop_assert!(opts.tag.is_some_and(|tag| tag.producer == 0));
                    prop_assert_eq!(e, FrameError::Malformed { reason: "tagged ingest with zero producer id" });
                }
            }
        }
    }
}
