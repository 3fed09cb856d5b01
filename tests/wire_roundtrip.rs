//! Wire-faithfulness contract of the serving protocol (PR 7): a
//! serialize → transmit → parse cycle through the hand-rolled JSON
//! layer must reproduce `SearchRequest` and `SearchResponse` values
//! **exactly** — every option, every counter, and every distance bit
//! for bit — and graphs must survive the `{"v", "e"}` encoding
//! unchanged. The streaming response encoder the server runs
//! (`write_response`) is held to the tree encoding byte for byte, the
//! JSON text layer to `parse(v.to_string_compact()) == v` on arbitrary
//! trees, and both decoders (JSON, HTTP head) to "a typed answer, never
//! a panic" on hostile bytes.

use std::time::Duration;

use proptest::prelude::*;

use gdim::core::scan::KernelKind;
use gdim::prelude::*;
use gdim::server::http::{request_bytes, HeadParser, HttpError, RequestHead};
use gdim::server::parse_json;
use gdim::server::wire::{
    graph_from_json, graph_to_json, request_from_json, request_to_json, response_from_json,
    response_to_json, write_batch_response, write_response,
};

fn reparse(j: &Json) -> Json {
    parse_json(&j.to_string_compact()).expect("server JSON reparses")
}

/// Arbitrary responses, the edges included: empty hit lists, distances
/// of any bit pattern with non-finite ones forced in (they travel as
/// `null`), every kernel and none, stages from none timed to all
/// timed, counters at zero, anywhere, and at `u64::MAX`.
fn responses() -> impl Strategy<Value = SearchResponse> {
    (
        proptest::collection::vec((any::<u32>(), any::<u64>()), 0..=24),
        proptest::collection::vec(any::<u64>(), 13..=13),
        proptest::collection::vec(any::<u64>(), 7..=7),
        (0u8..5, 0u8..4, 0u8..4),
        any::<bool>(),
    )
        .prop_map(
            |(
                raw_hits,
                counters,
                stage_ns,
                (kernel_pick, counter_pick, stage_pick),
                approximate,
            )| {
                let hits = raw_hits
                    .iter()
                    .map(|&(id, bits)| Hit {
                        id: GraphId(id),
                        distance: match bits % 16 {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => f64::NEG_INFINITY,
                            _ => f64::from_bits(bits),
                        },
                    })
                    .collect();
                let counter = |i: usize| match counter_pick {
                    0 => 0,
                    1 => u64::MAX,
                    _ => counters[i],
                };
                let stats = SearchStats {
                    candidates_scanned: counter(0) as usize,
                    early_abandoned: counter(1) as usize,
                    tombstones_skipped: counter(2) as usize,
                    words_scanned: counter(3) as usize,
                    epoch: counter(4),
                    live_graphs: counter(5) as usize,
                    vf2_calls: counter(6) as usize,
                    vf2_pruned: counter(7) as usize,
                    mcs_calls: counter(8) as usize,
                    match_time: Duration::from_nanos(counter(11)),
                    wall_time: Duration::from_nanos(counter(12)),
                    kernel: match kernel_pick {
                        0 => None,
                        1 => Some(KernelKind::Scalar),
                        2 => Some(KernelKind::Unrolled),
                        3 => Some(KernelKind::Avx2),
                        _ => Some(KernelKind::Avx512),
                    },
                    approximate,
                    ef: counter(9) as usize,
                    beam_visited: counter(10) as usize,
                    stages: {
                        let mut s = gdim::obs::StageTimes::new();
                        for (i, (stage, &ns)) in
                            gdim::obs::Stage::ALL.iter().zip(&stage_ns).enumerate()
                        {
                            // 0: nothing timed, 1: every stage, else some.
                            let timed = match stage_pick {
                                0 => false,
                                1 => true,
                                _ => ns >> (8 + i) & 1 == 1,
                            };
                            if timed {
                                s.add_ns(*stage, ns.max(1));
                            }
                        }
                        s
                    },
                };
                SearchResponse { hits, stats }
            },
        )
}

/// The tree encoding of a `/search_batch` answer — the reference for
/// [`write_batch_response`].
fn batch_to_json(responses: &[SearchResponse]) -> Json {
    Json::obj([(
        "responses",
        Json::Arr(responses.iter().map(response_to_json).collect()),
    )])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request shape round-trips exactly: all four rankers
    /// (approximate with and without verification), both mappings,
    /// every k.
    #[test]
    fn search_requests_round_trip_exactly(
        k in 0usize..200,
        ranker_pick in 0u8..5,
        candidates in 1usize..500,
        ef in 1usize..2000,
        weighted in any::<bool>(),
    ) {
        let mut req = SearchRequest::new(k).ranker(match ranker_pick {
            0 => Ranker::Mapped,
            1 => Ranker::Exact,
            2 => Ranker::Refined { candidates },
            3 => Ranker::Approx { ef, verify: None },
            _ => Ranker::Approx { ef, verify: Some(candidates) },
        });
        if weighted {
            req = req.mapping(MappingKind::Weighted);
        }
        let back = request_from_json(&reparse(&request_to_json(&req))).unwrap();
        prop_assert_eq!(back, req);
    }

    /// Responses round-trip with bit-identical distances — including
    /// adversarial bit patterns, negative zero, and subnormals — and
    /// exact stats counters and durations.
    #[test]
    fn search_responses_round_trip_bit_for_bit(resp in responses()) {
        let mut resp = resp;
        resp.hits.retain(|h| h.distance.is_finite()); // non-finite is not a wire value
        let back = response_from_json(&reparse(&response_to_json(&resp))).unwrap();
        prop_assert_eq!(back.hits.len(), resp.hits.len());
        for (a, b) in back.hits.iter().zip(&resp.hits) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(
                a.distance.to_bits(), b.distance.to_bits(),
                "distance bits: {} vs {}", a.distance, b.distance
            );
        }
        let (s, t) = (&back.stats, &resp.stats);
        prop_assert_eq!(s.candidates_scanned, t.candidates_scanned);
        prop_assert_eq!(s.early_abandoned, t.early_abandoned);
        prop_assert_eq!(s.tombstones_skipped, t.tombstones_skipped);
        prop_assert_eq!(s.words_scanned, t.words_scanned);
        prop_assert_eq!(s.epoch, t.epoch);
        prop_assert_eq!(s.live_graphs, t.live_graphs);
        prop_assert_eq!(s.vf2_calls, t.vf2_calls);
        prop_assert_eq!(s.vf2_pruned, t.vf2_pruned);
        prop_assert_eq!(s.mcs_calls, t.mcs_calls);
        prop_assert_eq!(s.match_time, t.match_time);
        prop_assert_eq!(s.wall_time, t.wall_time);
        prop_assert_eq!(s.kernel, t.kernel);
        prop_assert_eq!(s.approximate, t.approximate);
        prop_assert_eq!(s.ef, t.ef);
        prop_assert_eq!(s.beam_visited, t.beam_visited);
        prop_assert_eq!(s.stages, t.stages, "stage ns are exact over the wire");
    }

    /// The encoder the server runs writes exactly the bytes the tree
    /// encoding prints — the spec is bit-identity, so a reordered
    /// field, a lost `stages` guard or a second number formatter fails
    /// here, not in a client.
    #[test]
    fn streamed_responses_equal_the_tree_encoding(resp in responses()) {
        let mut streamed = String::from("appends after what is there: ");
        let prefix = streamed.len();
        write_response(&resp, &mut streamed);
        prop_assert_eq!(&streamed[prefix..], response_to_json(&resp).to_string_compact());
    }

    /// Same for the `/search_batch` wrapper, empty batch included.
    #[test]
    fn streamed_batches_equal_the_tree_encoding(
        batch in proptest::collection::vec(responses(), 0..=3),
    ) {
        let mut streamed = String::new();
        write_batch_response(&batch, &mut streamed);
        prop_assert_eq!(streamed, batch_to_json(&batch).to_string_compact());
    }
}

/// One string off the tape: ASCII, the two characters that must be
/// escaped, control characters, 2–4-byte UTF-8 and arbitrary scalar
/// values up to U+10FFFF, in any mix.
fn string_from_tape(tape: &mut impl Iterator<Item = u64>) -> String {
    let len = tape.next().unwrap_or(0) % 12;
    (0..len)
        .map(|_| {
            let w = tape.next().unwrap_or(0);
            let pick = (w >> 8) as u32;
            match w % 8 {
                0 => '"',
                1 => '\\',
                2 => char::from_u32(pick % 0x20).expect("control"),
                3 => [
                    'é',
                    'λ',
                    '€',
                    '\u{2028}',
                    '\u{fffd}',
                    '😀',
                    '\u{10000}',
                    '\u{10ffff}',
                ][pick as usize % 8],
                4 => char::from_u32(pick % 0x11_0000).unwrap_or('\u{7f}'),
                _ => char::from_u32(0x20 + pick % 0x5f).expect("printable ascii"),
            }
        })
        .collect()
}

/// One tree off the tape, restricted to values whose text form reads
/// back as the same variant: `I64` only below zero and `F64` only with
/// a fraction (`3.0` prints as `3` and returns as `U64` — equal by
/// `as_f64`, pinned in `json.rs`, but not `==`).
fn json_from_tape(tape: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let w = tape.next().unwrap_or(0);
    let width = (w >> 8) as usize % 5;
    match w % if depth < 4 { 8 } else { 6 } {
        0 => Json::Null,
        1 => Json::Bool(w >> 8 & 1 == 1),
        2 => Json::U64(tape.next().unwrap_or(0)),
        3 => Json::I64(-((tape.next().unwrap_or(0) >> 1) as i64) - 1),
        4 => {
            let x = f64::from_bits(tape.next().unwrap_or(0));
            Json::F64(if x.is_finite() && x.fract() != 0.0 {
                x
            } else {
                0.5
            })
        }
        5 => Json::Str(string_from_tape(tape)),
        6 => Json::Arr(
            (0..width)
                .map(|_| json_from_tape(tape, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..width)
                .map(|_| (string_from_tape(tape), json_from_tape(tape, depth + 1)))
                .collect(),
        ),
    }
}

/// A valid request head and a valid body, as `Client` sends them.
fn valid_request() -> (Vec<u8>, String) {
    let g = gdim::datagen::chem_db(1, &gdim::datagen::ChemConfig::default(), 7).remove(0);
    let Json::Obj(mut fields) = request_to_json(&SearchRequest::new(10)) else {
        unreachable!("requests encode as objects");
    };
    fields.push(("query".into(), Json::obj([("graph", graph_to_json(&g))])));
    let body = Json::Obj(fields).to_string_compact();
    let wire = request_bytes("POST", "/search", "127.0.0.1:7171", &body);
    (wire[..wire.len() - body.len()].to_vec(), body)
}

/// Feeds `bytes` to a fresh parser in the given pieces until a head
/// completes: the head (or the error), and the bytes consumed.
fn feed_in_pieces(bytes: &[u8], cuts: &[usize]) -> Result<(usize, Option<RequestHead>), HttpError> {
    let mut parser = HeadParser::new();
    let (mut used, mut from) = (0, 0);
    for &cut in cuts.iter().chain([&bytes.len()]) {
        let cut = cut.clamp(from, bytes.len());
        let (n, head) = parser.feed(&bytes[from..cut])?;
        used += n;
        if head.is_some() {
            return Ok((used, head));
        }
        from = cut;
    }
    Ok((used, None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(v.to_string_compact()) == v` for arbitrary trees whose
    /// strings and keys mix ASCII, quotes and backslashes, control
    /// characters, 2–4-byte UTF-8 and astral code points.
    #[test]
    fn json_trees_round_trip_through_their_text(
        tape in proptest::collection::vec(any::<u64>(), 1..=160),
    ) {
        let v = json_from_tape(&mut tape.into_iter(), 0);
        let text = v.to_string_compact();
        prop_assert_eq!(parse_json(&text), Ok(v), "{}", text);
    }

    /// Arbitrary bytes — raw, and drawn from the characters the two
    /// grammars branch on — get `Ok` or a typed error from the JSON
    /// parser and the HTTP head parser, never a panic, and the head
    /// parser never claims more bytes than it was given.
    #[test]
    fn arbitrary_bytes_get_typed_answers_from_both_decoders(
        raw in proptest::collection::vec(any::<u8>(), 0..=200),
        structural in any::<bool>(),
        cut in any::<usize>(),
    ) {
        const BRANCHES: &[u8] = b"{}[]\",:\\/ubnrtfe.-+0123456789 \r\n\x01\x7f\xc3\xa9aATP/";
        let bytes: Vec<u8> = if structural {
            raw.iter().map(|&b| BRANCHES[b as usize % BRANCHES.len()]).collect()
        } else {
            raw
        };
        let _ = parse_json(&String::from_utf8_lossy(&bytes));
        let mut head = bytes.clone();
        if structural {
            head.extend_from_slice(b"\r\n\r\n"); // reach the line parser
        }
        if let Ok((used, _)) = feed_in_pieces(&head, &[cut % (head.len() + 1)]) {
            prop_assert!(used <= head.len());
        }
    }

    /// A valid request with one byte changed, inserted or dropped, in
    /// its head or in its body: both decoders answer `Ok` or a typed
    /// error, and a head fed in pieces reads exactly as it does in one.
    #[test]
    fn mutated_requests_get_typed_answers_however_they_are_split(
        at in any::<usize>(),
        byte in any::<u8>(),
        kind in 0u8..3,
        cuts in proptest::collection::vec(any::<usize>(), 0..=3),
    ) {
        let (head, body) = valid_request();
        let mutate = |bytes: &[u8]| {
            let mut out = bytes.to_vec();
            let i = at % out.len();
            match kind {
                0 => out[i] = byte,
                1 => out.insert(i, byte),
                _ => { out.remove(i); }
            }
            out
        };
        let _ = parse_json(&String::from_utf8_lossy(&mutate(body.as_bytes())));

        let mut wire = mutate(&head);
        wire.extend_from_slice(body.as_bytes());
        let one_shot = HeadParser::new().feed(&wire);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
        cuts.sort_unstable();
        prop_assert_eq!(&feed_in_pieces(&wire, &cuts), &one_shot, "cuts {:?}", cuts);
        if let Ok((used, Some(parsed))) = one_shot {
            prop_assert!(used <= wire.len());
            // An intact head still describes this body.
            if wire[..used] == head[..] {
                prop_assert_eq!(parsed.content_length, body.len());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated molecule-like graphs survive the `{"v", "e"}` wire
    /// encoding with identical labels and edges.
    #[test]
    fn graphs_round_trip_through_the_wire_encoding(seed in 0u64..1000) {
        for g in gdim::datagen::chem_db(4, &gdim::datagen::ChemConfig::default(), seed) {
            let back = graph_from_json(&reparse(&graph_to_json(&g))).unwrap();
            prop_assert_eq!(back.vlabels(), g.vlabels());
            prop_assert_eq!(back.edges(), g.edges());
        }
    }
}
