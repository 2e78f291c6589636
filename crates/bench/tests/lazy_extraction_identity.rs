//! Lazy BGP extraction is observationally identical to eager decode.
//!
//! [`StreamExtractor`] frames messages into an arena index instead of
//! decoding them. This suite drives it side by side with a test-local
//! copy of the eager decode-and-skip extractor it replaced, over every
//! oracle scenario capture, both chaos presets applied to each, and
//! every `tdat-fuzz` corpus entry: the decoded messages, their
//! timestamps, the byte counters (`unparsed_bytes` above all, which
//! drives quarantine) and every UPDATE's NLRI must agree — at
//! mid-stream snapshots and at the end.

use std::collections::HashMap;

use tdat_bgp::{BgpMessage, UpdateMessage};
use tdat_packet::{seq_diff, FrameLike, LossyReader, TcpFlags};
use tdat_pcap2bgp::{Extraction, StreamExtractor, StreamReassembler, PREANCHOR_BYTES};
use tdat_tcpsim::{apply_chaos, ChaosSpec};
use tdat_timeset::Micros;
use tdat_trace::ConnKey;

/// The eager extractor: reassembly and anchoring as in
/// [`StreamExtractor`], then `BgpMessage::decode` at the framing
/// cursor, skipping one byte on every decode error.
#[derive(Default)]
struct EagerExtractor {
    reasm: StreamReassembler,
    anchored: bool,
    prebuf: Vec<(Micros, u32, Vec<u8>)>,
    prebuf_bytes: usize,
    buffer: Vec<u8>,
    messages: Vec<(Micros, BgpMessage)>,
    unparsed_bytes: u64,
}

/// What the eager extractor produced.
#[derive(Debug, PartialEq)]
struct Eager {
    messages: Vec<(Micros, BgpMessage)>,
    unparsed_bytes: u64,
    duplicate_bytes: u64,
    overflow_bytes: u64,
}

impl EagerExtractor {
    fn anchor(&mut self, seq: u32) {
        if !self.anchored {
            self.reasm.anchor(seq);
            self.anchored = true;
            self.prebuf_bytes = 0;
            for (time, seq, payload) in std::mem::take(&mut self.prebuf) {
                self.feed(time, seq, &payload);
            }
        }
    }

    fn push(&mut self, time: Micros, seq: u32, flags: TcpFlags, payload: &[u8]) {
        if !self.anchored {
            if flags.contains(TcpFlags::SYN) {
                self.anchor(seq.wrapping_add(1));
            } else if !payload.is_empty() {
                self.prebuf_bytes += payload.len();
                self.prebuf.push((time, seq, payload.to_vec()));
                if self.prebuf.len() >= 64 || self.prebuf_bytes >= PREANCHOR_BYTES {
                    self.anchor_at_min();
                }
            }
            return;
        }
        self.feed(time, seq, payload);
    }

    fn anchor_at_min(&mut self) {
        let Some(&(_, ref_seq, _)) = self.prebuf.first() else {
            return;
        };
        let min_rel = self
            .prebuf
            .iter()
            .map(|(_, seq, _)| seq_diff(*seq, ref_seq))
            .min()
            .unwrap_or(0);
        self.anchor(ref_seq.wrapping_add(min_rel as u32));
    }

    fn feed(&mut self, time: Micros, seq: u32, payload: &[u8]) {
        if payload.is_empty() {
            return;
        }
        self.reasm.push(seq, payload);
        self.reasm.take_ready_into(&mut self.buffer);
        let mut cursor = &self.buffer[..];
        loop {
            match BgpMessage::decode(&mut cursor) {
                Ok(Some(msg)) => self.messages.push((time, msg)),
                Ok(None) => break,
                Err(_) => {
                    self.unparsed_bytes += 1;
                    cursor = &cursor[1.min(cursor.len())..];
                }
            }
        }
        let consumed = self.buffer.len() - cursor.len();
        self.buffer.drain(..consumed);
    }

    fn snapshot(&self) -> Eager {
        Eager {
            messages: self.messages.clone(),
            unparsed_bytes: self.unparsed_bytes,
            duplicate_bytes: self.reasm.duplicate_bytes(),
            overflow_bytes: self.reasm.overflow_bytes(),
        }
    }

    fn finish(mut self) -> Eager {
        if !self.anchored && !self.prebuf.is_empty() {
            self.anchor_at_min();
        }
        Eager {
            unparsed_bytes: self.unparsed_bytes + self.buffer.len() as u64,
            ..self.snapshot()
        }
    }
}

/// Asserts the lazy extraction matches the eager one in every way the
/// pipeline can observe.
fn assert_same(lazy: &Extraction, eager: &Eager, what: &str) {
    let decoded = lazy.decoded();
    assert_eq!(
        decoded.len(),
        lazy.messages.len(),
        "{what}: an indexed message failed to decode"
    );
    assert_eq!(
        decoded, eager.messages,
        "{what}: messages or timestamps differ"
    );
    assert_eq!(
        (
            lazy.unparsed_bytes,
            lazy.duplicate_bytes,
            lazy.overflow_bytes
        ),
        (
            eager.unparsed_bytes,
            eager.duplicate_bytes,
            eager.overflow_bytes
        ),
        "{what}: byte counters differ"
    );
    let owned: Vec<(Micros, &UpdateMessage)> = eager
        .messages
        .iter()
        .filter_map(|(t, m)| match m {
            BgpMessage::Update(u) => Some((*t, u)),
            _ => None,
        })
        .collect();
    let views: Vec<_> = lazy.updates_iter().collect();
    assert_eq!(views.len(), owned.len(), "{what}: update count differs");
    for ((vt, view), (ot, update)) in views.iter().zip(&owned) {
        assert_eq!(vt, ot, "{what}: update time differs");
        assert_eq!(
            view.announced.iter().collect::<Vec<_>>(),
            update.announced,
            "{what}"
        );
        assert_eq!(
            view.withdrawn.iter().collect::<Vec<_>>(),
            update.withdrawn,
            "{what}"
        );
    }
    let announced: usize = owned.iter().map(|(_, u)| u.announced.len()).sum();
    assert_eq!(lazy.announced_prefixes(), announced, "{what}");
}

/// Feeds both extractors every frame of one capture, side by side and
/// in capture order, comparing a snapshot of the fed stream every
/// `SNAPSHOT_EVERY` frames and every stream at the end. Returns the
/// messages and unparsed bytes compared at the end.
fn compare_frames<F: FrameLike>(what: &str, frames: impl IntoIterator<Item = F>) -> (usize, u64) {
    const SNAPSHOT_EVERY: usize = 97;
    let mut streams: HashMap<(ConnKey, bool), (StreamExtractor, EagerExtractor)> = HashMap::new();
    for (i, frame) in frames.into_iter().enumerate() {
        let key = ConnKey::of(&frame);
        let side = (key, frame.src() == key.a);
        let (lazy, eager) = streams.entry(side).or_default();
        let tcp = frame.tcp();
        lazy.push(frame.timestamp(), tcp.seq, tcp.flags, frame.payload());
        eager.push(frame.timestamp(), tcp.seq, tcp.flags, frame.payload());
        if i % SNAPSHOT_EVERY == 0 {
            assert_same(
                &lazy.extraction(),
                &eager.snapshot(),
                &format!("{what} @ frame {i}"),
            );
        }
    }
    streams
        .into_values()
        .map(|(lazy, eager)| {
            let (lazy, eager) = (lazy.finish(), eager.finish());
            assert_same(&lazy, &eager, what);
            (lazy.messages.len(), lazy.unparsed_bytes)
        })
        .fold((0, 0), |(m, u), (dm, du)| (m + dm, u + du))
}

/// Runs a damaged pcap through the lossy reader and compares every
/// frame it salvages.
fn compare_pcap(what: &str, bytes: &[u8]) -> (usize, u64) {
    let mut reader = LossyReader::new(bytes).expect("damage never touches the global header");
    let mut frames = Vec::new();
    while let Some(lossy) = reader
        .next_lossy_view()
        .expect("lossy reads never fail in-stream")
    {
        frames.extend(lossy.frame.map(|view| view.to_frame()));
    }
    compare_frames(what, frames)
}

#[test]
fn lazy_extraction_matches_eager_decode_on_the_oracle_matrix_and_chaos() {
    let matrix = tdat_oracle::scenario_matrix(1);
    assert!(matrix.len() >= 31, "{} scenarios", matrix.len());
    let (mut messages, mut poisoned_unparsed) = (0, 0);
    for sc in &matrix {
        let frames = tdat_oracle::scenario_capture(sc);
        messages += compare_frames(&sc.name, frames.iter()).0;
        for (preset, spec) in [
            ("survivable", ChaosSpec::survivable(sc.seed)),
            ("poison", ChaosSpec::poison(sc.seed)),
        ] {
            let (damaged, _) = apply_chaos(&frames, &spec);
            let (_, unparsed) = compare_pcap(&format!("{}+{preset}", sc.name), &damaged);
            if preset == "poison" {
                poisoned_unparsed += unparsed;
            }
        }
    }
    assert!(
        messages > 10_000,
        "the matrix carries whole tables: {messages}"
    );
    assert!(
        poisoned_unparsed > 0,
        "poison damage must exercise the resync path"
    );
}

#[test]
fn lazy_extraction_matches_eager_decode_on_the_fuzz_corpus() {
    let mut unparsed = 0;
    for base_seed in [1, 2, 3] {
        for entry in tdat_fuzz::corpus(base_seed) {
            unparsed += compare_pcap(&format!("{}#{}", entry.class, entry.seed), &entry.bytes).1;
        }
    }
    assert!(unparsed > 0, "the corpus must exercise the resync path");
}

/// A hand-damaged stream: garbage before, between and after messages,
/// a corrupted UPDATE body, and a partial tail — the resync path with
/// every kind of skip.
#[test]
fn lazy_extraction_matches_eager_decode_through_resync() {
    let table = tdat_bgp::TableGenerator::new(3).routes(300).generate();
    let mut stream = vec![0u8; 7];
    stream.extend(table.to_update_stream());
    stream.extend([0xff; 30]);
    let update_at = stream.len();
    stream.extend(BgpMessage::Keepalive.to_bytes());
    stream.extend(table.to_update_stream());
    // An attribute-length byte inside the second table's first UPDATE.
    stream[update_at + 19 + 19 + 4] ^= 0x5a;
    stream.extend(&BgpMessage::Keepalive.to_bytes()[..11]);
    let frames = stream
        .chunks(701)
        .enumerate()
        .scan(1u32, |seq, (i, chunk)| {
            let frame = tdat_packet::FrameBuilder::new(
                "10.0.0.1".parse().unwrap(),
                "10.0.0.2".parse().unwrap(),
            )
            .ports(179, 40000)
            .at(Micros(i as i64 * 10))
            .seq(*seq)
            .ack_to(1)
            .payload(chunk.to_vec())
            .build();
            *seq = seq.wrapping_add(chunk.len() as u32);
            Some(frame)
        });
    let (messages, unparsed) = compare_frames("resync", frames);
    assert!(
        messages > 0 && unparsed > 0,
        "{messages} messages, {unparsed} unparsed bytes"
    );
}
