//! `pcap2bgp` — reconstruct BGP message streams from raw packet traces.
//!
//! The vendor collectors of the paper's dataset keep no BGP archive, so
//! the authors built this side tool (§II-A, Table VI): it reassembles
//! the TCP byte stream from a tcpdump trace — tolerating out-of-order
//! delivery and retransmissions — extracts the individual BGP messages,
//! and stores them in MRT format. Unlike `wireshark`/`tcpflow`, the
//! message timestamps record when each message's last byte first became
//! contiguous at the capture point, i.e. when the receiving BGP process
//! could first have read it.
//!
//! # Lazy extraction
//!
//! Messages are framed, not decoded. [`StreamExtractor`] appends the
//! reassembled bytes of a stream to an append-only *arena* and frames
//! messages in place with [`tdat_bgp::frame_message`]; each becomes a
//! [`FramedMessage`] index entry `(time, offset, len, type_code)`. An
//! [`Extraction`] is the arena plus that index:
//!
//! * [`Extraction::updates_iter`] yields borrowed [`UpdateView`]s whose
//!   `announced` and `withdrawn` NLRI are walked straight from the
//!   arena — the MCT input, read without building any message;
//! * [`Extraction::to_message`] and [`Extraction::decoded`] build owned
//!   [`BgpMessage`]s on demand (the MRT writer uses them).
//!
//! The framing-equivalence contract: `frame_message` accepts, waits and
//! rejects on exactly the inputs where [`BgpMessage::decode`] does, with
//! the same consumed length, so the skip-one-byte resync over a damaged
//! stream skips the same bytes — and counts the same
//! [`unparsed_bytes`](Extraction::unparsed_bytes) — as decoding every
//! message would, and every indexed message decodes.
//!
//! # Examples
//!
//! ```
//! use tdat_pcap2bgp::extract_all;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let frames = {
//! #     let msg = tdat_bgp::BgpMessage::Keepalive.to_bytes();
//! #     vec![tdat_packet::FrameBuilder::new("10.0.0.1".parse()?, "10.0.0.2".parse()?)
//! #         .ports(179, 40000).seq(1).payload(msg).build()]
//! # };
//! for (conn, extraction) in extract_all(&frames) {
//!     println!("{:?}: {} messages", conn.sender, extraction.messages.len());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;

pub use tdat_bgp::UpdateView;
use tdat_bgp::{frame_message, BgpMessage, MrtRecord};
use tdat_packet::{seq_diff, TcpFlags, TcpFrame};
use tdat_timeset::Micros;
use tdat_trace::{Direction, TcpConnection};

/// An in-order TCP byte-stream reassembler.
///
/// Feed it segments in *capture* order (any sequence order); it emits
/// the contiguous byte stream, discarding retransmitted overlap and
/// holding out-of-order data until the gap fills. Works online: bytes
/// can be taken incrementally with [`take_ready`](Self::take_ready).
#[derive(Debug)]
pub struct StreamReassembler {
    /// Next expected sequence number (`None` until anchored).
    next_seq: Option<u32>,
    /// Out-of-order segments keyed by start seq.
    pending: BTreeMap<u32, Vec<u8>>,
    /// Reassembled contiguous bytes not yet taken.
    ready: Vec<u8>,
    /// Total contiguous bytes ever emitted.
    emitted: u64,
    /// Count of duplicate/overlap bytes discarded.
    duplicate_bytes: u64,
    /// Bytes currently parked out of order.
    pending_bytes: usize,
    /// Cap on `pending_bytes`; see [`MAX_PENDING_BYTES`].
    pending_cap: usize,
    /// Parked bytes dropped because the cap was hit.
    overflow_bytes: u64,
}

/// Default cap on parked out-of-order data; beyond it the earliest
/// pending segments are dropped (they will reappear as retransmissions,
/// or surface as an unfillable hole an adversarial seq-gap flood left
/// behind — in either case memory stays bounded).
pub const MAX_PENDING_BYTES: usize = 4 << 20;

impl Default for StreamReassembler {
    fn default() -> StreamReassembler {
        StreamReassembler::with_pending_cap(MAX_PENDING_BYTES)
    }
}

impl StreamReassembler {
    /// Creates an empty reassembler; the first pushed segment anchors
    /// the sequence space unless [`anchor`](Self::anchor) was called.
    pub fn new() -> StreamReassembler {
        StreamReassembler::default()
    }

    /// Creates a reassembler with a custom out-of-order window cap
    /// (bytes). A segment flood with sequence gaps can otherwise park
    /// unbounded data; beyond the cap the lowest-sequence parked
    /// segments are dropped and counted in
    /// [`overflow_bytes`](Self::overflow_bytes).
    pub fn with_pending_cap(cap: usize) -> StreamReassembler {
        StreamReassembler {
            next_seq: None,
            pending: BTreeMap::new(),
            ready: Vec::new(),
            emitted: 0,
            duplicate_bytes: 0,
            pending_bytes: 0,
            pending_cap: cap.max(1),
            overflow_bytes: 0,
        }
    }

    /// Anchors the stream at `seq` (the byte after the SYN).
    pub fn anchor(&mut self, seq: u32) {
        self.next_seq.get_or_insert(seq);
    }

    /// Pushes one segment's payload at `seq`.
    pub fn push(&mut self, seq: u32, payload: &[u8]) {
        if payload.is_empty() {
            return;
        }
        let next = *self.next_seq.get_or_insert(seq);
        let offset = seq_diff(next, seq); // how far seq lags the stream head
        if offset >= payload.len() as i64 {
            // Entirely old: a pure retransmission.
            self.duplicate_bytes += payload.len() as u64;
            return;
        }
        if offset > 0 {
            // Partial overlap: keep the fresh tail.
            self.duplicate_bytes += offset as u64;
            self.accept_at_head(&payload[offset as usize..]);
        } else if offset == 0 {
            self.accept_at_head(payload);
        } else {
            // Future data: park it.
            match self.pending.get(&seq) {
                Some(existing) if existing.len() >= payload.len() => {
                    self.duplicate_bytes += payload.len() as u64;
                }
                _ => {
                    self.pending_bytes += payload.len();
                    if let Some(old) = self.pending.insert(seq, payload.to_vec()) {
                        self.pending_bytes -= old.len();
                        self.duplicate_bytes += old.len() as u64;
                    }
                    // Bound memory under pathological holes: evict the
                    // parked data farthest ahead of the stream head
                    // (an adversarial flood lands far from the head;
                    // near-head data is about to drain).
                    while self.pending_bytes > self.pending_cap {
                        let Some(victim) = self.farthest_pending(next) else {
                            break;
                        };
                        let Some(dropped) = self.pending.remove(&victim) else {
                            break;
                        };
                        self.pending_bytes -= dropped.len();
                        self.overflow_bytes += dropped.len() as u64;
                    }
                }
            }
        }
        self.drain_pending();
    }

    /// The parked key farthest ahead of `next` in wrapped sequence
    /// space — the eviction victim when the window cap trips. Keys are
    /// compared by circular distance from the stream head, so the
    /// choice is invariant under sequence-space translation (and thus
    /// under wraparound).
    fn farthest_pending(&self, next: u32) -> Option<u32> {
        let horizon = next.wrapping_add(1 << 31); // exclusive future bound
        let future = match next.checked_add(1) {
            Some(lo) if lo < horizon => {
                // Future keys occupy the contiguous raw range (next, horizon).
                self.pending.range(lo..horizon).next_back()
            }
            Some(lo) => {
                // Future range wraps: (next, u32::MAX] ∪ [0, horizon);
                // the wrapped-low keys are the farther ones.
                self.pending
                    .range(..horizon)
                    .next_back()
                    .or_else(|| self.pending.range(lo..).next_back())
            }
            // next == u32::MAX: future is [0, horizon) only.
            None => self.pending.range(..horizon).next_back(),
        }
        .map(|(k, _)| *k);
        future.or_else(|| {
            // Only past/overlapping keys remain (rare: the stale sweep
            // usually clears them); evict the most-negative offset.
            self.pending
                .keys()
                .min_by_key(|k| seq_diff(**k, next))
                .copied()
        })
    }

    fn accept_at_head(&mut self, bytes: &[u8]) {
        let Some(next) = self.next_seq else {
            return; // unanchored: push() always anchors before this
        };
        self.ready.extend_from_slice(bytes);
        self.emitted += bytes.len() as u64;
        self.next_seq = Some(next.wrapping_add(bytes.len() as u32));
    }

    fn drain_pending(&mut self) {
        loop {
            let Some(next) = self.next_seq else { return };
            // A parked segment is usable if it starts at or before the
            // stream head and extends beyond it.
            let usable = self
                .pending
                .iter()
                .find(|(k, v)| {
                    let off = seq_diff(next, **k);
                    off >= 0 && off < v.len() as i64
                })
                .map(|(k, _)| *k);
            let Some(start) = usable else { break };
            let Some(data) = self.pending.remove(&start) else {
                break;
            };
            self.pending_bytes -= data.len();
            let offset = seq_diff(next, start);
            if offset > 0 {
                self.duplicate_bytes += offset as u64;
            }
            self.accept_at_head(&data[offset.max(0) as usize..]);
        }
        // Discard parked segments the stream head has passed entirely.
        let Some(next) = self.next_seq else { return };
        let stale: Vec<u32> = self
            .pending
            .iter()
            .filter(|(k, v)| seq_diff(next, **k) >= v.len() as i64)
            .map(|(k, _)| *k)
            .collect();
        for k in stale {
            if let Some(dropped) = self.pending.remove(&k) {
                self.pending_bytes -= dropped.len();
                self.duplicate_bytes += dropped.len() as u64;
            }
        }
    }

    /// Takes the reassembled bytes accumulated so far.
    pub fn take_ready(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.ready)
    }

    /// Appends the reassembled bytes accumulated so far to `out` and
    /// clears the internal ready buffer, retaining its capacity. The
    /// per-segment drain path: after warm-up neither buffer reallocates.
    pub fn take_ready_into(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ready);
        self.ready.clear();
    }

    /// Contiguous bytes emitted over the reassembler's lifetime.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Duplicate (retransmitted/overlapping) bytes discarded.
    pub fn duplicate_bytes(&self) -> u64 {
        self.duplicate_bytes
    }

    /// Bytes parked waiting for a sequence hole to fill.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Parked bytes dropped because the out-of-order window cap was
    /// hit — nonzero means the capture had sequence gaps no window
    /// could bridge (loss, clipping, or an adversarial flood).
    pub fn overflow_bytes(&self) -> u64 {
        self.overflow_bytes
    }
}

/// One framed message in an [`Extraction`]'s index: when it completed
/// and where its wire bytes sit in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramedMessage {
    /// Capture time at which the message's last byte first became
    /// contiguous.
    pub time: Micros,
    /// Arena offset of the message's first byte.
    pub offset: usize,
    /// Wire length, header included (at most 4096).
    pub len: u16,
    /// BGP message type code (1 OPEN, 2 UPDATE, 3 NOTIFICATION, 4
    /// KEEPALIVE).
    pub type_code: u8,
}

/// Result of BGP extraction from one connection: the reassembled
/// stream bytes plus an index of the messages framed in them.
///
/// Nothing is decoded up front. [`updates_iter`](Self::updates_iter)
/// reads UPDATE NLRI straight from the arena; owned [`BgpMessage`]s are
/// built only on request ([`to_message`](Self::to_message),
/// [`decoded`](Self::decoded)). Every indexed message passed
/// [`tdat_bgp::frame_message`], so it decodes.
///
/// Two extractions are equal when they index the same messages (same
/// times, same wire bytes) and carry the same byte counters, wherever
/// in their arenas the messages sit.
#[derive(Debug, Clone, Default)]
pub struct Extraction {
    /// The framed messages, in stream order.
    pub messages: Vec<FramedMessage>,
    /// Reassembled stream bytes the index points into, including any
    /// bytes skipped as unframeable.
    pub arena: Vec<u8>,
    /// Bytes that could not be framed as BGP (corruption or a partial
    /// tail at the end of the capture).
    pub unparsed_bytes: u64,
    /// Duplicate bytes the reassembler discarded.
    pub duplicate_bytes: u64,
    /// Bytes dropped by the reassembly window and pre-anchor caps —
    /// nonzero means resource bounds kicked in and the stream has
    /// irrecoverable holes.
    pub overflow_bytes: u64,
}

impl PartialEq for Extraction {
    fn eq(&self, other: &Extraction) -> bool {
        let counters = |e: &Extraction| (e.unparsed_bytes, e.duplicate_bytes, e.overflow_bytes);
        counters(self) == counters(other)
            && self.messages.len() == other.messages.len()
            && self
                .messages
                .iter()
                .zip(&other.messages)
                .all(|(a, b)| a.time == b.time && self.bytes_of(a) == other.bytes_of(b))
    }
}

impl Eq for Extraction {}

impl Extraction {
    /// The wire bytes of an indexed message (empty if `m` points
    /// outside the arena).
    fn bytes_of(&self, m: &FramedMessage) -> &[u8] {
        self.arena
            .get(m.offset..m.offset + usize::from(m.len))
            .unwrap_or_default()
    }

    /// Decodes one indexed message into an owned [`BgpMessage`].
    ///
    /// # Errors
    ///
    /// Fails only if `m` does not index a framed message of this
    /// extraction.
    pub fn to_message(&self, m: &FramedMessage) -> tdat_bgp::Result<BgpMessage> {
        let bytes = self.bytes_of(m);
        BgpMessage::decode(&mut &bytes[..])?.ok_or(tdat_bgp::BgpError::Truncated {
            what: "indexed message",
            needed: usize::from(m.len),
            available: bytes.len(),
        })
    }

    /// Every message decoded into an owned [`BgpMessage`], with its
    /// timestamp — for the MRT writer and tests; the analysis path
    /// never materializes messages.
    pub fn decoded(&self) -> Vec<(Micros, BgpMessage)> {
        self.messages
            .iter()
            .filter_map(|m| Some((m.time, self.to_message(m).ok()?)))
            .collect()
    }

    /// Total prefixes announced across all extracted updates.
    pub fn announced_prefixes(&self) -> usize {
        self.updates_iter().map(|(_, u)| u.announced.len()).sum()
    }

    /// The timestamped UPDATE messages as borrowed views over the arena
    /// — the MCT input, read without decoding or cloning anything.
    pub fn updates_iter(&self) -> impl Iterator<Item = (Micros, UpdateView<'_>)> {
        self.updates_since(0)
    }

    /// Like [`updates_iter`](Self::updates_iter), but only over
    /// `messages[first..]` — the updates framed after the first `first`
    /// messages, for a caller that has already consumed those.
    pub fn updates_since(&self, first: usize) -> impl Iterator<Item = (Micros, UpdateView<'_>)> {
        self.messages
            .get(first..)
            .unwrap_or_default()
            .iter()
            .filter(|m| m.type_code == 2)
            .filter_map(|m| Some((m.time, UpdateView::new(self.bytes_of(m))?)))
    }
}

/// Incremental BGP extraction from one direction of a TCP connection.
///
/// Feed it segments in capture order with [`push`](Self::push); it
/// anchors the sequence space (from the SYN, or from the lowest
/// sequence among the first segments of a mid-connection capture),
/// appends the contiguous bytes to an arena, and frames BGP messages in
/// it as their bytes become contiguous, indexing each without decoding
/// it. [`finish`](Self::finish) yields the same [`Extraction`] the
/// batch [`extract_from_frames`] produces.
///
/// Framing uses [`tdat_bgp::frame_message`], which accepts, waits and
/// rejects exactly where [`BgpMessage::decode`] does, so the
/// skip-one-byte resync counts the same unparsed bytes a decoding
/// extractor would. Beyond the arena and the index (which grow with the
/// stream), memory is bounded by the reassembler's out-of-order window.
#[derive(Debug, Default)]
pub struct StreamExtractor {
    reasm: StreamReassembler,
    anchored: bool,
    /// Pre-anchor segments of a SYN-less capture, held until the anchor
    /// can be chosen (bounded to 64 buffered segments or
    /// [`PREANCHOR_BYTES`], whichever trips first).
    prebuf: Vec<(Micros, u32, Vec<u8>)>,
    /// Bytes currently held in `prebuf`.
    prebuf_bytes: usize,
    /// Append-only reassembled stream; framed messages are indexed
    /// into it, never copied out.
    arena: Vec<u8>,
    /// Arena offset of the first byte not yet framed or skipped.
    framed: usize,
    messages: Vec<FramedMessage>,
    unparsed_bytes: u64,
}

/// Segments buffered before anchoring a SYN-less stream; beyond this
/// the lowest sequence seen so far becomes the anchor.
const PREANCHOR_SEGMENTS: usize = 64;

/// Byte cap on the pre-anchor buffer: a flood of large un-anchorable
/// segments must force an anchor rather than hoard memory.
pub const PREANCHOR_BYTES: usize = 256 << 10;

impl StreamExtractor {
    /// Creates an extractor with an unanchored sequence space.
    pub fn new() -> StreamExtractor {
        StreamExtractor::default()
    }

    /// Creates an extractor whose reassembler uses a custom
    /// out-of-order window cap (bytes).
    pub fn with_pending_cap(cap: usize) -> StreamExtractor {
        StreamExtractor {
            reasm: StreamReassembler::with_pending_cap(cap),
            ..StreamExtractor::default()
        }
    }

    /// Anchors the stream at `seq` (the first data byte), flushing any
    /// buffered pre-anchor segments. No-op if already anchored.
    pub fn anchor(&mut self, seq: u32) {
        if !self.anchored {
            self.reasm.anchor(seq);
            self.anchored = true;
            self.prebuf_bytes = 0;
            for (time, seq, payload) in std::mem::take(&mut self.prebuf) {
                self.feed(time, seq, &payload);
            }
        }
    }

    /// Feeds one segment of the data direction, in capture order.
    ///
    /// A SYN anchors the stream at `seq + 1`; until an anchor is known,
    /// payload segments are buffered (64-segment bound).
    pub fn push(&mut self, time: Micros, seq: u32, flags: TcpFlags, payload: &[u8]) {
        if !self.anchored {
            if flags.contains(TcpFlags::SYN) {
                self.anchor(seq.wrapping_add(1));
            } else if !payload.is_empty() {
                self.prebuf_bytes += payload.len();
                self.prebuf.push((time, seq, payload.to_vec()));
                if self.prebuf.len() >= PREANCHOR_SEGMENTS || self.prebuf_bytes >= PREANCHOR_BYTES {
                    self.anchor_at_min();
                }
                return;
            } else {
                return;
            }
        }
        self.feed(time, seq, payload);
    }

    /// Anchors at the lowest buffered sequence number (mid-connection
    /// capture: the first captured segment may have arrived out of
    /// order).
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
        let before = self.arena.len();
        self.reasm.take_ready_into(&mut self.arena);
        if self.arena.len() == before {
            return;
        }
        loop {
            match frame_message(&self.arena[self.framed..]) {
                Ok(Some(len)) => {
                    self.messages.push(FramedMessage {
                        time,
                        offset: self.framed,
                        len: len as u16,
                        type_code: self.arena[self.framed + 18],
                    });
                    self.framed += len;
                }
                Ok(None) => break,
                Err(_) => {
                    // Lost framing: skip one byte and retry (resync is
                    // heuristic; corrupted captures are rare).
                    self.unparsed_bytes += 1;
                    self.framed += 1;
                }
            }
        }
    }

    /// Messages framed so far.
    pub fn messages_decoded(&self) -> usize {
        self.messages.len()
    }

    /// Bytes parked in the reassembler and not yet framed.
    pub fn buffered_bytes(&self) -> usize {
        self.reasm.pending_bytes()
            + (self.arena.len() - self.framed)
            + self.prebuf.iter().map(|(_, _, p)| p.len()).sum::<usize>()
    }

    /// A point-in-time snapshot of the extraction so far, without
    /// consuming the extractor — the live-monitoring path for
    /// connections that are still transferring.
    ///
    /// Unlike [`finish`](Self::finish), the unframed tail in the
    /// buffer is *not* counted as unparsed: it is a partial message
    /// still in flight, not corruption.
    pub fn extraction(&self) -> Extraction {
        Extraction {
            messages: self.messages.clone(),
            arena: self.arena[..self.framed].to_vec(),
            unparsed_bytes: self.unparsed_bytes,
            duplicate_bytes: self.reasm.duplicate_bytes(),
            overflow_bytes: self.reasm.overflow_bytes(),
        }
    }

    /// Completes extraction: unframed tail bytes are counted as
    /// unparsed, and a never-anchored stream is anchored at its lowest
    /// buffered sequence first.
    pub fn finish(mut self) -> Extraction {
        if !self.anchored && !self.prebuf.is_empty() {
            self.anchor_at_min();
        }
        let tail = self.arena.len() - self.framed;
        Extraction {
            messages: self.messages,
            arena: self.arena,
            unparsed_bytes: self.unparsed_bytes + tail as u64,
            duplicate_bytes: self.reasm.duplicate_bytes(),
            overflow_bytes: self.reasm.overflow_bytes(),
        }
    }
}

/// Reassembles the data direction of `conn` (whose segments index into
/// `frames`) and extracts its BGP messages.
pub fn extract_from_frames(conn: &TcpConnection, frames: &[TcpFrame]) -> Extraction {
    let mut extractor = StreamExtractor::new();
    // Anchor at the SYN if captured, so handshake seq space is skipped.
    // Without a SYN (capture started mid-connection), anchor at the
    // lowest data sequence number seen — the first captured segment may
    // have arrived out of order.
    let data_segs = || conn.segments.iter().filter(|s| s.dir == Direction::Data);
    if let Some(syn) = data_segs().find(|s| s.flags.contains(TcpFlags::SYN)) {
        extractor.anchor(syn.seq.wrapping_add(1));
    } else if let Some(first) = data_segs().find(|s| s.payload_len > 0) {
        let ref_seq = first.seq;
        let min_rel = data_segs()
            .filter(|s| s.payload_len > 0)
            .map(|s| seq_diff(s.seq, ref_seq))
            .min()
            .unwrap_or(0);
        extractor.anchor(ref_seq.wrapping_add(min_rel as u32));
    }
    for seg in data_segs() {
        if seg.payload_len == 0 {
            continue;
        }
        extractor.push(
            seg.time,
            seg.seq,
            seg.flags,
            &frames[seg.frame_index].payload,
        );
    }
    extractor.finish()
}

/// Extracts BGP messages for every connection in `frames`.
///
/// Returns `(connection, extraction)` pairs in the order of
/// [`tdat_trace::extract_connections`].
pub fn extract_all(frames: &[TcpFrame]) -> Vec<(TcpConnection, Extraction)> {
    tdat_trace::extract_connections(frames)
        .into_iter()
        .map(|conn| {
            let extraction = extract_from_frames(&conn, frames);
            (conn, extraction)
        })
        .collect()
}

/// Converts an extraction into MRT `BGP4MP_MESSAGE` records, ready for
/// [`tdat_bgp::write_mrt`].
pub fn to_mrt_records(
    conn: &TcpConnection,
    extraction: &Extraction,
    peer_as: u16,
    local_as: u16,
) -> Vec<MrtRecord> {
    extraction
        .decoded()
        .iter()
        .map(|(time, msg)| {
            MrtRecord::message(
                *time,
                peer_as,
                local_as,
                conn.sender.0,
                conn.receiver.0,
                msg,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tdat_bgp::TableGenerator;
    use tdat_packet::FrameBuilder;

    fn frame(t: i64, seq: u32, payload: Vec<u8>) -> TcpFrame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .at(Micros(t))
            .ports(179, 40000)
            .seq(seq)
            .ack_to(1)
            .payload(payload)
            .build()
    }

    #[test]
    fn reassembler_in_order() {
        let mut r = StreamReassembler::new();
        r.push(100, b"hello ");
        r.push(106, b"world");
        assert_eq!(r.take_ready(), b"hello world");
        assert_eq!(r.emitted(), 11);
        assert_eq!(r.duplicate_bytes(), 0);
    }

    #[test]
    fn reassembler_out_of_order_and_retransmission() {
        let mut r = StreamReassembler::new();
        r.anchor(100);
        r.push(106, b"world"); // future
        assert!(r.take_ready().is_empty());
        assert_eq!(r.pending_bytes(), 5);
        r.push(100, b"hello ");
        assert_eq!(r.take_ready(), b"hello world");
        r.push(100, b"hello "); // pure retransmission
        assert!(r.take_ready().is_empty());
        assert_eq!(r.duplicate_bytes(), 6);
    }

    #[test]
    fn reassembler_partial_overlap() {
        let mut r = StreamReassembler::new();
        r.push(100, b"abcd");
        // Overlapping retransmission carrying two fresh bytes.
        r.push(102, b"cdEF");
        assert_eq!(r.take_ready(), b"abcdEF");
        assert_eq!(r.duplicate_bytes(), 2);
    }

    #[test]
    fn reassembler_overlapping_future_segments() {
        let mut r = StreamReassembler::new();
        r.anchor(0);
        r.push(10, b"KLMNO");
        r.push(5, b"FGHIJ");
        r.push(0, b"ABCDE");
        assert_eq!(r.take_ready(), b"ABCDEFGHIJKLMNO");
    }

    #[test]
    fn reassembler_seq_wraparound() {
        let mut r = StreamReassembler::new();
        let start = u32::MAX - 2;
        r.anchor(start);
        r.push(start, b"abc"); // occupies MAX-2..=MAX, next wraps to 0
        r.push(0, b"def");
        assert_eq!(r.take_ready(), b"abcdef");
    }

    #[test]
    fn extraction_from_clean_stream() {
        let table = TableGenerator::new(1).routes(300).generate();
        let stream = table.to_update_stream();
        let mut frames = Vec::new();
        let mut seq = 1u32;
        for (i, chunk) in stream.chunks(1000).enumerate() {
            frames.push(frame(i as i64 * 1000, seq, chunk.to_vec()));
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        let results = extract_all(&frames);
        assert_eq!(results.len(), 1);
        let (_, extraction) = &results[0];
        assert_eq!(extraction.announced_prefixes(), 300);
        assert_eq!(extraction.unparsed_bytes, 0);
        assert_eq!(extraction.updates_iter().count(), extraction.messages.len());
    }

    #[test]
    fn extraction_handles_reordering_and_retransmissions() {
        let table = TableGenerator::new(2).routes(300).generate();
        let stream = table.to_update_stream();
        let mut frames = Vec::new();
        let mut seq = 1u32;
        let chunks: Vec<(u32, Vec<u8>)> = stream
            .chunks(977)
            .map(|c| {
                let s = seq;
                seq = seq.wrapping_add(c.len() as u32);
                (s, c.to_vec())
            })
            .collect();
        // Swap every adjacent pair; duplicate every 5th chunk.
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        for pair in order.chunks_mut(2) {
            pair.reverse();
        }
        let mut t = 0i64;
        for (n, &i) in order.iter().enumerate() {
            t += 500;
            frames.push(frame(t, chunks[i].0, chunks[i].1.clone()));
            if n % 5 == 0 {
                t += 100;
                frames.push(frame(t, chunks[i].0, chunks[i].1.clone()));
            }
        }
        let results = extract_all(&frames);
        let (_, extraction) = &results[0];
        assert_eq!(extraction.announced_prefixes(), 300);
        assert!(extraction.duplicate_bytes > 0);
        assert_eq!(extraction.unparsed_bytes, 0);
    }

    #[test]
    fn message_timestamps_wait_for_holes() {
        let ka = BgpMessage::Keepalive.to_bytes(); // 19 bytes
        let mut two = ka.clone();
        two.extend_from_slice(&ka);
        // First 10 bytes at t=0, remaining 28 at t=5000 — both messages
        // complete only at t=5000.
        let frames = vec![
            frame(0, 1, two[..10].to_vec()),
            frame(5_000, 11, two[10..].to_vec()),
        ];
        let results = extract_all(&frames);
        let (_, extraction) = &results[0];
        assert_eq!(extraction.messages.len(), 2);
        assert!(extraction.messages.iter().all(|m| m.time == Micros(5_000)));
    }

    #[test]
    fn corrupt_bytes_counted_not_fatal() {
        let mut bytes = vec![0u8; 10]; // garbage: marker check fails
        bytes.extend_from_slice(&BgpMessage::Keepalive.to_bytes());
        let frames = vec![frame(0, 1, bytes)];
        let results = extract_all(&frames);
        let (_, extraction) = &results[0];
        assert_eq!(extraction.messages.len(), 1, "resyncs to the keepalive");
        assert_eq!(extraction.unparsed_bytes, 10);
    }

    #[test]
    fn stream_extractor_matches_batch_on_reordered_stream() {
        let table = TableGenerator::new(4).routes(250).generate();
        let stream = table.to_update_stream();
        let mut frames = Vec::new();
        let mut seq = 1u32;
        for (i, chunk) in stream.chunks(900).enumerate() {
            frames.push(frame(i as i64 * 500, seq, chunk.to_vec()));
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        // Swap adjacent pairs to force reassembly holes.
        for pair in frames.chunks_mut(2) {
            pair.reverse();
        }
        let batch = extract_all(&frames).remove(0).1;
        let mut ex = StreamExtractor::new();
        ex.anchor(1);
        for f in &frames {
            ex.push(f.timestamp, f.tcp.seq, f.tcp.flags, &f.payload);
        }
        assert_eq!(ex.finish(), batch);
    }

    #[test]
    fn extraction_snapshot_is_nondestructive_and_converges_to_finish() {
        let table = TableGenerator::new(6).routes(200).generate();
        let stream = table.to_update_stream();
        let mut ex = StreamExtractor::new();
        ex.anchor(0);
        let mut seq = 0u32;
        let chunks: Vec<Vec<u8>> = stream.chunks(700).map(|c| c.to_vec()).collect();
        let half = chunks.len() / 2;
        for chunk in &chunks[..half] {
            ex.push(Micros(0), seq, TcpFlags::ACK, chunk);
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        let mid = ex.extraction();
        // Snapshotting twice yields the same thing and disturbs nothing.
        assert_eq!(mid, ex.extraction());
        assert_eq!(mid.messages.len(), ex.messages_decoded());
        for chunk in &chunks[half..] {
            ex.push(Micros(1), seq, TcpFlags::ACK, chunk);
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        let end = ex.extraction();
        // The mid-stream messages are a prefix of the final list.
        assert_eq!(&end.messages[..mid.messages.len()], &mid.messages[..]);
        assert_eq!(ex.finish(), end, "drained stream: snapshot == finish");
    }

    #[test]
    fn stream_extractor_anchors_from_syn() {
        let ka = BgpMessage::Keepalive.to_bytes();
        let mut ex = StreamExtractor::new();
        // SYN at seq 500 → first data byte is 501.
        ex.push(Micros(0), 500, TcpFlags::SYN, &[]);
        ex.push(Micros(100), 501, TcpFlags::ACK, &ka);
        let out = ex.finish();
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.unparsed_bytes, 0);
    }

    #[test]
    fn stream_extractor_synless_capture_anchors_at_min_seq() {
        let ka = BgpMessage::Keepalive.to_bytes(); // 19 bytes
        let mut ex = StreamExtractor::new();
        // Mid-connection capture, first segment reordered after the
        // second: anchoring must pick the lower sequence (1000).
        ex.push(Micros(0), 1019, TcpFlags::ACK, &ka);
        ex.push(Micros(50), 1000, TcpFlags::ACK, &ka);
        let out = ex.finish();
        assert_eq!(out.messages.len(), 2);
        assert_eq!(out.unparsed_bytes, 0);
    }

    #[test]
    fn stream_extractor_buffered_bytes_stay_bounded() {
        let table = TableGenerator::new(5).routes(400).generate();
        let stream = table.to_update_stream();
        let mut ex = StreamExtractor::new();
        ex.anchor(0);
        let mut seq = 0u32;
        let mut max_buffered = 0;
        for chunk in stream.chunks(1448) {
            ex.push(Micros(0), seq, TcpFlags::ACK, chunk);
            seq = seq.wrapping_add(chunk.len() as u32);
            max_buffered = max_buffered.max(ex.buffered_bytes());
        }
        // In-order stream: never more than one partial message pending.
        assert!(max_buffered < 4096, "{max_buffered}");
        assert!(ex.messages_decoded() > 0);
    }

    #[test]
    fn reassembler_cap_drops_lowest_parked_segments() {
        let mut r = StreamReassembler::with_pending_cap(1024);
        r.anchor(0);
        // Flood of future segments behind an unfillable hole at seq 0.
        for i in 0..8u32 {
            r.push(1_000 + i * 512, &[b'x'; 512]);
        }
        assert!(r.pending_bytes() <= 1024, "{}", r.pending_bytes());
        assert!(r.overflow_bytes() > 0);
        // Filling the hole still drains whatever survived, no panic.
        r.push(0, &[b'y'; 1_000]);
        let out = r.take_ready();
        assert!(out.len() >= 1_000);
    }

    #[test]
    fn reassembler_cap_never_evicts_head_adjacent_data() {
        // The cap evicts lowest-seq parked segments; data that the
        // head is about to reach must survive when it fits the cap.
        let mut r = StreamReassembler::with_pending_cap(64);
        r.anchor(0);
        r.push(10, b"near-head");
        r.push(5_000, &[b'z'; 200]); // far segment blows the cap
        assert!(r.pending_bytes() <= 64);
        r.push(0, b"0123456789");
        assert_eq!(r.take_ready(), b"0123456789near-head");
    }

    #[test]
    fn preanchor_byte_cap_forces_anchor_instead_of_hoarding() {
        let ka = BgpMessage::Keepalive.to_bytes(); // 19 bytes
        let per_chunk = 1_700usize;
        let chunk: Vec<u8> = ka.iter().cycle().take(19 * per_chunk).cloned().collect();
        let mut ex = StreamExtractor::new();
        let mut seq = 5_000u32;
        let mut pushes = 0usize;
        // SYN-less capture of large segments: the byte cap must trip
        // long before the 64-segment bound.
        while ex.messages_decoded() == 0 {
            ex.push(Micros(0), seq, TcpFlags::ACK, &chunk);
            seq = seq.wrapping_add(chunk.len() as u32);
            pushes += 1;
            assert!(pushes < PREANCHOR_SEGMENTS, "segment bound hit first");
        }
        assert!(pushes * chunk.len() >= PREANCHOR_BYTES);
        let out = ex.finish();
        assert_eq!(out.messages.len(), pushes * per_chunk);
        assert_eq!(out.unparsed_bytes, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Satellite: the reassembly byte cap interacts correctly with
        /// sequence wraparound — shifting every sequence number by
        /// 2^31 (so comparisons cross the wrap point) changes nothing
        /// about what is emitted, deduplicated, or evicted.
        #[test]
        fn cap_enforcement_is_translation_invariant(
            base in proptest::prelude::any::<u32>(),
            segs in proptest::prop::collection::vec(
                (0u32..100_000, 1usize..600),
                1..40,
            ),
        ) {
            let run = |offset: u32| {
                let start = base.wrapping_add(offset);
                let mut r = StreamReassembler::with_pending_cap(2_048);
                r.anchor(start);
                for (rel, len) in &segs {
                    let payload = vec![0xAB; *len];
                    r.push(start.wrapping_add(*rel), &payload);
                }
                (
                    r.take_ready().len(),
                    r.emitted(),
                    r.duplicate_bytes(),
                    r.overflow_bytes(),
                    r.pending_bytes(),
                )
            };
            let plain = run(0);
            let shifted = run(1 << 31);
            proptest::prop_assert_eq!(plain, shifted);
            proptest::prop_assert!(plain.4 <= 2_048);
        }
    }

    #[test]
    fn mrt_records_round_trip() {
        let frames = vec![frame(0, 1, BgpMessage::Keepalive.to_bytes())];
        let results = extract_all(&frames);
        let (conn, extraction) = &results[0];
        let records = to_mrt_records(conn, extraction, 65001, 65535);
        assert_eq!(records.len(), 1);
        let mut buf = Vec::new();
        tdat_bgp::write_mrt(&mut buf, &records).unwrap();
        let back = tdat_bgp::read_mrt(&buf[..]).unwrap();
        assert_eq!(back[0].bgp_message().unwrap(), BgpMessage::Keepalive);
        assert_eq!(back[0].peer_ip, Ipv4Addr::new(10, 0, 0, 1));
    }
}
