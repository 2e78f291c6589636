//! MCT — Minimum Collection Time detection of table-transfer ends.
//!
//! Zhang et al. [36] identify BGP routing-table transfers inside an
//! update stream by exploiting what makes a transfer distinctive: it is
//! a dense burst of updates announcing (almost entirely) *not previously
//! seen* prefixes, whereas steady-state churn re-announces prefixes the
//! session already carried. The paper uses a streamlined variant
//! (§II-A): the TCP connection start pins the transfer *start*, and MCT
//! is run only to estimate the transfer *end*.
//!
//! This module implements that variant. Scanning updates in arrival
//! order from the session start, it maintains the set of prefixes
//! announced so far; the transfer ends at the last update that still
//! grows the table, where "still grows" tolerates a bounded amount of
//! in-transfer duplication (retransmitted or re-packed updates) and a
//! bounded quiet gap (timer gaps, loss recovery). An update beyond
//! either bound is attributed to steady-state churn.
//!
//! The scan is a fold, [`MctScan`], with three phases:
//!
//! 1. **scan** — each NLRI-bearing update is judged against the
//!    prefixes seen so far. A growing update moves the end to its
//!    timestamp; a duplicate-heavy one extends the duplicate run. A gap
//!    above `max_gap` or a run reaching `max_dup_run` breaks the scan.
//! 2. **tail** — after a break, updates that share the end timestamp
//!    still belong to the transfer period and join the distinct-prefix
//!    count; the first later update ends the tail.
//! 3. **done** — the result is final and the prefix set is freed.
//!
//! [`MctScan::result`] is the estimate over the updates pushed so far,
//! so a stream that grows can be read at any point without a rescan:
//! the live monitor keeps one scan per open connection and pushes only
//! each tick's new updates. [`find_transfer_end_ref`] is the same fold
//! run over a whole stream, stopped once the scan is done.

use std::collections::HashSet;

use crate::frame::UpdateNlri;
use crate::message::UpdateMessage;
use crate::prefix::Prefix;
use tdat_timeset::{Micros, Span};

/// Tuning knobs for [`find_transfer_end`].
#[derive(Debug, Clone, PartialEq)]
pub struct MctConfig {
    /// Maximum quiet gap *inside* a transfer. Gaps longer than this end
    /// the transfer at the previous update. The default (60 s) is far
    /// above any timer gap or RTO burst seen in the paper's traces, yet
    /// far below the steady-state inter-burst spacing.
    pub max_gap: Micros,
    /// Fraction of already-seen prefixes an update may carry and still
    /// count as part of the transfer.
    pub dup_tolerance: f64,
    /// Number of consecutive duplicate-heavy updates after which the
    /// transfer is considered over (ended at the last growing update).
    pub max_dup_run: usize,
}

impl Default for MctConfig {
    fn default() -> Self {
        MctConfig {
            max_gap: Micros::from_secs(60),
            dup_tolerance: 0.5,
            max_dup_run: 8,
        }
    }
}

/// Result of table-transfer end estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableTransfer {
    /// The transfer period: session start to estimated end.
    pub span: Span,
    /// Updates attributed to the transfer.
    pub update_count: usize,
    /// Distinct prefixes announced during the transfer.
    pub prefix_count: usize,
}

impl TableTransfer {
    /// Transfer duration.
    pub fn duration(&self) -> Micros {
        self.span.duration()
    }
}

/// Estimates where the initial table transfer ends in a timestamped
/// update stream that begins at session establishment (`start`).
///
/// Returns `None` if the stream contains no announcing update.
///
/// # Examples
///
/// ```
/// use tdat_bgp::{find_transfer_end, MctConfig, TableGenerator};
/// use tdat_timeset::Micros;
///
/// let table = TableGenerator::new(1).routes(300).generate();
/// // Table transfer: one update every 10 ms...
/// let mut stream: Vec<_> = table
///     .to_updates()
///     .into_iter()
///     .enumerate()
///     .map(|(i, u)| (Micros::from_millis(10 * i as i64), u))
///     .collect();
/// // ...then steady-state churn re-announcing an old prefix much later.
/// let churn_start = Micros::from_secs(600);
/// let churn = stream[0].1.clone();
/// stream.push((churn_start, churn));
///
/// let transfer = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
/// assert_eq!(transfer.prefix_count, 300);
/// assert!(transfer.span.end < churn_start);
/// ```
pub fn find_transfer_end(
    start: Micros,
    updates: &[(Micros, UpdateMessage)],
    config: &MctConfig,
) -> Option<TableTransfer> {
    find_transfer_end_ref(start, updates.iter().map(|(t, u)| (*t, u)), config)
}

/// A `/len` prefix packed into one word: the set of prefixes seen so
/// far is hot (one membership probe per announced prefix of every
/// update), so it is keyed by this packed form under a multiplicative
/// hasher instead of hashing the struct field-by-field with SipHash.
fn packed(p: &Prefix) -> u64 {
    (u64::from(u32::from(p.network())) << 8) | u64::from(p.len())
}

/// Multiplicative hasher for already-well-distributed packed prefixes
/// (Fibonacci hashing). Not DoS-hardened: the set holds one session's
/// announced prefixes, which is what a whole-stream scan always held,
/// and is freed when its scan is done; it is never shared across
/// sessions.
#[derive(Default)]
struct PackedHasher(u64);

impl std::hash::Hasher for PackedHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by u64 keys): FNV-1a.
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_right(23);
    }
}

type PackedSet = HashSet<u64, std::hash::BuildHasherDefault<PackedHasher>>;

/// [`find_transfer_end`] over borrowed updates — owned
/// `&UpdateMessage`s or [`UpdateView`](crate::UpdateView)s read straight
/// from wire bytes — so callers holding an extraction can run MCT
/// without materializing or cloning any message. A fold of the updates
/// through one [`MctScan`], stopped as soon as the scan is done.
pub fn find_transfer_end_ref<I, U>(
    start: Micros,
    updates: I,
    config: &MctConfig,
) -> Option<TableTransfer>
where
    I: IntoIterator<Item = (Micros, U)>,
    U: UpdateNlri,
{
    let mut scan = MctScan::new(start);
    for (time, update) in updates {
        if scan.is_done() {
            break;
        }
        scan.push(time, &update, config);
    }
    scan.result()
}

/// Where an [`MctScan`] is in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Still deciding: each NLRI-bearing update either grows the table
    /// (moving the end forward) or counts toward the duplicate run.
    Scan,
    /// The scan broke (gap or duplicate run) after finding an end;
    /// updates sharing the end timestamp still join the distinct count.
    Tail,
    /// Nothing further can change the result.
    Done,
}

/// The MCT scan as an incremental fold: anchored at the session start,
/// fed one update at a time in arrival order, with
/// [`result`](Self::result) readable after any prefix of the stream.
///
/// Feeding a whole stream gives exactly [`find_transfer_end_ref`] over
/// it (that function *is* this fold), so a caller watching a growing
/// stream — the live monitor, once per tick — pushes only the updates
/// that arrived since its last read instead of rescanning from the
/// session start. The packed-prefix set is freed once the scan is done.
#[derive(Debug, Clone)]
pub struct MctScan {
    start: Micros,
    phase: Phase,
    /// Distinct announced prefixes so far, packed.
    seen: PackedSet,
    /// One update's announced prefixes, packed: a wire view is walked
    /// once, then probed and inserted from here.
    announced: Vec<u64>,
    end: Option<Micros>,
    update_count: usize,
    /// NLRI-bearing updates scanned, accepted or not.
    counted: usize,
    dup_run: usize,
    last_time: Micros,
    prefix_count: usize,
}

impl MctScan {
    /// An empty scan anchored at the session start.
    pub fn new(start: Micros) -> MctScan {
        MctScan {
            start,
            phase: Phase::Scan,
            seen: PackedSet::default(),
            announced: Vec::new(),
            end: None,
            update_count: 0,
            counted: 0,
            dup_run: 0,
            last_time: start,
            prefix_count: 0,
        }
    }

    /// The session start the scan is anchored at.
    pub fn start(&self) -> Micros {
        self.start
    }

    /// True once no further update can change [`result`](Self::result).
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Folds in the next update of the stream (arrival order).
    pub fn push<U: UpdateNlri>(&mut self, time: Micros, update: &U, config: &MctConfig) {
        match self.phase {
            Phase::Scan => self.scan(time, update, config),
            Phase::Tail => {
                if self.end.is_some_and(|end| time > end) {
                    self.finish();
                    return;
                }
                self.seen.extend(update.announced().map(|p| packed(&p)));
                self.prefix_count = self.seen.len();
            }
            Phase::Done => {}
        }
    }

    fn scan<U: UpdateNlri>(&mut self, time: Micros, update: &U, config: &MctConfig) {
        if update.carries_no_nlri() {
            return; // keepalive-equivalent / attribute-only updates
        }
        if time - self.last_time > config.max_gap {
            self.stop();
            return;
        }
        self.counted += 1;
        self.announced.clear();
        self.announced
            .extend(update.announced().map(|p| packed(&p)));
        let new = self
            .announced
            .iter()
            .filter(|p| !self.seen.contains(*p))
            .count();
        let dup_frac = 1.0 - new as f64 / self.announced.len().max(1) as f64;
        self.seen.extend(self.announced.iter().copied());
        self.last_time = time;
        if new > 0 && dup_frac <= config.dup_tolerance {
            self.end = Some(time);
            self.update_count = self.counted;
            self.dup_run = 0;
            self.prefix_count = self.seen.len();
        } else {
            // A rejected update sharing the current end's timestamp is
            // still inside the transfer period, so its prefixes belong
            // in the distinct count.
            if self.end.is_some_and(|end| time <= end) {
                self.prefix_count = self.seen.len();
            }
            self.dup_run += 1;
            if self.dup_run >= config.max_dup_run {
                self.stop();
            }
        }
    }

    /// Leaves the scan phase: updates past an early break can still
    /// share the end timestamp, so a found end moves to the tail.
    fn stop(&mut self) {
        if self.end.is_some() {
            self.phase = Phase::Tail;
            self.announced = Vec::new();
        } else {
            self.finish();
        }
    }

    fn finish(&mut self) {
        self.phase = Phase::Done;
        self.seen = PackedSet::default();
        self.announced = Vec::new();
    }

    /// The transfer as estimated from the updates pushed so far; `None`
    /// until an update grows the table.
    pub fn result(&self) -> Option<TableTransfer> {
        Some(TableTransfer {
            span: Span::new(self.start, self.end?),
            update_count: self.update_count,
            prefix_count: self.prefix_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PathAttribute;
    use crate::table::TableGenerator;

    fn stream_of(table: &crate::RoutingTable, spacing_ms: i64) -> Vec<(Micros, UpdateMessage)> {
        table
            .to_updates()
            .into_iter()
            .enumerate()
            .map(|(i, u)| (Micros::from_millis(spacing_ms * i as i64), u))
            .collect()
    }

    #[test]
    fn clean_transfer_detected_exactly() {
        let table = TableGenerator::new(2).routes(400).generate();
        let stream = stream_of(&table, 5);
        let t = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
        assert_eq!(t.prefix_count, 400);
        assert_eq!(t.update_count, stream.len());
        assert_eq!(t.span.end, stream.last().unwrap().0);
    }

    #[test]
    fn long_gap_ends_transfer() {
        let table = TableGenerator::new(3).routes(400).generate();
        let mut stream = stream_of(&table, 5);
        // Push the second half two minutes into the future.
        let half = stream.len() / 2;
        let expected_end = stream[half - 1].0;
        for entry in &mut stream[half..] {
            entry.0 += Micros::from_secs(120);
        }
        let t = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
        assert_eq!(t.span.end, expected_end);
        assert!(t.prefix_count < 400);
    }

    #[test]
    fn gap_within_tolerance_is_kept() {
        // Timer gaps of hundreds of ms (the paper's Fig. 5) must not
        // split a transfer.
        let table = TableGenerator::new(4).routes(300).generate();
        let mut stream = stream_of(&table, 5);
        let half = stream.len() / 2;
        for entry in &mut stream[half..] {
            entry.0 += Micros::from_millis(400);
        }
        let t = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
        assert_eq!(t.update_count, stream.len());
    }

    #[test]
    fn churn_after_transfer_excluded() {
        let table = TableGenerator::new(5).routes(200).generate();
        let mut stream = stream_of(&table, 5);
        let end = stream.last().unwrap().0;
        // Steady-state churn: re-announce old prefixes within max_gap so
        // only the duplicate heuristic can reject them.
        for i in 0..10 {
            let update = stream[i].1.clone();
            stream.push((end + Micros::from_secs(30 + i as i64), update));
        }
        let t = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
        assert_eq!(t.span.end, end);
        assert_eq!(t.prefix_count, 200);
    }

    #[test]
    fn empty_or_silent_stream_yields_none() {
        assert_eq!(
            find_transfer_end(Micros::ZERO, &[], &MctConfig::default()),
            None
        );
        let silent = vec![(
            Micros::from_secs(1),
            UpdateMessage::announce(vec![PathAttribute::Med(1)], vec![]),
        )];
        assert_eq!(
            find_transfer_end(Micros::ZERO, &silent, &MctConfig::default()),
            None
        );
    }

    #[test]
    fn retransmitted_duplicates_inside_transfer_tolerated() {
        let table = TableGenerator::new(6).routes(300).generate();
        let mut stream = stream_of(&table, 5);
        // Duplicate a few updates mid-transfer (as TCP retransmission
        // artifacts appear after pcap2bgp reconstruction).
        let dup = stream[10].clone();
        stream.insert(11, (dup.0 + Micros::from_millis(1), dup.1));
        let t = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
        assert_eq!(t.prefix_count, 300);
        assert_eq!(t.span.end, stream.last().unwrap().0);
    }
}
