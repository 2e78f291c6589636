//! Differential properties of the incremental MCT fold: an [`MctScan`]
//! fed any prefix of an update stream, in any chunking, must report
//! exactly what the whole-stream scan reports over that prefix.
//!
//! The oracle is a test-local copy of the whole-stream scan as it was
//! written before the fold existed (one loop, an early `break`, then a
//! tail loop over the rest of the iterator). Its only addition is a
//! [`Coverage`] tally of which branches a stream reached, so the
//! generator can be shown to reach every one of them.

use std::collections::HashSet;

use proptest::prelude::*;
use tdat_bgp::{
    find_transfer_end_ref, BgpMessage, MctConfig, MctScan, Prefix, TableTransfer, UpdateMessage,
    UpdateNlri, UpdateView,
};
use tdat_timeset::{Micros, Span};

/// Which oracle branches one stream reached.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    /// An NLRI-less update was skipped.
    skipped_nlri_less: bool,
    /// The scan broke on a gap before any NLRI-bearing update counted.
    gap_before_first: bool,
    /// The scan broke on a gap after an end was found.
    gap_after_end: bool,
    /// The duplicate run reached `max_dup_run`.
    dup_run_break: bool,
    /// A rejected update sharing the end timestamp updated the count.
    rejected_at_end: bool,
    /// The tail took an update sharing the end timestamp.
    tail_shared: bool,
    /// A tail update grew the distinct-prefix count.
    tail_grew: bool,
}

/// The pre-fold whole-stream scan, verbatim but for the `cov` tallies.
fn oracle<I, U>(
    start: Micros,
    updates: I,
    config: &MctConfig,
    cov: &mut Coverage,
) -> Option<TableTransfer>
where
    I: IntoIterator<Item = (Micros, U)>,
    U: UpdateNlri,
{
    let packed = |p: &Prefix| (u64::from(u32::from(p.network())) << 8) | u64::from(p.len());
    let mut seen: HashSet<u64> = HashSet::new();
    let mut announced: Vec<u64> = Vec::new();
    let mut end: Option<Micros> = None;
    let mut update_count = 0;
    let mut counted = 0;
    let mut dup_run = 0;
    let mut last_time = start;
    let mut prefix_count = 0;
    let mut iter = updates.into_iter();
    for (time, update) in iter.by_ref() {
        if update.carries_no_nlri() {
            cov.skipped_nlri_less = true;
            continue;
        }
        if time - last_time > config.max_gap {
            cov.gap_before_first |= counted == 0;
            cov.gap_after_end |= end.is_some();
            break;
        }
        counted += 1;
        announced.clear();
        announced.extend(update.announced().map(|p| packed(&p)));
        let new = announced.iter().filter(|p| !seen.contains(*p)).count();
        let dup_frac = 1.0 - new as f64 / announced.len().max(1) as f64;
        seen.extend(announced.iter().copied());
        last_time = time;
        if new > 0 && dup_frac <= config.dup_tolerance {
            end = Some(time);
            update_count = counted;
            dup_run = 0;
            prefix_count = seen.len();
        } else {
            if end.is_some_and(|e| time <= e) {
                cov.rejected_at_end = true;
                prefix_count = seen.len();
            }
            dup_run += 1;
            if dup_run >= config.max_dup_run {
                cov.dup_run_break = true;
                break;
            }
        }
    }
    let end = end?;
    for (time, update) in iter {
        if time > end {
            break;
        }
        cov.tail_shared = true;
        seen.extend(update.announced().map(|p| packed(&p)));
        cov.tail_grew |= seen.len() > prefix_count;
        prefix_count = seen.len();
    }
    Some(TableTransfer {
        span: Span::new(start, end),
        update_count,
        prefix_count,
    })
}

/// One generated stream plus the scan's tuning.
#[derive(Debug, Clone)]
struct Case {
    start: Micros,
    config: MctConfig,
    updates: Vec<(Micros, UpdateMessage)>,
    /// Chunk lengths for the chunked fold (cycled).
    chunks: Vec<usize>,
}

/// A prefix from a pool of `pool` distinct ones: a small pool makes
/// duplicate-heavy updates common.
fn prefix(i: u8) -> Prefix {
    Prefix::new(std::net::Ipv4Addr::new(10, i, 0, 0), 16).expect("valid prefix")
}

/// One update: announced prefixes drawn with replacement (so repeats
/// within one update happen), an optional withdrawal, or nothing.
fn update(pool: u8) -> impl Strategy<Value = UpdateMessage> {
    (
        0u8..8,
        prop::collection::vec(0u8..64, 1..6),
        prop::collection::vec(0u8..64, 0..3),
    )
        .prop_map(move |(shape, announced, withdrawn)| {
            let pick = |v: &[u8]| v.iter().map(|i| prefix(i % pool)).collect::<Vec<_>>();
            match shape {
                // NLRI-less (attribute-only / keepalive-equivalent).
                0 => UpdateMessage::announce(Vec::new(), Vec::new()),
                // Withdrawal only: NLRI-bearing but announces nothing.
                1 => UpdateMessage {
                    withdrawn: pick(&withdrawn).into_iter().take(1).collect(),
                    ..UpdateMessage::announce(Vec::new(), Vec::new())
                },
                _ => UpdateMessage {
                    withdrawn: pick(&withdrawn),
                    ..UpdateMessage::announce(Vec::new(), pick(&announced))
                },
            }
        })
}

/// The step from one update's timestamp to the next: the same instant,
/// a short hop, a step back (non-monotone capture times), or a gap
/// just inside, exactly at, or beyond `max_gap`, forward or back. A
/// `bursty` stream
/// mostly repeats the instant, as the messages framed from one TCP
/// segment do, so updates often share the end timestamp past a break.
fn step(max_gap: i64, bursty: bool) -> impl Strategy<Value = i64> {
    (0u8..10, 0u8..4, 0i64..1_000).prop_map(move |(kind, burst, jitter)| match kind {
        _ if bursty && burst > 0 => 0,
        0 | 1 => 0,
        2 | 3 => 1 + jitter,
        4 => -1 - jitter,
        5 => max_gap - jitter % 3,
        6 => max_gap,
        7 => max_gap + 1 + jitter % 3,
        8 => 2 * max_gap + jitter,
        _ => -2 * max_gap - jitter,
    })
}

fn case() -> impl Strategy<Value = Case> {
    (
        (1_000i64..4_000, 0u8..4, 1usize..6, 2u8..40),
        0usize..48,
        (0u8..4, 0i64..1_000, any::<bool>()),
        prop::collection::vec(1usize..6, 1..8),
        any::<u64>(),
    )
        .prop_map(
            |(
                (max_gap, tol, max_dup_run, pool),
                len,
                (first_kind, first_jitter, bursty),
                chunks,
                seed,
            )| {
                let config = MctConfig {
                    max_gap: Micros(max_gap),
                    dup_tolerance: [0.0, 0.25, 0.5, 1.0][usize::from(tol)],
                    max_dup_run,
                };
                // Draw updates and steps from one deterministic source
                // so each case is a pure function of its inputs.
                let mut rng = proptest::rng_for(&format!("mct-case-{seed}"));
                let start = Micros(1_000_000);
                // The first update may sit within, at, or beyond max_gap
                // of the session start.
                let first = match first_kind {
                    0 => first_jitter,
                    1 => max_gap,
                    2 => max_gap + 1,
                    _ => -first_jitter,
                };
                let mut time = start + Micros(first);
                let updates = (0..len)
                    .map(|i| {
                        if i > 0 {
                            time += Micros(step(max_gap, bursty).generate(&mut rng));
                        }
                        (time, update(pool).generate(&mut rng))
                    })
                    .collect();
                Case {
                    start,
                    config,
                    updates,
                    chunks,
                }
            },
        )
}

/// Feeds `updates` in chunks the way a caller carrying the scan across
/// reads does (stop pushing once done), returning the result read after
/// each chunk along with the number of updates it covers.
fn chunked(case: &Case) -> Vec<(usize, Option<TableTransfer>)> {
    let mut scan = MctScan::new(case.start);
    let mut reads = vec![(0, scan.result())];
    let mut at = 0;
    let mut sizes = case.chunks.iter().cycle();
    while at < case.updates.len() {
        let size = *sizes.next().expect("non-empty chunk list");
        let upto = (at + size).min(case.updates.len());
        for (time, update) in &case.updates[at..upto] {
            if scan.is_done() {
                break;
            }
            scan.push(*time, &update, &case.config);
        }
        at = upto;
        reads.push((at, scan.result()));
    }
    reads
}

fn check(case: &Case) -> Result<Coverage, TestCaseError> {
    let mut cov = Coverage::default();
    let refs = |n: usize| case.updates[..n].iter().map(|(t, u)| (*t, u));

    // After every prefix of the stream, one push at a time.
    let mut scan = MctScan::new(case.start);
    prop_assert_eq!(
        scan.result(),
        oracle(case.start, refs(0), &case.config, &mut cov)
    );
    for (n, (time, update)) in case.updates.iter().enumerate() {
        scan.push(*time, &update, &case.config);
        let want = oracle(case.start, refs(n + 1), &case.config, &mut cov);
        prop_assert_eq!(scan.result(), want, "after {} updates", n + 1);
    }

    // Under the case's chunking, stopping once the scan is done.
    for (n, got) in chunked(case) {
        let want = oracle(case.start, refs(n), &case.config, &mut Coverage::default());
        prop_assert_eq!(got, want, "chunked read after {} updates", n);
    }

    // The whole-stream fold, over owned updates and over wire views.
    let whole = oracle(
        case.start,
        refs(case.updates.len()),
        &case.config,
        &mut Coverage::default(),
    );
    prop_assert_eq!(
        find_transfer_end_ref(case.start, refs(case.updates.len()), &case.config),
        whole.clone()
    );
    let wire: Vec<(Micros, Vec<u8>)> = case
        .updates
        .iter()
        .map(|(t, u)| (*t, BgpMessage::Update(u.clone()).to_bytes()))
        .collect();
    let views = wire
        .iter()
        .map(|(t, bytes)| (*t, UpdateView::new(bytes).expect("encoded update frames")));
    prop_assert_eq!(
        find_transfer_end_ref(case.start, views, &case.config),
        whole
    );
    Ok(cov)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fold_matches_whole_stream_scan_at_every_prefix_and_chunking(case in case()) {
        check(&case)?;
    }
}

/// The generator reaches every oracle branch: otherwise the property
/// above could pass while never exercising the condition it guards.
#[test]
fn generated_streams_reach_every_branch() {
    let mut rng = proptest::rng_for("mct_fold_equivalence::coverage");
    let mut hits = [0usize; 7];
    for _ in 0..512 {
        let cov = check(&case().generate(&mut rng)).expect("fold matches the oracle");
        for (hit, reached) in hits.iter_mut().zip([
            cov.skipped_nlri_less,
            cov.gap_before_first,
            cov.gap_after_end,
            cov.dup_run_break,
            cov.rejected_at_end,
            cov.tail_shared,
            cov.tail_grew,
        ]) {
            *hit += usize::from(reached);
        }
    }
    assert!(
        hits.iter().all(|&n| n >= 25),
        "branch hits too rare: {hits:?}"
    );
}

/// A corner the generator rarely reaches: an update rejected *past* the
/// end still adds its new prefixes to the seen set, and an NLRI-less
/// update sharing the end timestamp after the break moves the distinct
/// count up to include them.
#[test]
fn nlri_less_tail_update_counts_prefixes_rejected_past_the_end() {
    let config = MctConfig {
        max_gap: Micros(1_000),
        dup_tolerance: 0.0,
        max_dup_run: 1,
    };
    let stream = [
        (
            Micros(10),
            UpdateMessage::announce(Vec::new(), vec![prefix(1)]),
        ),
        // Half new: rejected at tolerance 0, breaking the scan (run 1).
        (
            Micros(20),
            UpdateMessage::announce(Vec::new(), vec![prefix(1), prefix(2)]),
        ),
        (Micros(10), UpdateMessage::announce(Vec::new(), Vec::new())),
    ];
    let refs = || stream.iter().map(|(t, u)| (*t, u));
    let want = oracle(Micros::ZERO, refs(), &config, &mut Coverage::default());
    assert_eq!(want.as_ref().map(|t| t.prefix_count), Some(2));
    assert_eq!(find_transfer_end_ref(Micros::ZERO, refs(), &config), want);
}

/// The done phase frees the prefix set and freezes the result.
#[test]
fn done_scan_ignores_later_updates() {
    let config = MctConfig {
        max_gap: Micros(10),
        ..MctConfig::default()
    };
    let a = UpdateMessage::announce(Vec::new(), vec![prefix(1)]);
    let b = UpdateMessage::announce(Vec::new(), vec![prefix(2)]);
    let mut scan = MctScan::new(Micros::ZERO);
    scan.push(Micros(5), &&a, &config);
    // A gap breaks the scan into the tail; a later update ends it.
    scan.push(Micros(100), &&b, &config);
    assert!(!scan.is_done());
    scan.push(Micros(101), &&b, &config);
    assert!(scan.is_done());
    let frozen = scan.result();
    scan.push(Micros(5), &&b, &config);
    assert_eq!(scan.result(), frozen);
    assert_eq!(
        frozen,
        Some(TableTransfer {
            span: Span::new(Micros::ZERO, Micros(5)),
            update_count: 1,
            prefix_count: 1,
        })
    );
}
