//! `store_mixed`: a preloaded report store reopened, then sealing
//! record batches interleaved with a fixed query mix.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdat_store::segment::encode_segment;
use tdat_store::{Query, QueryStats, SessionRecord, Snapshot, Store};
use tdat_timeset::Micros;

use crate::common::{
    filesystem_of, median, ms, per_pass, quantile, rel, splitmix, Digest, Outcome, Spans, WorkDir,
    Yardsticks,
};
use crate::Args;

/// The preloaded store: `PRELOAD_SEGMENTS` sealed segments of `BATCH`
/// records each.
const PRELOAD_SEGMENTS: usize = 200;
const BATCH: usize = 500;
/// Rounds in one pass; every pass starts from the preloaded store.
const ROUNDS: usize = 10;
/// Opens before the first pass, on top of the one each pass makes.
const WARM_OPENS: usize = 3;

/// Query classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Group-by aggregate over every record.
    Rollup,
    /// A few hours of records: zone maps prune all but a few segments.
    Window,
    /// A filtered scan of every record, sorted and cut to a page.
    Scan,
}

impl Class {
    fn span_name(self) -> &'static str {
        match self {
            Class::Rollup => "store.query_rollup_s",
            Class::Window => "store.query_window_s",
            Class::Scan => "store.query_scan_s",
        }
    }
}

/// The classes each round runs after its ingest: 13 window queries,
/// 5 scans and 1 rollup. The classes' latencies do not overlap (window
/// under 1 ms, scan under 10 ms, rollup over 25 ms), and every pass runs
/// whole rounds, so the median sits at a fixed rank 73% of the way
/// through the window class and the 90th percentile at a fixed rank
/// 82% of the way through the scan class. The rollup is kept out of
/// the 90th percentile on purpose: its latency is bimodal (about 27 or
/// about 42 ms, changing from call to call within a pass), so a
/// percentile inside the rollup class swings between the modes.
const MIX: [Class; 19] = {
    use Class::{Rollup as R, Scan as S, Window as W};
    [W, W, S, W, W, W, S, W, W, R, W, S, W, W, S, W, W, S, W]
};

/// One scheduled operation.
#[derive(Debug, Clone)]
enum Op {
    Ingest(Vec<SessionRecord>),
    Query { class: Class, text: String },
}

/// The inputs of a run: what to preload and the per-pass schedule.
struct Inputs {
    preload: Vec<SessionRecord>,
    schedule: Vec<Op>,
    /// JSONL bytes of the records the schedule seals.
    sealed_bytes: u64,
    digest: u64,
}

fn inputs(seed: u64) -> Inputs {
    let preload = tdat_store::synth::synth_records(PRELOAD_SEGMENTS * BATCH, seed);
    let first = preload.first().map_or(Micros::ZERO, |r| r.at);
    let last = preload.last().map_or(Micros::ZERO, |r| r.at);
    // Live batches arrive after everything preloaded.
    let mut fresh = tdat_store::synth::synth_records(ROUNDS * BATCH, seed ^ 0x0005_70e1);
    let shift = last - first + Micros::from_secs(60);
    for record in &mut fresh {
        record.at += shift;
        record.span = tdat_timeset::Span::new(record.span.start + shift, record.span.end + shift);
    }
    let mut rng = seed ^ 0x9e4e_7135;
    let (lo, hi) = (first.as_secs_f64() as u64, last.as_secs_f64() as u64);
    let mut schedule = Vec::new();
    let mut batches = fresh.chunks(BATCH);
    for _ in 0..ROUNDS {
        let batch = batches
            .next()
            .map(<[SessionRecord]>::to_vec)
            .unwrap_or_default();
        schedule.push(Op::Ingest(batch));
        for class in MIX {
            let text = match class {
                Class::Rollup => {
                    "group by peer_as,bucket bucket 1h agg count,mean_duration_s".to_string()
                }
                Class::Window => {
                    let from = lo + splitmix(&mut rng) % (hi - lo).max(1);
                    format!(
                        "where at_s >= {from} and at_s < {} group by source agg count,mean_duration_s",
                        from + 6 * 3600
                    )
                }
                Class::Scan => {
                    let min = 200 + splitmix(&mut rng) % 300;
                    format!(
                        "where verdict = quarantined and duration_s > {min} order by duration_s desc limit 50"
                    )
                }
            };
            schedule.push(Op::Query { class, text });
        }
    }
    let sealed_bytes = fresh.iter().map(|r| r.to_json().len() as u64 + 1).sum();
    let mut d = Digest::default();
    for record in preload.iter().chain(&fresh) {
        d.eat(record.to_json().as_bytes());
    }
    for op in &schedule {
        if let Op::Query { text, .. } = op {
            d.eat(text.as_bytes());
        }
    }
    Inputs {
        preload,
        schedule,
        sealed_bytes,
        digest: d.0,
    }
}

/// The preloaded store on disk, restorable to its sealed state.
struct Preloaded {
    dir: std::path::PathBuf,
    manifest: Vec<u8>,
    files: Vec<std::ffi::OsString>,
}

impl Preloaded {
    fn create(
        dir: &Path,
        records: &[SessionRecord],
    ) -> Result<Preloaded, Box<dyn std::error::Error>> {
        let store = Store::create(dir)?;
        for batch in records.chunks(BATCH) {
            store.ingest(batch.to_vec())?;
        }
        Ok(Preloaded {
            dir: dir.to_path_buf(),
            manifest: std::fs::read(dir.join("MANIFEST"))?,
            files: Self::listing(dir)?,
        })
    }

    fn listing(dir: &Path) -> std::io::Result<Vec<std::ffi::OsString>> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            files.push(entry?.file_name());
        }
        Ok(files)
    }

    /// Drops what a pass sealed: back to the preloaded segments.
    fn restore(&self) -> std::io::Result<()> {
        for name in Self::listing(&self.dir)? {
            if !self.files.contains(&name) {
                std::fs::remove_file(self.dir.join(name))?;
            }
        }
        std::fs::write(self.dir.join("MANIFEST"), &self.manifest)
    }
}

/// What one pass produced.
#[derive(Debug, Default)]
struct Pass {
    open: Duration,
    /// Per query op: class, latency in ms, segments visible, and digest.
    queries: Vec<(Class, f64, usize, u64)>,
    /// Per ingest op: latency in ms, or `None` on error.
    ingests: Vec<Option<f64>>,
    failed_queries: u64,
    wall: Duration,
}

/// Per-layer sums of a traced pass.
#[derive(Debug, Default)]
struct Layers {
    spans: Spans,
    stats: QueryStats,
}

fn pass(
    preloaded: &Preloaded,
    schedule: &[Op],
    mut layers: Option<&mut Layers>,
) -> Result<Pass, Box<dyn std::error::Error>> {
    preloaded.restore()?;
    let mut out = Pass::default();
    let started = Instant::now();
    let store = Store::open(&preloaded.dir)?;
    out.open = started.elapsed();
    let mut side = Duration::ZERO;
    for op in schedule {
        match op {
            Op::Ingest(batch) => {
                if let Some(layers) = layers.as_deref_mut() {
                    let aside = Instant::now();
                    std::hint::black_box(
                        layers
                            .spans
                            .time("store.encode_s", || encode_segment(batch)),
                    );
                    side += aside.elapsed();
                }
                let records = batch.clone();
                let t = Instant::now();
                let sealed = store.ingest(records);
                let elapsed = t.elapsed();
                if let Some(layers) = layers.as_deref_mut() {
                    layers.spans.add("store.seal_s", elapsed);
                }
                out.ingests.push(sealed.is_ok().then(|| ms(elapsed)));
            }
            Op::Query { class, text } => {
                let t = Instant::now();
                let parsed = Query::parse(text);
                let parse = t.elapsed();
                let result = parsed.and_then(|q| store.query(&q));
                let elapsed = t.elapsed();
                let visible = store.snapshot().segments.len();
                match result {
                    Ok(output) => {
                        if let Some(layers) = layers.as_deref_mut() {
                            layers.spans.add("store.parse_s", parse);
                            layers.spans.add(class.span_name(), elapsed - parse);
                            let s = &mut layers.stats;
                            s.segments_scanned += output.stats.segments_scanned;
                            s.segments_pruned += output.stats.segments_pruned;
                            s.records_scanned += output.stats.records_scanned;
                            s.records_matched += output.stats.records_matched;
                        }
                        out.queries.push((
                            *class,
                            ms(elapsed),
                            visible,
                            Digest::of_lines(&output.lines),
                        ));
                    }
                    Err(_) => out.failed_queries += 1,
                }
            }
        }
    }
    out.wall = started.elapsed() - side;
    Ok(out)
}

/// Checks every op of `got`: ingests must succeed, and every query must
/// match the same query run against the store reopened from disk, cut
/// to the segments the query saw.
fn check(outcome: &mut Outcome, got: &Pass, expected: &[u64]) {
    for ingest in &got.ingests {
        outcome.check(ingest.is_some());
    }
    for _ in 0..got.failed_queries {
        outcome.check(false);
    }
    for (i, query) in got.queries.iter().enumerate() {
        outcome.check(expected.get(i) == Some(&query.3));
    }
    let missing = expected
        .len()
        .saturating_sub(got.queries.len() + got.failed_queries as usize);
    for _ in 0..missing {
        outcome.check(false);
    }
}

/// Reference digests: the last pass's store reopened from disk, each
/// query run over the segments that were visible when it ran.
fn reference(
    dir: &Path,
    schedule: &[Op],
    got: &Pass,
) -> Result<Vec<u64>, Box<dyn std::error::Error>> {
    let reopened = Store::open(dir)?.snapshot();
    let texts = schedule.iter().filter_map(|op| match op {
        Op::Query { text, .. } => Some(text),
        Op::Ingest(_) => None,
    });
    let mut expected = Vec::new();
    for (text, query) in texts.zip(&got.queries) {
        let visible = query.2.min(reopened.segments.len());
        let snapshot = Snapshot {
            segments: reopened.segments[..visible]
                .iter()
                .map(Arc::clone)
                .collect(),
            generation: visible as u64,
        };
        expected.push(Digest::of_lines(&Query::parse(text)?.run(&snapshot).lines));
    }
    Ok(expected)
}

/// Seconds of each of `WARM_OPENS` opens of the preloaded store.
fn timed_opens(dir: &Path) -> Result<Vec<f64>, tdat_store::StoreError> {
    let mut opens = Vec::new();
    for _ in 0..WARM_OPENS {
        let t = Instant::now();
        std::hint::black_box(Store::open(dir)?);
        opens.push(t.elapsed().as_secs_f64());
    }
    Ok(opens)
}

pub fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let work = WorkDir::create("store")?;
    let dir = work.path().join("store");
    let inputs = inputs(args.seed);
    let mut outcome = Outcome {
        inputs_digest: inputs.digest,
        config: format!(
            "preload {PRELOAD_SEGMENTS}x{BATCH} records, {ROUNDS} rounds of one {BATCH}-record seal and {MIX:?}"
        ),
        store_fs: Some(filesystem_of(work.path())),
        ..Outcome::default()
    };
    let preloaded = Preloaded::create(&dir, &inputs.preload)?;
    drop(inputs.preload);
    let (schedule, sealed_bytes) = (inputs.schedule, inputs.sealed_bytes);

    if args.trace {
        return traced(&preloaded, &schedule, outcome);
    }

    let mut sticks = Yardsticks::start();
    let mut opens = timed_opens(&dir)?;
    let mut passes = Vec::new();
    let run_started = Instant::now();
    while passes.is_empty() || run_started.elapsed() < args.seconds {
        let p = pass(&preloaded, &schedule, None)?;
        sticks.after_pass(p.wall - p.open);
        opens.push(p.open.as_secs_f64());
        passes.push(p);
    }
    let peak = sticks.peak_rss();
    let last = passes.last().ok_or("no pass ran")?;
    let expected = reference(&dir, &schedule, last)?;
    for p in &passes {
        check(&mut outcome, p, &expected);
    }
    let latencies = |p: &Pass| p.queries.iter().map(|q| q.1).collect::<Vec<_>>();
    eprintln!(
        "store_mixed: {} passes of {} queries and {} seals",
        passes.len(),
        last.queries.len(),
        last.ingests.len()
    );
    for class in [Class::Window, Class::Rollup, Class::Scan] {
        let of: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.queries.iter().filter(|q| q.0 == class).map(|q| q.1))
            .collect();
        eprintln!(
            "store_mixed: {class:?} p10 {:.3} p50 {:.3} p90 {:.3} ms",
            quantile(&of, 0.1),
            median(&of),
            quantile(&of, 0.9)
        );
    }
    // A query is the result a reader waits for.
    let p50 = |p: &Pass| median(&latencies(p)) / 1e3;
    let p90 = |p: &Pass| quantile(&latencies(p), 0.9) / 1e3;
    // Records sealed while the query mix runs beside them.
    let wall = |p: &Pass| (p.wall - p.open).as_secs_f64();
    let mb = sealed_bytes as f64 / 1e6;
    outcome.push(
        "latency_p50_rel",
        median(&rel(&passes, &sticks, p50)),
        "ratio",
    );
    outcome.push(
        "latency_p90_rel",
        median(&rel(&passes, &sticks, p90)),
        "ratio",
    );
    let per_yardstick: Vec<f64> = rel(&passes, &sticks, wall).iter().map(|r| mb / r).collect();
    outcome.push("input_mb_per_yardstick", median(&per_yardstick), "MB");
    outcome.note("latency_p50_ms", per_pass(&passes, p50) * 1e3, "ms");
    outcome.note("latency_p90_ms", per_pass(&passes, p90) * 1e3, "ms");
    outcome.note("input_mb_per_s", mb / per_pass(&passes, wall), "MB/s");
    outcome.note("yardstick_ms", sticks.median() * 1e3, "ms");
    outcome.push("peak_rss_mb", peak as f64 / 1e6, "MB");
    outcome.push("setup_s", median(&opens), "s");
    Ok(outcome)
}

fn traced(
    preloaded: &Preloaded,
    schedule: &[Op],
    mut outcome: Outcome,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let plain = pass(preloaded, schedule, None)?;
    let mut layers = Layers::default();
    let mut opens = timed_opens(&preloaded.dir)?;
    let traced = pass(preloaded, schedule, Some(&mut layers))?;
    opens.push(traced.open.as_secs_f64());
    let expected = reference(&preloaded.dir, schedule, &traced)?;
    check(&mut outcome, &plain, &expected);
    check(&mut outcome, &traced, &expected);

    outcome.push("store.open_s", median(&opens), "s");
    for name in [
        "store.seal_s",
        "store.encode_s",
        "store.parse_s",
        "store.query_rollup_s",
        "store.query_window_s",
        "store.query_scan_s",
    ] {
        outcome.push(name, layers.spans.get(name), "s");
    }
    let s = &layers.stats;
    outcome.push("store.segments_scanned", s.segments_scanned as f64, "count");
    outcome.push("store.segments_pruned", s.segments_pruned as f64, "count");
    outcome.push("store.records_scanned", s.records_scanned as f64, "count");
    outcome.push("store.records_matched", s.records_matched as f64, "count");
    outcome.push(
        "store.prune_share",
        s.segments_pruned as f64 / (s.segments_pruned + s.segments_scanned).max(1) as f64,
        "ratio",
    );
    outcome.push(
        "store.match_share",
        s.records_matched as f64 / s.records_scanned.max(1) as f64,
        "ratio",
    );
    outcome.push(
        "trace_overhead",
        traced.wall.as_secs_f64() / plain.wall.as_secs_f64(),
        "ratio",
    );
    Ok(outcome)
}
