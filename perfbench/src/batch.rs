//! `batch_corpus`: `t-dat --json` over one merged capture of the
//! three-dataset transfer corpus.

use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tdat::{Analyzer, AnalyzerConfig, BgpDemux, Report, StreamAnalyzer, StreamOptions};
use tdat_bench::Corpus;
use tdat_packet::{PcapReader, PcapWriter, TcpFrame};
use tdat_trace::{ConnectionTracker, FinalizedConnection, TrackerConfig};

use crate::common::{median, quantile, rel, Digest, Outcome, Spans, WorkDir, Yardsticks};
use crate::layers::{second_pass, LayerCounts, Period};
use crate::Args;

/// Corpus scale and base table size: 272 transfers at scale 1.0.
const SCALE: f64 = 1.0;
const ROUTES: usize = 8_000;
/// Input generations per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The options `t-dat` runs with by default: the pooled driver, one
/// worker per core.
fn cli_options() -> StreamOptions {
    StreamOptions {
        workers: 0,
        tracker: TrackerConfig::batch(),
        shards: 0,
    }
}

/// The options the untraced run measures: `t-dat --workers 1`, the
/// serial inline driver. On a 2-vCPU shared host the pooled driver's
/// reader and two workers contend with the host's other tenants for
/// the two CPUs: within one run its passes took 0.63-1.14 s, the
/// serial driver's 0.63-0.79 s. `core.pool_speedup` still compares the
/// two drivers.
fn measured_options() -> StreamOptions {
    StreamOptions {
        workers: 1,
        ..cli_options()
    }
}

/// Generates the corpus, gives every transfer its own endpoints, merges
/// the transfers by time and writes them to `path`. Returns the capture
/// size and its digest.
pub fn write_capture(seed: u64, path: &Path) -> std::io::Result<(u64, u64)> {
    let corpus = Corpus::generate(seed, SCALE, ROUTES);
    let mut frames: Vec<TcpFrame> = Vec::new();
    for (i, transfer) in corpus.transfers.into_iter().enumerate() {
        let Some(first) = transfer.frames.first() else {
            continue;
        };
        // Every simulated transfer uses the same two addresses; give
        // each its own pair so the merged capture holds one connection
        // per transfer.
        let (x, y) = (first.ip.src, first.ip.dst);
        let hi = (i >> 8) as u8;
        let lo = i as u8;
        let rewrite = |ip: Ipv4Addr| {
            if ip == x {
                Ipv4Addr::new(10, 100 + hi, lo, 1)
            } else if ip == y {
                Ipv4Addr::new(172, 16 + hi, lo, 2)
            } else {
                ip
            }
        };
        for mut frame in transfer.frames {
            frame.ip.src = rewrite(frame.ip.src);
            frame.ip.dst = rewrite(frame.ip.dst);
            frames.push(frame);
        }
    }
    frames.sort_by_key(|f| f.timestamp);
    let mut pcap = Vec::new();
    {
        let mut writer = PcapWriter::new(&mut pcap).map_err(std::io::Error::other)?;
        for frame in &frames {
            writer.write_frame(frame).map_err(std::io::Error::other)?;
        }
        writer.flush().map_err(std::io::Error::other)?;
    }
    let mut digest = Digest::default();
    digest.eat(&pcap);
    std::fs::write(path, &pcap)?;
    Ok((pcap.len() as u64, digest.0))
}

/// One `t-dat --json` run: every connection's report rendered.
fn reports(engine: &StreamAnalyzer, path: &Path) -> Result<Vec<String>, tdat::Error> {
    let config = engine.analyzer().config();
    Ok(engine
        .analyze_pcap(path)?
        .iter()
        .map(|a| Report::from_analysis(a, config).to_json())
        .collect())
}

/// The reference: the materializing batch analyzer over the same file.
fn reference(path: &Path) -> Result<Vec<String>, tdat::Error> {
    let frames = tdat_packet::read_pcap_file(path)?;
    let analyzer = Analyzer::new(AnalyzerConfig::default());
    Ok(analyzer
        .analyze_frames(&frames)
        .iter()
        .map(|a| Report::from_analysis(a, analyzer.config()).to_json())
        .collect())
}

fn check(outcome: &mut Outcome, got: &[String], want: &[String]) {
    for i in 0..got.len().max(want.len()) {
        outcome.check(got.get(i).is_some() && got.get(i) == want.get(i));
    }
}

pub fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let work = WorkDir::create("batch")?;
    let path: PathBuf = work.path().join("corpus.pcap");
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut size = 0;
    for _ in 0..SETUPS {
        let started = Instant::now();
        (size, outcome.inputs_digest) = write_capture(args.seed, &path)?;
        setups.push(started.elapsed().as_secs_f64());
    }
    let options = measured_options();
    outcome.config = format!("{options:?} {:?}", AnalyzerConfig::default());
    let engine = StreamAnalyzer::with_options(AnalyzerConfig::default(), options);

    if args.trace {
        return traced(&path, outcome);
    }

    let want = reference(&path)?;
    // One untimed pass first: page cache, allocator and thread
    // start-up. The peak covers it, so it also counts the pages the
    // allocator keeps for the timed passes.
    let mut sticks = Yardsticks::start();
    std::hint::black_box(reports(&engine, &path)?);
    // One pass is one `t-dat --json` run: the user waits for all of it.
    let mut walls = Vec::new();
    let run_started = Instant::now();
    while walls.is_empty() || run_started.elapsed() < args.seconds {
        let started = Instant::now();
        let got = reports(&engine, &path)?;
        let wall = started.elapsed();
        walls.push(wall.as_secs_f64());
        sticks.after_pass(wall);
        check(&mut outcome, &got, &want);
    }
    let peak = sticks.peak_rss();
    eprintln!(
        "batch_corpus: {} passes, {} connections, {:.1} MB",
        walls.len(),
        want.len(),
        size as f64 / 1e6
    );
    let mb = size as f64 / 1e6;
    let relative = rel(&walls, &sticks, |wall| *wall);
    outcome.push("latency_p50_rel", median(&relative), "ratio");
    outcome.push("latency_p90_rel", quantile(&relative, 0.9), "ratio");
    outcome.push(
        "input_mb_per_yardstick",
        median(&relative.iter().map(|r| mb / r).collect::<Vec<_>>()),
        "MB",
    );
    outcome.push("peak_rss_mb", peak as f64 / 1e6, "MB");
    outcome.note("latency_p50_ms", median(&walls) * 1e3, "ms");
    outcome.note("latency_p90_ms", quantile(&walls, 0.9) * 1e3, "ms");
    outcome.note("input_mb_per_s", mb / median(&walls), "MB/s");
    outcome.note("yardstick_ms", sticks.median() * 1e3, "ms");
    outcome.push("setup_s", median(&setups), "s");
    Ok(outcome)
}

/// Wall seconds of one untraced run of `engine` over the capture,
/// rendering each report as its connection finishes, as the traced
/// pipeline does.
fn timed(engine: &StreamAnalyzer, path: &Path) -> Result<f64, tdat::Error> {
    let config = engine.analyzer().config();
    let started = Instant::now();
    engine.analyze_pcap_with(path, |a| {
        std::hint::black_box(Report::from_analysis(&a, config).to_json());
    })?;
    Ok(started.elapsed().as_secs_f64())
}

/// Per-layer run: the inline driver re-composed from the layer crates,
/// plus the serial-vs-pooled driver comparison.
fn traced(path: &Path, mut outcome: Outcome) -> Result<Outcome, Box<dyn std::error::Error>> {
    let config = AnalyzerConfig::default();
    let serial = StreamAnalyzer::with_options(config.clone(), measured_options());
    let pooled = StreamAnalyzer::with_options(config.clone(), cli_options());
    let (mut serial_s, mut pooled_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        serial_s.push(timed(&serial, path)?);
        pooled_s.push(timed(&pooled, path)?);
    }

    let want = reference(path)?;
    let mut spans = Spans::default();
    let mut counts = LayerCounts::default();
    let (mut frames, mut bytes, mut connections, mut messages, mut unparsed) = (0u64, 0, 0, 0, 0);
    let analyzer = Analyzer::new(config.clone());
    let mut got = Vec::new();
    let mut side = Duration::ZERO;
    let mut finalize = |fin: FinalizedConnection, demux: &mut BgpDemux, spans: &mut Spans| {
        let extraction = spans.time("pcap2bgp.take_s", || {
            demux.take(fin.key, fin.connection.sender)
        });
        connections += 1;
        messages += extraction.messages.len() as u64;
        unparsed += extraction.unparsed_bytes;
        let aside = Instant::now();
        let conn = fin.connection.clone();
        second_pass(
            &conn,
            &extraction,
            Period::Transfer,
            &config,
            spans,
            &mut counts,
        );
        side += aside.elapsed();
        let analysis = spans.time("core.analyze_s", || {
            analyzer.analyze_extracted(fin.connection, &extraction)
        });
        got.push(spans.time("core.report_s", || {
            Report::from_analysis(&analysis, analyzer.config()).to_json()
        }));
        // Freeing the analysis and the decoded messages is part of
        // each layer's cost in the inline driver too.
        spans.time("core.analyze_s", || drop(analysis));
        spans.time("pcap2bgp.take_s", || drop(extraction));
    };

    let started = Instant::now();
    let mut reader = PcapReader::open(path)?;
    let mut tracker = ConnectionTracker::new(TrackerConfig::batch());
    let mut demux = BgpDemux::new();
    loop {
        let t = Instant::now();
        let view = reader.next_view()?;
        spans.add("packet.decode_s", t.elapsed());
        let Some(frame) = view else { break };
        frames += 1;
        bytes += 14 + u64::from(frame.ip.total_len);
        spans.time("pcap2bgp.feed_s", || demux.feed(&frame));
        for fin in spans.time("trace.ingest_s", || tracker.ingest(&frame)) {
            finalize(fin, &mut demux, &mut spans);
        }
    }
    for fin in spans.time("trace.ingest_s", || tracker.finish()) {
        finalize(fin, &mut demux, &mut spans);
    }
    let wall = (started.elapsed() - side).as_secs_f64();
    check(&mut outcome, &got, &want);

    let stages = [
        "packet.decode_s",
        "pcap2bgp.feed_s",
        "trace.ingest_s",
        "pcap2bgp.take_s",
        "core.analyze_s",
        "core.report_s",
    ];
    let accounted: f64 = stages.iter().map(|s| spans.get(s)).sum();
    let unaccounted = 1.0 - accounted / wall;
    eprintln!("batch_corpus traced: wall {wall:.3} s, named stages {accounted:.3} s");
    // The layer-coverage check: one more op, failed when the stage
    // list misses a layer.
    outcome.check(unaccounted <= 0.10);
    for name in stages.iter().chain(&[
        "bgp.mct_s",
        "core.label_s",
        "core.shift_s",
        "core.series_s",
        "core.factors_s",
        "core.detect_s",
    ]) {
        outcome.push(name, spans.get(name), "s");
    }
    outcome.push("packet.frames", frames as f64, "count");
    outcome.push("packet.bytes", bytes as f64, "bytes");
    outcome.push("trace.connections", connections as f64, "count");
    outcome.push("pcap2bgp.messages", messages as f64, "count");
    outcome.push("pcap2bgp.unparsed_bytes", unparsed as f64, "bytes");
    outcome.push(
        "bgp.updates_used_share",
        counts.updates_used as f64 / messages.max(1) as f64,
        "ratio",
    );
    outcome.push(
        "core.pool_speedup",
        median(&serial_s) / median(&pooled_s),
        "ratio",
    );
    outcome.push("trace_overhead", wall / median(&serial_s), "ratio");
    outcome.push("batch.unaccounted_share", unaccounted, "ratio");
    Ok(outcome)
}
