//! `monitor_age` and `monitor_fleet`: closed-loop replays through the
//! live monitor, one frame at a time, with ticks driven at trace-time
//! boundaries by `advance_to`.

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use tdat::{Analyzer, BgpDemux};
use tdat_bench::{generate_transfer, Dataset, Scenario};
use tdat_bgp::BgpMessage;
use tdat_monitor::{EventSchema, MonitorConfig, MonitorEvent, ShardedMonitor};
use tdat_packet::{FrameBuilder, TcpFlags, TcpFrame};
use tdat_timeset::{Micros, Span};
use tdat_trace::{shard_of, ConnectionTracker};

use crate::common::{
    median, ms, per_pass, quantile, rel, splitmix, Digest, Outcome, Spans, Yardsticks,
};
use crate::layers::{second_pass, LayerCounts, Period};
use crate::Args;

/// Input generations per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// One long full-table transfer into an overloaded collector whose
/// stack has the zero-window probe bug.
const AGE_ROUTES: usize = 200_000;
/// Established sessions exchanging keepalives, and for how many ticks.
const FLEET_SESSIONS: usize = 1_000;
const FLEET_TICKS: i64 = 100;
/// Shards of the fleet engine: one per core of the reference host.
const FLEET_SHARDS: usize = 2;

/// Which monitor workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Age,
    Fleet,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Age => "monitor_age",
            Kind::Fleet => "monitor_fleet",
        }
    }

    fn config(self) -> MonitorConfig {
        MonitorConfig {
            interval: Micros::from_secs(1),
            shards: match self {
                Kind::Age => 1,
                Kind::Fleet => FLEET_SHARDS,
            },
            ..MonitorConfig::default()
        }
    }

    /// The reference engine's configuration: full recomputation for
    /// the aging transfer, the serial engine for the fleet.
    fn reference_config(self) -> MonitorConfig {
        match self {
            Kind::Age => MonitorConfig {
                recompute_all: true,
                ..self.config()
            },
            Kind::Fleet => MonitorConfig {
                shards: 1,
                ..self.config()
            },
        }
    }

    pub fn frames(self, seed: u64) -> Vec<TcpFrame> {
        match self {
            Kind::Age => {
                generate_transfer(
                    Dataset::IspAQuagga,
                    0,
                    Scenario::ZeroWindowBug,
                    AGE_ROUTES,
                    seed,
                )
                .frames
            }
            Kind::Fleet => fleet_frames(seed),
        }
    }
}

/// Every session: a handshake in the first second, then one KEEPALIVE
/// from the router and its ACK from the collector in every tick.
///
/// The layout is a route collector on an exchange's peering LAN that
/// opens every session itself. Peers hold consecutive LAN addresses
/// from 10.10.0.2 on, in joining order. The collector's source port is
/// the one Linux `connect()` picks: a keyed-hash start in the default
/// ephemeral range 32768–60999, trying even ports first
/// (`__inet_hash_connect` in net/ipv4/inet_hashtables.c, after RFC 6056
/// §3.3.3–3.3.4). It is modelled as a seeded draw of an even port from
/// that range. In-tick offsets and initial sequence numbers are drawn
/// from the seed too.
fn fleet_frames(seed: u64) -> Vec<TcpFrame> {
    const LAN: u32 = 0x0a0a_0000;
    const EPHEMERAL_LO: u16 = 32_768;
    // The even ports of 32768..=60999.
    const EVEN_EPHEMERAL_PORTS: u64 = 14_116;
    let mut rng = seed ^ 0xf1ee_7000;
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let collector = Ipv4Addr::from(LAN | 1);
    let mut frames = Vec::with_capacity(FLEET_SESSIONS * (3 + 2 * FLEET_TICKS as usize));
    for peer in 0..FLEET_SESSIONS as u32 {
        let router = Ipv4Addr::from(LAN + 2 + peer);
        let port = EPHEMERAL_LO + 2 * (splitmix(&mut rng) % EVEN_EPHEMERAL_PORTS) as u16;
        let offset = (splitmix(&mut rng) % 900_000) as i64;
        let (isn_r, isn_c) = (splitmix(&mut rng) as u32, splitmix(&mut rng) as u32);
        let t0 = Micros(1_000 + offset / 2);
        frames.push(
            FrameBuilder::new(collector, router)
                .ports(port, 179)
                .at(t0)
                .seq(isn_c)
                .flags(TcpFlags::SYN)
                .build(),
        );
        frames.push(
            FrameBuilder::new(router, collector)
                .ports(179, port)
                .at(t0 + Micros(300))
                .seq(isn_r)
                .ack_to(isn_c.wrapping_add(1))
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .build(),
        );
        frames.push(
            FrameBuilder::new(collector, router)
                .ports(port, 179)
                .at(t0 + Micros(600))
                .seq(isn_c.wrapping_add(1))
                .ack_to(isn_r.wrapping_add(1))
                .flags(TcpFlags::ACK)
                .build(),
        );
        let mut seq = isn_r.wrapping_add(1);
        for tick in 1..FLEET_TICKS {
            let t = Micros(tick * 1_000_000 + offset);
            frames.push(
                FrameBuilder::new(router, collector)
                    .ports(179, port)
                    .at(t)
                    .seq(seq)
                    .ack_to(isn_c.wrapping_add(1))
                    .payload(keepalive.clone())
                    .build(),
            );
            seq = seq.wrapping_add(keepalive.len() as u32);
            frames.push(
                FrameBuilder::new(collector, router)
                    .ports(port, 179)
                    .at(t + Micros(400))
                    .seq(isn_c.wrapping_add(1))
                    .ack_to(seq)
                    .flags(TcpFlags::ACK)
                    .build(),
            );
        }
    }
    frames.sort_by_key(|f| f.timestamp);
    frames
}

/// Digest of the frames, and the size of the pcap capture that holds
/// them: what `t-dat-monitor --follow` would read.
fn digest_frames(frames: &[TcpFrame]) -> (u64, u64) {
    const PCAP_HEADER: u64 = 24;
    const RECORD_HEADER: u64 = 16;
    let mut d = Digest::default();
    let mut size = PCAP_HEADER;
    for f in frames {
        let wire = f.to_wire();
        d.eat(&f.timestamp.as_micros().to_le_bytes());
        d.eat(&wire);
        size += RECORD_HEADER + wire.len() as u64;
    }
    (d.0, size)
}

/// What one replay produced and how long it took.
#[derive(Debug, Default)]
struct Pass {
    /// Wall milliseconds of every tick-running `advance_to`.
    tick_ms: Vec<f64>,
    /// Digest of the events drained after each tick, then after
    /// `finish`.
    digests: Vec<u64>,
    events: u64,
    /// Whole replay, ingest and finish included.
    wall: Duration,
    /// Trace time replayed.
    trace: Micros,
    ingest: Duration,
}

/// The monitor's tick work re-done on a tracker and demux the
/// benchmark owns, at the same boundaries, so the layers inside a tick
/// can be timed.
struct Replica {
    tracker: ConnectionTracker,
    demux: BgpDemux,
    analyzer: Analyzer,
    window: Micros,
    spans: Spans,
    counts: LayerCounts,
    segments: u64,
    snapshot_messages: u64,
    /// Wall time spent in the replica, left out of the traced wall.
    side: Duration,
}

impl Replica {
    fn new(config: &MonitorConfig) -> Replica {
        Replica {
            tracker: ConnectionTracker::new(config.tracker),
            demux: BgpDemux::new(),
            analyzer: Analyzer::new(config.analyzer.clone()),
            window: config.window,
            spans: Spans::default(),
            counts: LayerCounts::default(),
            segments: 0,
            snapshot_messages: 0,
            side: Duration::ZERO,
        }
    }

    fn ingest(&mut self, frame: &TcpFrame) {
        let started = Instant::now();
        let Replica {
            tracker,
            demux,
            spans,
            ..
        } = self;
        spans.time("pcap2bgp.feed_s", || demux.feed(frame));
        std::hint::black_box(spans.time("trace.ingest_s", || tracker.ingest(frame)));
        self.side += started.elapsed();
    }

    fn tick(&mut self, at: Micros) {
        let started = Instant::now();
        let window = Span::new(at.saturating_sub(self.window), at);
        for key in self.tracker.take_dirty() {
            let Replica {
                tracker,
                demux,
                analyzer,
                spans,
                counts,
                ..
            } = self;
            let Some(fin) = spans.time("trace.snapshot_s", || tracker.snapshot_of(key)) else {
                continue;
            };
            self.segments += fin.connection.segments.len() as u64;
            let extraction = spans.time("pcap2bgp.snapshot_s", || {
                demux.snapshot(key, fin.connection.sender)
            });
            self.snapshot_messages += extraction.messages.len() as u64;
            second_pass(
                &fin.connection,
                &extraction,
                Period::Window(window),
                analyzer.config(),
                spans,
                counts,
            );
            let analysis = spans.time("core.partial_s", || {
                analyzer.analyze_partial(fin.connection, &extraction, window)
            });
            // The monitor frees both when the tick's cache entry
            // replaces them; that cost belongs to the same layers.
            spans.time("core.partial_s", || drop(analysis));
            spans.time("pcap2bgp.snapshot_s", || drop(extraction));
        }
        self.side += started.elapsed();
    }

    /// Messages decoded by the replica's demux, over every connection
    /// still open.
    fn messages(&self) -> u64 {
        self.tracker
            .snapshot()
            .into_iter()
            .map(|fin| {
                self.demux
                    .snapshot(fin.key, fin.connection.sender)
                    .messages
                    .len() as u64
            })
            .sum()
    }
}

/// Replays `frames` through `engine` with a tick at every whole
/// interval, then finishes. With a replica, its work runs beside the
/// engine's and is timed into its spans.
fn replay(
    engine: &mut ShardedMonitor,
    frames: &[TcpFrame],
    interval: Micros,
    mut replica: Option<&mut Replica>,
) -> Pass {
    let mut pass = Pass::default();
    let collect = |events: Vec<MonitorEvent>, pass: &mut Pass| {
        let lines: Vec<String> = events.iter().map(|e| EventSchema::V1.render(e)).collect();
        pass.events += lines.len() as u64;
        pass.digests.push(Digest::of_lines(&lines));
    };
    let started = Instant::now();
    engine.advance_to(Micros::ZERO);
    let mut next = interval;
    let tick = |at: Micros,
                engine: &mut ShardedMonitor,
                pass: &mut Pass,
                replica: Option<&mut Replica>| {
        if let Some(replica) = replica {
            replica.tick(at);
        }
        let t = Instant::now();
        engine.advance_to(at);
        pass.tick_ms.push(ms(t.elapsed()));
        collect(engine.drain_events(), pass);
    };
    for frame in frames {
        while next <= frame.timestamp {
            tick(next, engine, &mut pass, replica.as_deref_mut());
            next += interval;
        }
        if let Some(replica) = replica.as_deref_mut() {
            replica.ingest(frame);
        }
        let t = Instant::now();
        engine.ingest(frame);
        pass.ingest += t.elapsed();
    }
    tick(next, engine, &mut pass, replica);
    engine.finish();
    collect(engine.drain_events(), &mut pass);
    pass.wall = started.elapsed();
    pass.trace = next;
    pass
}

fn check(outcome: &mut Outcome, got: &Pass, want: &Pass) {
    for i in 0..got.digests.len().max(want.digests.len()) {
        outcome.check(got.digests.get(i).is_some() && got.digests.get(i) == want.digests.get(i));
    }
}

/// Median of a pass's last quarter of ticks over the median of its
/// first quarter.
fn growth(pass: &Pass) -> f64 {
    let ticks = &pass.tick_ms;
    let quarter = (ticks.len() / 4).max(1);
    median(&ticks[ticks.len() - quarter..]) / median(&ticks[..quarter])
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut frames = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        frames = kind.frames(args.seed);
        setups.push(started.elapsed().as_secs_f64());
    }
    let size;
    (outcome.inputs_digest, size) = digest_frames(&frames);
    let config = kind.config();
    outcome.config = format!("{config:?}");
    let interval = config.interval;

    if args.trace {
        return traced(kind, &frames, outcome);
    }

    let mut sticks = Yardsticks::start();
    let mut passes = Vec::new();
    let run_started = Instant::now();
    while passes.is_empty() || run_started.elapsed() < args.seconds {
        let mut engine = ShardedMonitor::new(config.clone());
        let pass = replay(&mut engine, &frames, interval, None);
        sticks.after_pass(pass.wall);
        passes.push(pass);
    }
    let peak = sticks.peak_rss();
    let mut reference = ShardedMonitor::new(kind.reference_config());
    let want = replay(&mut reference, &frames, interval, None);
    for pass in &passes {
        check(&mut outcome, pass, &want);
    }
    eprintln!(
        "{}: {} passes, {} frames, {} ticks and {} events per pass",
        kind.name(),
        passes.len(),
        frames.len(),
        want.tick_ms.len(),
        want.events
    );
    // Events come out at ticks, so a tick's `advance_to` is the
    // result latency.
    let p50 = |p: &Pass| median(&p.tick_ms) / 1e3;
    let p90 = |p: &Pass| quantile(&p.tick_ms, 0.9) / 1e3;
    let wall = |p: &Pass| p.wall.as_secs_f64();
    let mb = size as f64 / 1e6;
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
    outcome.push("peak_rss_mb", peak as f64 / 1e6, "MB");
    outcome.note("latency_p50_ms", per_pass(&passes, p50) * 1e3, "ms");
    outcome.note("latency_p90_ms", per_pass(&passes, p90) * 1e3, "ms");
    outcome.note("input_mb_per_s", mb / per_pass(&passes, wall), "MB/s");
    outcome.note("yardstick_ms", sticks.median() * 1e3, "ms");
    outcome.push("setup_s", median(&setups), "s");
    Ok(outcome)
}

fn traced(
    kind: Kind,
    frames: &[TcpFrame],
    mut outcome: Outcome,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let config = kind.config();
    let interval = config.interval;
    let plain = replay(
        &mut ShardedMonitor::new(config.clone()),
        frames,
        interval,
        None,
    );
    let want = replay(
        &mut ShardedMonitor::new(kind.reference_config()),
        frames,
        interval,
        None,
    );
    check(&mut outcome, &plain, &want);

    let mut replica = Replica::new(&config);
    let pass = replay(
        &mut ShardedMonitor::new(config.clone()),
        frames,
        interval,
        Some(&mut replica),
    );
    check(&mut outcome, &pass, &want);
    let messages = replica.messages();
    let spans = &replica.spans;
    let tick_s: f64 = pass.tick_ms.iter().sum::<f64>() / 1e3;
    // The replica runs serially, so compare it with a serial tick: the
    // sharded fleet engine's own ticks run on two lanes.
    let serial_tick_s = match kind {
        Kind::Age => tick_s,
        Kind::Fleet => want.tick_ms.iter().sum::<f64>() / 1e3,
    };
    let replicated = spans.get("trace.snapshot_s")
        + spans.get("pcap2bgp.snapshot_s")
        + spans.get("core.partial_s");

    for name in [
        "trace.ingest_s",
        "trace.snapshot_s",
        "pcap2bgp.feed_s",
        "pcap2bgp.snapshot_s",
        "bgp.mct_s",
        "core.partial_s",
        "core.label_s",
        "core.shift_s",
        "core.series_s",
        "core.factors_s",
        "core.detect_s",
    ] {
        outcome.push(name, spans.get(name), "s");
    }
    let connections = replica.tracker.open_connections() as u64;
    outcome.push("trace.connections", connections as f64, "count");
    outcome.push("trace.snapshot_segments", replica.segments as f64, "count");
    outcome.push("pcap2bgp.messages", messages as f64, "count");
    outcome.push(
        "pcap2bgp.snapshot_messages",
        replica.snapshot_messages as f64,
        "count",
    );
    outcome.push(
        "pcap2bgp.copy_amplification",
        replica.snapshot_messages as f64 / messages.max(1) as f64,
        "ratio",
    );
    outcome.push(
        "bgp.updates_used_share",
        replica.counts.updates_used as f64 / replica.snapshot_messages.max(1) as f64,
        "ratio",
    );
    outcome.push("monitor.ingest_s", pass.ingest.as_secs_f64(), "s");
    outcome.push("monitor.tick_s", tick_s, "s");
    outcome.push("monitor.other_s", serial_tick_s - replicated, "s");
    outcome.push("monitor.ticks", pass.tick_ms.len() as f64, "count");
    outcome.push("monitor.events", pass.events as f64, "count");
    outcome.push("monitor.tick_growth", growth(&plain), "ratio");
    outcome.push(
        "monitor.realtime_factor",
        plain.trace.as_secs_f64() / plain.wall.as_secs_f64(),
        "ratio",
    );
    if kind == Kind::Fleet {
        let mut per_shard = [0u64; FLEET_SHARDS];
        for key in replica.tracker.open_keys() {
            per_shard[shard_of(&key, FLEET_SHARDS)] += 1;
        }
        let mean = connections as f64 / FLEET_SHARDS as f64;
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        outcome.push("monitor.shard_skew", max / mean.max(1.0), "ratio");
        outcome.push(
            "monitor.shard_speedup",
            want.wall.as_secs_f64() / plain.wall.as_secs_f64(),
            "ratio",
        );
    }
    outcome.push(
        "trace_overhead",
        (pass.wall - replica.side).as_secs_f64() / plain.wall.as_secs_f64(),
        "ratio",
    );
    Ok(outcome)
}
