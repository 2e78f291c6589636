//! Engine-level identity of the carried MCT scan: a monitor whose
//! refreshes fold only each tick's new UPDATEs into a per-connection
//! [`tdat_bgp::MctScan`] must report, at every tick, the same table
//! transfer (span, update count, prefix count) as the `recompute_all`
//! engine, which rescans each connection's whole history every tick.
//!
//! Inputs: every `scenario_matrix(1)` capture, clean and under both
//! chaos presets, at 1 and 2 shards; plus lifecycle fixtures that make
//! carried state go stale — sender re-election, LRU eviction, and a
//! connection key reused after finalization. Throughout, the carried
//! map may hold no more entries than there are open connections.

use std::net::Ipv4Addr;

use tdat_bgp::{TableGenerator, TableTransfer};
use tdat_monitor::{
    AttributedAnomaly, MonitorConfig, ShardedMonitor, TrackerConfig, DEFAULT_SOURCE,
};
use tdat_oracle::{scenario_capture, scenario_matrix};
use tdat_packet::{FrameBuilder, LossyReader, TcpFlags, TcpFrame, TcpOption};
use tdat_tcpsim::chaos::{apply_chaos, ChaosSpec};
use tdat_timeset::Micros;
use tdat_trace::ConnKey;

/// One input step: a frame, or an anomaly attributed the way
/// `FollowSource` attributes it.
enum Step {
    Frame(TcpFrame),
    Anomaly(AttributedAnomaly),
}

fn frames(frames: &[TcpFrame]) -> Vec<Step> {
    frames.iter().cloned().map(Step::Frame).collect()
}

/// A damaged capture (pcap bytes) read back through the lossy reader.
fn lossy(bytes: &[u8]) -> Vec<Step> {
    let mut reader = LossyReader::new(bytes).expect("chaos output has a valid header");
    let mut steps = Vec::new();
    while let Some(lossy) = reader.next_lossy().expect("lossy reader survives damage") {
        let key = match &lossy.frame {
            Some(frame) => Some(ConnKey::of(frame)),
            None => lossy.endpoints.map(|(x, y)| ConnKey::of_endpoints(x, y)),
        };
        for anomaly in lossy.anomalies {
            steps.push(Step::Anomaly(AttributedAnomaly { key, anomaly }));
        }
        steps.extend(lossy.frame.map(Step::Frame));
    }
    steps
}

type Transfers = Vec<(String, String, Option<TableTransfer>)>;

/// The transfers at every tick boundary the input crosses, then after
/// a final advance, plus the JSONL event stream.
#[derive(Debug, PartialEq)]
struct Observed {
    ticks: Vec<Transfers>,
    events: Vec<String>,
}

fn observe(steps: &[Step], config: MonitorConfig, recompute_all: bool) -> Observed {
    let interval = config.interval;
    let mut monitor = ShardedMonitor::new(MonitorConfig {
        recompute_all,
        ..config
    });
    let id = monitor.register_source(DEFAULT_SOURCE);
    let mut ticks = Vec::new();
    let mut boundary: Option<Micros> = None;
    let mut last = Micros::ZERO;
    let read = |monitor: &mut ShardedMonitor, ticks: &mut Vec<Transfers>| {
        let carried = monitor.carried_scans();
        let open = monitor.open_connections();
        assert!(
            carried <= open,
            "{carried} carried scans for {open} open connections"
        );
        ticks.push(monitor.snapshot_transfers());
    };
    for step in steps {
        match step {
            Step::Anomaly(anomaly) => monitor.note_anomaly_from(id, anomaly.clone()),
            Step::Frame(frame) => {
                last = last.max(frame.timestamp);
                monitor.ingest_owned(id, frame.clone());
                // The engine schedules its first tick one interval
                // after the first frame; read at every boundary crossed.
                let next = boundary.get_or_insert(frame.timestamp + interval);
                while last >= *next {
                    read(&mut monitor, &mut ticks);
                    *next += interval;
                }
            }
        }
    }
    monitor.advance_to(last + interval);
    read(&mut monitor, &mut ticks);
    monitor.finish();
    assert_eq!(
        monitor.carried_scans(),
        0,
        "finish drops every carried scan"
    );
    let events = monitor
        .drain_events()
        .iter()
        .map(|e| e.to_json_v2())
        .collect();
    Observed { ticks, events }
}

/// Compares the carried engine with the rescanning one on `steps` and
/// returns how many tick readings held an estimate.
fn assert_carried_matches_rescan(what: &str, steps: &[Step], config: &MonitorConfig) -> usize {
    let carried = observe(steps, config.clone(), false);
    let rescan = observe(steps, config.clone(), true);
    assert_eq!(
        carried.ticks.len(),
        rescan.ticks.len(),
        "{what}: tick count"
    );
    for (tick, (a, b)) in carried.ticks.iter().zip(&rescan.ticks).enumerate() {
        assert_eq!(a, b, "{what}: transfers diverge at tick {tick}");
    }
    assert_eq!(
        carried.events, rescan.events,
        "{what}: event streams diverge"
    );
    carried
        .ticks
        .iter()
        .flatten()
        .filter(|(_, _, t)| t.is_some())
        .count()
}

/// About 16 ticks across the capture, so estimates are read while the
/// transfer is still growing (never longer than the window, which a
/// chaos-stretched capture would otherwise exceed).
fn config_for(steps: &[Step], shards: usize) -> MonitorConfig {
    let times = steps.iter().filter_map(|s| match s {
        Step::Frame(f) => Some(f.timestamp),
        Step::Anomaly(_) => None,
    });
    let (lo, hi) = times.fold((Micros(i64::MAX), Micros(i64::MIN)), |(lo, hi), t| {
        (lo.min(t), hi.max(t))
    });
    MonitorConfig::builder()
        .window(Micros::from_secs(60))
        .interval(Micros(((hi - lo).0 / 16).clamp(1_000, 60_000_000)))
        .shards(shards)
        .build()
        .expect("valid config")
}

#[test]
fn carried_transfers_match_rescan_on_the_oracle_matrix() {
    let mut estimates = 0;
    for sc in scenario_matrix(1) {
        let steps = frames(&scenario_capture(&sc));
        for shards in [1, 2] {
            let what = format!("{} at {shards} shard(s)", sc.name);
            estimates += assert_carried_matches_rescan(&what, &steps, &config_for(&steps, shards));
        }
    }
    assert!(estimates > 100, "too few estimates to compare: {estimates}");
}

#[test]
fn carried_transfers_match_rescan_under_chaos() {
    let mut estimates = 0;
    for sc in scenario_matrix(1) {
        let capture = scenario_capture(&sc);
        for (mode, spec) in [
            ("survivable", ChaosSpec::survivable(sc.seed)),
            ("poison", ChaosSpec::poison(sc.seed)),
        ] {
            let (bytes, _) = apply_chaos(&capture, &spec);
            let steps = lossy(&bytes);
            for shards in [1, 2] {
                let what = format!("{}+{mode} at {shards} shard(s)", sc.name);
                estimates +=
                    assert_carried_matches_rescan(&what, &steps, &config_for(&steps, shards));
            }
        }
    }
    assert!(estimates > 100, "too few estimates to compare: {estimates}");
}

/// `routes` of a generated table as the UPDATE byte stream, cut into
/// MSS-sized segments.
fn table_segments(seed: u64, routes: usize) -> Vec<Vec<u8>> {
    TableGenerator::new(seed)
        .routes(routes)
        .generate()
        .to_update_stream()
        .chunks(1448)
        .map(<[u8]>::to_vec)
        .collect()
}

/// Data segments from `from` to `to` starting at `seq`, one every
/// `spacing` microseconds from `t0`; returns the next sequence number.
fn data(
    out: &mut Vec<TcpFrame>,
    (from, from_port): (Ipv4Addr, u16),
    (to, to_port): (Ipv4Addr, u16),
    mut seq: u32,
    t0: i64,
    spacing: i64,
    segments: &[Vec<u8>],
) -> u32 {
    for (i, payload) in segments.iter().enumerate() {
        out.push(
            FrameBuilder::new(from, to)
                .at(Micros(t0 + i as i64 * spacing))
                .ports(from_port, to_port)
                .seq(seq)
                .ack_to(1)
                .payload(payload.clone())
                .build(),
        );
        seq = seq.wrapping_add(payload.len() as u32);
    }
    seq
}

fn handshake(out: &mut Vec<TcpFrame>, a: (Ipv4Addr, u16), b: (Ipv4Addr, u16), t: i64) {
    out.push(
        FrameBuilder::new(a.0, b.0)
            .at(Micros(t))
            .ports(a.1, b.1)
            .seq(0)
            .flags(TcpFlags::SYN)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
    );
    out.push(
        FrameBuilder::new(b.0, a.0)
            .at(Micros(t + 100))
            .ports(b.1, a.1)
            .seq(0)
            .ack_to(1)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
    );
}

fn lifecycle_config(max_connections: Option<usize>) -> MonitorConfig {
    MonitorConfig::builder()
        .window(Micros::from_secs(120))
        .interval(Micros::from_secs(1))
        .tracker(TrackerConfig {
            idle_timeout: None,
            max_connections,
            ..TrackerConfig::default()
        })
        .build()
        .expect("valid config")
}

fn assert_lifecycle(what: &str, steps: &[Step], config: MonitorConfig) {
    for shards in [1, 2] {
        let config = MonitorConfig {
            shards,
            ..config.clone()
        };
        let estimates =
            assert_carried_matches_rescan(&format!("{what} at {shards} shard(s)"), steps, &config);
        assert!(estimates > 0, "{what}: no estimate to compare");
    }
}

/// The `eviction_cache.rs` sender-flip shape, carrying BGP both ways:
/// Y's table leads the byte count, X overtakes, then Y takes the lead
/// back — the elected sender flips twice, and each flip must restart
/// the scan on the other direction's stream.
#[test]
fn sender_re_election_restarts_the_carried_scan() {
    let x = (Ipv4Addr::new(10, 9, 0, 1), 179);
    let y = (Ipv4Addr::new(10, 9, 0, 2), 40000);
    let y_table = table_segments(3, 6_000);
    let x_table = table_segments(4, 4_000);
    let (y_first, y_rest) = y_table.split_at(y_table.len() / 3);
    let mut out = Vec::new();
    handshake(&mut out, x, y, 0);
    let y_seq = data(&mut out, y, x, 1, 1_000, 100_000, y_first);
    let t = 2_000 + y_first.len() as i64 * 100_000;
    data(&mut out, x, y, 1, t, 100_000, &x_table);
    let t = t + 1_000 + x_table.len() as i64 * 100_000;
    data(&mut out, y, x, y_seq, t, 100_000, y_rest);
    let steps = frames(&out);
    assert_lifecycle("sender flip", &steps, lifecycle_config(None));

    // The fixture must really flip the election twice.
    let mut monitor = ShardedMonitor::new(lifecycle_config(None));
    let id = monitor.register_source(DEFAULT_SOURCE);
    let mut senders: Vec<String> = Vec::new();
    for frame in out {
        let at = frame.timestamp;
        monitor.ingest_owned(id, frame);
        monitor.advance_to(at);
        for (_, session, _) in monitor.snapshot_transfers() {
            if senders.last() != Some(&session) {
                senders.push(session);
            }
        }
    }
    assert_eq!(senders.len(), 3, "elected senders over time: {senders:?}");
}

/// Twelve staggered transfers through a cap-4 tracker: each new session
/// LRU-evicts the oldest one mid-transfer, and evicted sessions send
/// more later, reopening their key as a fresh (mid-stream) connection.
#[test]
fn lru_eviction_drops_carried_scans() {
    let mut out = Vec::new();
    let mut resumes = Vec::new();
    for i in 0..12u8 {
        let a = (Ipv4Addr::new(10, 1, i, 1), 179);
        let b = (Ipv4Addr::new(10, 1, i, 2), 40000);
        let t0 = i64::from(i) * 3_000_000;
        handshake(&mut out, a, b, t0);
        let segments = table_segments(u64::from(i), 1_500);
        let (head, tail) = segments.split_at(segments.len() / 2);
        let seq = data(&mut out, a, b, 1, t0 + 1_000, 100_000, head);
        resumes.push((a, b, seq, tail.to_vec()));
    }
    let mut t = 40_000_000;
    for (a, b, seq, tail) in resumes.iter().step_by(3) {
        data(&mut out, *a, *b, *seq, t, 50_000, tail);
        t += 1_000 + tail.len() as i64 * 50_000;
    }
    out.sort_by_key(|f| f.timestamp);
    assert_lifecycle("lru eviction", &frames(&out), lifecycle_config(Some(4)));
}

/// A session closes (FIN both ways, then the close grace expires) and
/// a new session on the same 4-tuple transfers a different table: the
/// new connection must not inherit the old one's scan.
#[test]
fn key_reuse_after_finalize_starts_a_fresh_scan() {
    let a = (Ipv4Addr::new(10, 7, 0, 1), 179);
    let b = (Ipv4Addr::new(10, 7, 0, 2), 40000);
    let mut out = Vec::new();
    handshake(&mut out, a, b, 0);
    let first = table_segments(7, 1_200);
    let seq = data(&mut out, a, b, 1, 1_000, 50_000, &first);
    let t = 1_000 + first.len() as i64 * 50_000;
    for (from, to, s) in [(a, b, seq), (b, a, 1)] {
        out.push(
            FrameBuilder::new(from.0, to.0)
                .at(Micros(t))
                .ports(from.1, to.1)
                .seq(s)
                .ack_to(1)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .build(),
        );
    }
    // Past the 5 s close grace, a bystander session's frame sweeps the
    // closed one out (a sweep never finalizes the frame's own key).
    handshake(
        &mut out,
        (Ipv4Addr::new(10, 7, 1, 1), 179),
        (Ipv4Addr::new(10, 7, 1, 2), 40000),
        t + 6_000_000,
    );
    let t = t + 8_000_000;
    handshake(&mut out, a, b, t);
    let second = table_segments(8, 2_000);
    data(&mut out, a, b, 1, t + 1_000, 50_000, &second);
    assert_lifecycle("key reuse", &frames(&out), lifecycle_config(None));
}
