//! End-to-end and per-layer benchmark of the T-DAT suite.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_corpus --seed 7 --seconds 10 --trace 0
//! ```
//!
//! One process generates a workload's inputs from the seed, replays
//! them closed-loop through the library surfaces the `t-dat`,
//! `t-dat-monitor` and `t-dat-store` binaries use, checks every output
//! against a reference computed off the clock, and prints one JSON
//! result as its last line of standard output. `--trace 1` re-composes
//! each pipeline from the layer crates' entry points instead and
//! reports per-layer metrics. `--determinism` runs the traced workload
//! twice at the seed and once at the next seed and checks that inputs
//! and counts repeat. See `README.md` beside this file for the
//! workloads and what each metric is expected to move.

mod batch;
mod common;
mod layers;
mod monitor;
mod store;

use std::process::ExitCode;
use std::time::Duration;

use common::{host_json, Outcome};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub determinism: bool,
}

const WORKLOADS: [&str; 4] = [
    "batch_corpus",
    "monitor_age",
    "monitor_fleet",
    "store_mixed",
];

/// The end-to-end metrics every untraced run reports, in the units
/// `BENCHMARK.json` declares. Each workload measures every one of them.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_rel", "ratio"),
    ("latency_p90_rel", "ratio"),
    ("input_mb_per_yardstick", "MB"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run reports. A workload that
/// never enters a layer reports that layer's metrics as 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("packet.decode_s", "s"),
    ("packet.frames", "count"),
    ("packet.bytes", "bytes"),
    ("trace.ingest_s", "s"),
    ("trace.connections", "count"),
    ("trace.snapshot_s", "s"),
    ("trace.snapshot_segments", "count"),
    ("pcap2bgp.feed_s", "s"),
    ("pcap2bgp.take_s", "s"),
    ("pcap2bgp.messages", "count"),
    ("pcap2bgp.unparsed_bytes", "bytes"),
    ("pcap2bgp.snapshot_s", "s"),
    ("pcap2bgp.snapshot_messages", "count"),
    ("pcap2bgp.copy_amplification", "ratio"),
    ("bgp.mct_s", "s"),
    ("bgp.updates_used_share", "ratio"),
    ("core.analyze_s", "s"),
    ("core.partial_s", "s"),
    ("core.label_s", "s"),
    ("core.shift_s", "s"),
    ("core.series_s", "s"),
    ("core.factors_s", "s"),
    ("core.detect_s", "s"),
    ("core.report_s", "s"),
    ("core.pool_speedup", "ratio"),
    ("monitor.ingest_s", "s"),
    ("monitor.tick_s", "s"),
    ("monitor.other_s", "s"),
    ("monitor.ticks", "count"),
    ("monitor.events", "count"),
    ("monitor.tick_growth", "ratio"),
    ("monitor.realtime_factor", "ratio"),
    ("monitor.shard_skew", "ratio"),
    ("monitor.shard_speedup", "ratio"),
    ("store.open_s", "s"),
    ("store.seal_s", "s"),
    ("store.encode_s", "s"),
    ("store.parse_s", "s"),
    ("store.query_rollup_s", "s"),
    ("store.query_window_s", "s"),
    ("store.query_scan_s", "s"),
    ("store.segments_scanned", "count"),
    ("store.segments_pruned", "count"),
    ("store.records_scanned", "count"),
    ("store.records_matched", "count"),
    ("store.prune_share", "ratio"),
    ("store.match_share", "ratio"),
    ("trace_overhead", "ratio"),
    ("batch.unaccounted_share", "ratio"),
];

const USAGE: &str =
    "usage: perfbench --workload <batch_corpus|monitor_age|monitor_fleet|store_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--determinism]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        determinism: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--determinism" => args.determinism = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut outcome = match args.workload.as_str() {
        "batch_corpus" => batch::run(args)?,
        "monitor_age" => monitor::run(monitor::Kind::Age, args)?,
        "monitor_fleet" => monitor::run(monitor::Kind::Fleet, args)?,
        _ => store::run(args)?,
    };
    outcome.metrics = in_manifest_order(&outcome.metrics, args.trace)?;
    Ok(outcome)
}

/// Puts a workload's metrics in the order and units of the manifest.
/// An end-to-end metric the workload did not measure is an error; a
/// layer it did not enter reads 0.
fn in_manifest_order(
    measured: &[common::Metric],
    trace: bool,
) -> Result<Vec<common::Metric>, String> {
    let manifest: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some(extra) = measured
        .iter()
        .find(|m| !manifest.iter().any(|(name, _)| *name == m.name))
    {
        return Err(format!("{} is not in the manifest", extra.name));
    }
    let mut out = Vec::with_capacity(manifest.len());
    for &(name, unit) in manifest {
        let value = match measured.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => {
                return Err(format!("{name} is in {}, not {unit}", m.unit));
            }
            Some(m) => m.value,
            None if trace => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        out.push(common::Metric { name, value, unit });
    }
    Ok(out)
}

/// Metrics that are counts, or ratios of counts, and so must repeat
/// exactly at a seed.
fn is_count(metric: &common::Metric) -> bool {
    matches!(metric.unit, "count" | "bytes")
        || matches!(
            metric.name,
            "pcap2bgp.copy_amplification"
                | "bgp.updates_used_share"
                | "monitor.shard_skew"
                | "store.prune_share"
                | "store.match_share"
        )
}

/// Two traced runs at the seed and one at the next: inputs digests and
/// count metrics must repeat, and the next seed must change the inputs.
fn determinism(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    let traced = Args {
        trace: true,
        ..args.clone()
    };
    let a = run(&traced)?;
    let b = run(&traced)?;
    let c = run(&Args {
        seed: args.seed.wrapping_add(1),
        ..traced.clone()
    })?;
    let mut ok = a.inputs_digest == b.inputs_digest && a.inputs_digest != c.inputs_digest;
    eprintln!(
        "inputs digest {:016x} / {:016x}, next seed {:016x}",
        a.inputs_digest, b.inputs_digest, c.inputs_digest
    );
    for (x, y) in a
        .metrics
        .iter()
        .zip(&b.metrics)
        .filter(|(x, _)| is_count(x))
    {
        let same = x.name == y.name && x.value == y.value;
        eprintln!(
            "{:<28} {} {} {}",
            x.name,
            x.value,
            y.value,
            if same { "same" } else { "DIFFERS" }
        );
        ok &= same;
    }
    ok &= a.failed == 0 && b.failed == 0;
    Ok(ok)
}

/// `"name": {"value": v, "unit": "u"}, ...` for a JSON object body.
fn metrics_json(metrics: &[common::Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.determinism {
        return match determinism(&args) {
            Ok(true) => {
                eprintln!("{}: determinism self-test passed", args.workload);
                ExitCode::SUCCESS
            }
            Ok(false) => {
                eprintln!("{}: determinism self-test FAILED", args.workload);
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match run(&args) {
        Ok(outcome) if outcome.attempted == 0 => {
            eprintln!("perfbench: {}: no operation ran", args.workload);
            return ExitCode::FAILURE;
        }
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {}: {} is not a number", args.workload, bad.name);
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"inputs_digest\": \"{:016x}\", \"host\": {}, \"raw\": {{{}}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.inputs_digest,
        host_json(&outcome),
        metrics_json(&outcome.raw)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    ExitCode::SUCCESS
}
