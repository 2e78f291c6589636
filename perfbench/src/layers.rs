//! The traced runs' second pass over a connection: the analysis
//! pipeline split into its layer crates' public entry points, in the
//! order `Analyzer::analyze_extracted` and `analyze_partial` call them.

use tdat::AnalyzerConfig;
use tdat_bgp::{find_transfer_end_ref, MctConfig, TableTransfer};
use tdat_pcap2bgp::Extraction;
use tdat_timeset::{Span, SpanScratch};
use tdat_trace::{label_segments, LabelConfig, TcpConnection};

use crate::common::Spans;

/// Which analysis period the pass reproduces.
#[derive(Debug, Clone, Copy)]
pub enum Period {
    /// Whole connection, clipped to the MCT transfer end (batch and
    /// finalization).
    Transfer,
    /// A live tick's trailing window (monitor refresh).
    Window(Span),
}

/// Counters the pass accumulates alongside its spans.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// UPDATEs announcing NLRI at or before the MCT transfer end.
    pub updates_used: u64,
}

/// Runs MCT, labeling, ACK shifting, series generation, factor
/// classification and the detectors once over `conn`, timing each.
pub fn second_pass(
    conn: &TcpConnection,
    extraction: &Extraction,
    period: Period,
    config: &AnalyzerConfig,
    spans: &mut Spans,
    counts: &mut LayerCounts,
) {
    let start = conn.profile.start;
    let transfer: Option<TableTransfer> = spans.time("bgp.mct_s", || {
        find_transfer_end_ref(start, extraction.updates_iter(), &MctConfig::default())
    });
    if let Some(t) = &transfer {
        counts.updates_used += extraction
            .updates_iter()
            .filter(|(at, u)| *at <= t.span.end && !u.announced.is_empty())
            .count() as u64;
    }
    let period = match period {
        Period::Transfer => {
            let end = transfer
                .as_ref()
                .map(|t| t.span.end)
                .unwrap_or(conn.profile.end)
                .max(start);
            Span::new(start, end)
        }
        Period::Window(window) => {
            let from = window.start.max(start);
            Span::new(from, window.end.max(from))
        }
    };
    let labels = spans.time("core.label_s", || {
        label_segments(conn, &LabelConfig::default())
    });
    let shifted = spans.time("core.shift_s", || tdat::preprocess::shift_acks(conn));
    let mut scratch = SpanScratch::new();
    let series = spans.time("core.series_s", || {
        tdat::generate_series_with(
            &shifted,
            &labels,
            period,
            conn.profile.mss.unwrap_or(1448),
            conn.profile.max_receiver_window,
            conn.profile.rtt,
            config,
            &mut scratch,
        )
    });
    let vector = spans.time("core.factors_s", || {
        tdat::delay_vector_with(&series, config, &mut scratch)
    });
    std::hint::black_box(vector);
    spans.time("core.detect_s", || {
        std::hint::black_box((
            tdat::infer_timer(&series, 8),
            tdat::find_consecutive_losses(
                &series,
                config.consecutive_loss_threshold,
                config.episode_gap,
            ),
            tdat::find_zero_ack_bug(&series),
            tdat::find_delayed_ack_interaction(&series),
        ))
    });
}
