//! The sharded monitoring engine: the serial [`Monitor`] scaled
//! across worker shards, byte-identical output.
//!
//! # Architecture
//!
//! The engine splits the serial monitor's work into a *control plane*
//! and a *data plane*:
//!
//! * **Control plane (router, the caller's thread).** One
//!   [`ConnectionTracker::lifecycle`] tracker per source replicates
//!   every policy decision the serial engine would make — ordinal
//!   assignment, per-source frame indices, sweep timing, idle/close
//!   expiry, and LRU eviction under `max_connections` (the cap stays
//!   global, never split across shards). It stores only one frame's
//!   metadata per connection, so its memory is O(open connections).
//!   Frames, attributed anomalies, and finalization orders are routed
//!   by [`shard_of`] — a deterministic hash of the normalized
//!   connection key — into per-shard mailbox queues, and every
//!   decision is journaled into a global op log that pins the exact
//!   serial event order.
//! * **Data plane (shards).** Each shard owns a `SourceScope` per
//!   source — tracker metadata, BGP demux, quality counters, and the
//!   per-connection incremental tick cache — for just its partition of
//!   the connection space. Shards touch no shared state: between
//!   flushes the coordinator owns everything, and during a parallel
//!   flush each shard is *shipped* (moved, not borrowed) to its
//!   persistent worker lane — a [`tdat_timeset::workpool::WorkerPool`]
//!   thread parked on a bounded ring between flushes — and received
//!   back at the join barrier, so a flush costs a queue hand-off
//!   instead of a thread spawn, and no locks guard the hot path.
//!
//! Queues drain at *snapshot boundaries*: every analysis tick, a
//! queue-depth threshold, [`drain_events`](ShardedMonitor::drain_events),
//! [`snapshot_reports`](ShardedMonitor::snapshot_reports), and
//! [`finish`](ShardedMonitor::finish). After the fork-join the
//! coordinator walks the op log in decision order, merging per-shard
//! results: finalization reports pop from each shard's FIFO, tick
//! conditions k-way-merge by tracker ordinal, and the peer-group
//! correlation plus the [`AlertEngine`] run once over the merged
//! (source, ordinal)-ordered fleet — the same order the serial engine
//! iterates in, which is the determinism argument: every observable
//! decision is either made serially on the router or reassembled in
//! router order, so `shards=N` produces byte-identical JSONL to
//! `shards=1` (pinned by the identity tests over the oracle matrix).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use tdat::{Analyzer, TableTransfer};
use tdat_packet::{AnomalyCounts, CaptureAnomaly, TcpFrame};
use tdat_timeset::workpool::WorkerPool;
use tdat_timeset::Micros;
use tdat_trace::{ConnKey, ConnectionTracker, TrackerConfig};

use crate::alerts::{AlertEngine, Condition};
use crate::engine::{
    peer_group_conditions, CachedAnalysis, ConnectionSummary, FinalizeOutcome, Monitor,
    MonitorConfig, MonitorEvent, SourceDown, SourceScope, SourceUp, DEFAULT_SOURCE,
};
use crate::metrics::MonitorMetrics;
use crate::set::{SetEvent, SourceId, SourceSet};
use crate::source::AttributedAnomaly;

/// Flush the shard queues once this many ops are buffered, even
/// without a tick boundary (bounds queue memory between ticks).
const FLUSH_THRESHOLD: usize = 8_192;

/// Minimum work (queued ops, or cached connections at a tick) before a
/// flush spawns worker threads; smaller batches run inline — thread
/// spawn costs more than the work.
const PARALLEL_MIN: usize = 256;

pub use tdat_trace::shard_of;

/// A routed unit of data-plane work, executed by one shard in queue
/// order.
#[derive(Debug)]
enum ShardOp {
    /// Apply one frame to the shard's tracker/demux under the
    /// router-assigned ordinal and per-source frame index.
    Ingest {
        source: u32,
        frame: TcpFrame,
        ordinal: u64,
        index: usize,
    },
    /// Count attributed capture damage against a connection.
    Anomaly {
        source: u32,
        key: ConnKey,
        anomaly: CaptureAnomaly,
    },
    /// Build and clear one connection (the router decided it
    /// finalizes); the outcome queues onto the shard's FIFO.
    Finalize { source: u32, key: ConnKey },
    /// Run tick phases 1–2 for every scope; the per-entry conditions
    /// queue onto the shard's tick FIFO.
    Tick { at: Micros },
}

/// A control-plane decision journaled for in-order reassembly.
#[derive(Debug)]
enum GlobalOp {
    /// A connection finalized: pop the next outcome from `shard`'s
    /// FIFO. `now` is the engine clock at decision time and `open` the
    /// post-removal open-connection count (for metrics parity with the
    /// serial engine).
    Finalize {
        shard: usize,
        source: u32,
        /// The finalized connection's key — enough to synthesize a
        /// quarantined summary if the owning shard was poisoned by a
        /// panic and never produced the real outcome.
        key: ConnKey,
        now: Micros,
        open: usize,
    },
    /// A tick boundary: merge every shard's queued tick output.
    Tick { at: Micros },
    /// An event produced directly on the control plane (source
    /// failures), kept in op order (boxed: rare next to the other
    /// variants, and much larger).
    Event(Box<MonitorEvent>),
}

/// Read-only context shipped with every shard during a flush. Owned
/// (the analyzer behind an `Arc`) rather than borrowed so it can cross
/// into the persistent worker lanes, which outlive any one flush.
#[derive(Debug, Clone)]
struct ShardCtx {
    analyzer: Arc<Analyzer>,
    window: Micros,
    timer_min_gaps: usize,
    stall_after: Micros,
    recompute_all: bool,
}

/// Per-entry tick conditions for one shard: `[source][entry]`, each
/// entry `(ordinal, conditions)` sorted by ordinal within the shard.
type TickOutput = Vec<Vec<(u64, Vec<Condition>)>>;

/// One worker shard: a `SourceScope` per source covering this
/// shard's partition of the connection space, plus its mailbox and
/// result FIFOs.
#[derive(Debug)]
struct Shard {
    scopes: Vec<SourceScope>,
    queue: Vec<ShardOp>,
    fins: VecDeque<FinalizeOutcome>,
    ticks: VecDeque<TickOutput>,
    /// Set (to the panic message) when a batch run panicked. A
    /// poisoned shard's state is assumed inconsistent: it receives no
    /// further ops, contributes nothing to ticks or snapshots, and
    /// every connection the router finalizes on it is reported with a
    /// quarantined verdict instead.
    poisoned: Option<String>,
    /// Test hook: makes the next [`run`](Self::run) panic, exercising
    /// the poisoning path end to end.
    #[cfg(test)]
    panic_next: bool,
}

/// The stand-in report for a connection whose owning shard was
/// poisoned by a panic: no analysis survived, so everything is zeroed
/// and the verdict is typed `quarantined` with the panic as the
/// reason. The endpoint order follows the normalized [`ConnKey`] (the
/// data sender is unknown without the analysis).
fn poisoned_shard_report(sender: String, receiver: String, reason: &str) -> tdat::Report {
    tdat::Report {
        sender,
        receiver,
        duration_s: 0.0,
        prefixes: 0,
        rtt_ms: None,
        sender_ratio: 0.0,
        receiver_ratio: 0.0,
        network_ratio: 0.0,
        factors: tdat::Factor::ALL
            .iter()
            .map(|f| (f.to_string(), 0.0))
            .collect(),
        major_groups: Vec::new(),
        inferred_timer_ms: None,
        loss_episodes: Vec::new(),
        zero_ack_bug: false,
        delayed_ack_spurious: 0,
        verdict: "quarantined".to_string(),
        quarantine_reason: Some(format!("shard worker panicked: {reason}")),
        capture_anomalies: 0,
    }
}

/// Renders a panic payload for the quarantine reason.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Shard {
    /// An inert shard left behind while the real one is out on a
    /// worker lane — and the stand-in if that lane ever dies without
    /// returning it (`poisoned` pre-set so the op log synthesizes
    /// quarantined reports for everything the lost shard owed).
    fn placeholder(lost: bool) -> Shard {
        Shard {
            scopes: Vec::new(),
            queue: Vec::new(),
            fins: VecDeque::new(),
            ticks: VecDeque::new(),
            poisoned: lost.then(|| "shard worker lane died".to_string()),
            #[cfg(test)]
            panic_next: false,
        }
    }

    /// [`run`](Self::run) under `catch_unwind`: a panicking batch
    /// poisons this shard instead of tearing down the watch (or, on
    /// the parallel path, aborting via a panicking worker thread).
    fn run_guarded(&mut self, ctx: &ShardCtx) {
        if self.poisoned.is_some() {
            // Drop anything routed before the coordinator noticed.
            self.queue.clear();
            return;
        }
        if let Err(payload) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run(ctx)))
        {
            self.poisoned = Some(panic_message(payload));
        }
    }

    /// Drains the mailbox in order. Runs on a worker lane during
    /// parallel flushes; everything it touches is shard-local.
    fn run(&mut self, ctx: &ShardCtx) {
        #[cfg(test)]
        if std::mem::take(&mut self.panic_next) {
            panic!("injected shard panic");
        }
        for op in std::mem::take(&mut self.queue) {
            match op {
                ShardOp::Ingest {
                    source,
                    frame,
                    ordinal,
                    index,
                } => {
                    let Some(scope) = self.scopes.get_mut(source as usize) else {
                        debug_assert!(false, "routed op for unregistered source {source}");
                        continue;
                    };
                    scope.demux.feed(&frame);
                    scope.tracker.ingest_routed(&frame, ordinal, index);
                }
                ShardOp::Anomaly {
                    source,
                    key,
                    anomaly,
                } => {
                    let Some(scope) = self.scopes.get_mut(source as usize) else {
                        debug_assert!(false, "routed op for unregistered source {source}");
                        continue;
                    };
                    scope.quality.entry(key).or_default().note(&anomaly);
                    scope.quality_dirty.insert(key);
                }
                ShardOp::Finalize { source, key } => {
                    let Some(scope) = self.scopes.get_mut(source as usize) else {
                        debug_assert!(false, "routed op for unregistered source {source}");
                        continue;
                    };
                    let Some(fin) = scope.tracker.finalize_key(key) else {
                        debug_assert!(false, "router finalized a key this shard never saw");
                        continue;
                    };
                    let outcome = scope.finalize_connection(fin, &ctx.analyzer);
                    self.fins.push_back(outcome);
                }
                ShardOp::Tick { at } => {
                    let mut out: TickOutput = Vec::with_capacity(self.scopes.len());
                    for scope in &mut self.scopes {
                        let work = scope.dirty_work(at, ctx.recompute_all);
                        scope.refresh(
                            work,
                            &ctx.analyzer,
                            ctx.window,
                            ctx.timer_min_gaps,
                            ctx.recompute_all,
                        );
                        out.push(scope.entry_conditions(at, ctx.stall_after));
                    }
                    self.ticks.push_back(out);
                }
            }
        }
    }
}

/// The sharded engine proper; public API lives on [`ShardedMonitor`].
#[derive(Debug)]
struct ShardEngine {
    /// Shared with the worker lanes through each flush's [`ShardCtx`].
    analyzer: Arc<Analyzer>,
    tracker_config: TrackerConfig,
    alerts: AlertEngine,
    metrics: MonitorMetrics,
    window: Micros,
    interval: Micros,
    now: Micros,
    next_tick: Option<Micros>,
    recompute_all: bool,
    /// Per-source lifecycle trackers: the policy replica (see module
    /// docs).
    lifecycles: Vec<ConnectionTracker>,
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, SourceId>,
    /// Per-source unattributed capture damage (control-plane state:
    /// order-insensitive counters).
    unattributed: Vec<AnomalyCounts>,
    shards: Vec<Shard>,
    /// Persistent worker lanes (one per shard), created on the first
    /// flush big enough to go parallel; `None` until then so purely
    /// inline workloads never spawn a thread. Lanes park on their rings
    /// between flushes; dropping the engine closes and joins them.
    pool: Option<WorkerPool<(Shard, ShardCtx), Shard>>,
    ops: Vec<GlobalOp>,
    /// Shard ops queued since the last flush.
    queued: usize,
    pending_backoff: std::time::Duration,
    events: Vec<MonitorEvent>,
}

impl ShardEngine {
    fn new(config: MonitorConfig) -> ShardEngine {
        let shard_count = config.shards.max(2);
        ShardEngine {
            analyzer: Arc::new(Analyzer::new(config.analyzer).with_quarantine(config.quarantine)),
            tracker_config: config.tracker,
            alerts: AlertEngine::new(config.alerts),
            metrics: MonitorMetrics::default(),
            window: config.window.max(Micros(1)),
            interval: config.interval.max(Micros(1)),
            now: Micros::ZERO,
            next_tick: None,
            recompute_all: config.recompute_all,
            lifecycles: Vec::new(),
            names: Vec::new(),
            index: HashMap::new(),
            unattributed: Vec::new(),
            shards: (0..shard_count)
                .map(|_| Shard::placeholder(false))
                .collect(),
            pool: None,
            ops: Vec::new(),
            queued: 0,
            pending_backoff: config.pending_backoff,
            events: Vec::new(),
        }
    }

    fn register_source(&mut self, name: &str) -> SourceId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = SourceId(self.names.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.index.insert(name.clone(), id);
        self.lifecycles.push(ConnectionTracker::lifecycle(
            self.tracker_config,
            id.index() as u64,
        ));
        self.unattributed.push(AnomalyCounts::default());
        for shard in &mut self.shards {
            shard.scopes.push(SourceScope::new(
                name.clone(),
                // Routed trackers never run policy themselves (no
                // sweep, no eviction) — the config is inert here.
                ConnectionTracker::scoped(self.tracker_config, id.index() as u64),
            ));
        }
        self.names.push(name);
        self.metrics.record_sources(self.names.len());
        id
    }

    fn advance_to(&mut self, now: Micros) {
        if now <= self.now && self.next_tick.is_some() {
            return;
        }
        self.now = self.now.max(now);
        let mut boundary = match self.next_tick {
            Some(t) => t,
            // First sign of time: schedule the first tick one interval in.
            None => {
                self.next_tick = Some(now + self.interval);
                return;
            }
        };
        while boundary <= self.now {
            // A tick is a snapshot boundary: it must be the last op in
            // every queue when its flush runs, so the merged caches the
            // peer-group correlation reads are exactly the post-tick
            // state.
            for shard in &mut self.shards {
                if shard.poisoned.is_some() {
                    continue;
                }
                shard.queue.push(ShardOp::Tick { at: boundary });
                self.queued += 1;
            }
            self.ops.push(GlobalOp::Tick { at: boundary });
            self.flush();
            boundary += self.interval;
        }
        self.next_tick = Some(boundary);
    }

    fn ingest_owned(&mut self, source: SourceId, frame: TcpFrame) {
        self.advance_to(frame.timestamp);
        let idx = source.index();
        let (Some(lifecycle), Some(name)) = (self.lifecycles.get_mut(idx), self.names.get(idx))
        else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        self.metrics.record_frame_from(name);
        let key = ConnKey::of(&frame);
        let fins = lifecycle.ingest(&frame);
        let index = lifecycle.frames_seen() - 1;
        let Some(ordinal) = lifecycle.ordinal_of(key) else {
            debug_assert!(false, "just-ingested key must be open");
            return;
        };
        let shard = shard_of(&key, self.shards.len());
        if self.shards[shard].poisoned.is_none() {
            self.shards[shard].queue.push(ShardOp::Ingest {
                source: idx as u32,
                frame,
                ordinal,
                index,
            });
            self.queued += 1;
        }
        if !fins.is_empty() {
            // The lifecycle tracker already removed every finalized
            // key, so the post-removal open count is the same for the
            // whole batch — exactly what the serial engine's
            // per-finalize `open_connections()` reads.
            let open: usize = self.lifecycles.iter().map(|t| t.open_connections()).sum();
            for fin in fins {
                let shard = shard_of(&fin.key, self.shards.len());
                if self.shards[shard].poisoned.is_none() {
                    self.shards[shard].queue.push(ShardOp::Finalize {
                        source: idx as u32,
                        key: fin.key,
                    });
                    self.queued += 1;
                }
                // The op stays journaled even for a poisoned shard:
                // assemble() synthesizes its quarantined summary.
                self.ops.push(GlobalOp::Finalize {
                    shard,
                    source: idx as u32,
                    key: fin.key,
                    now: self.now,
                    open,
                });
            }
        }
        if self.queued >= FLUSH_THRESHOLD {
            self.flush();
        }
    }

    fn note_anomaly_from(&mut self, source: SourceId, anomaly: AttributedAnomaly) {
        self.metrics.record_anomaly();
        let idx = source.index();
        if idx >= self.names.len() {
            debug_assert!(false, "unregistered source {source}");
            return;
        }
        match anomaly.key {
            Some(key) => {
                let shard = shard_of(&key, self.shards.len());
                if self.shards[shard].poisoned.is_some() {
                    return;
                }
                self.shards[shard].queue.push(ShardOp::Anomaly {
                    source: idx as u32,
                    key,
                    anomaly: anomaly.anomaly,
                });
                self.queued += 1;
            }
            None => self.unattributed[idx].note(&anomaly.anomaly),
        }
    }

    fn note_source_failure(&mut self, source: SourceId, detail: String) {
        self.metrics.record_source_failure();
        let Some(name) = self.names.get(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        self.ops
            .push(GlobalOp::Event(Box::new(MonitorEvent::SourceDown(
                SourceDown {
                    at: self.now,
                    source: name.clone(),
                    detail,
                },
            ))));
    }

    fn note_source_down(&mut self, source: SourceId, detail: String) {
        self.metrics.record_source_flap();
        let Some(name) = self.names.get(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        self.ops
            .push(GlobalOp::Event(Box::new(MonitorEvent::SourceDown(
                SourceDown {
                    at: self.now,
                    source: name.clone(),
                    detail,
                },
            ))));
    }

    fn note_source_up(&mut self, source: SourceId, attempts: u32) {
        self.metrics.record_source_resurrection();
        let Some(name) = self.names.get(source.index()) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        self.ops
            .push(GlobalOp::Event(Box::new(MonitorEvent::SourceUp(
                SourceUp {
                    at: self.now,
                    source: name.clone(),
                    attempts,
                    detail: format!("recovered after {attempts} reopen attempt(s)"),
                },
            ))));
    }

    fn finish(&mut self) {
        for idx in 0..self.lifecycles.len() {
            let fresh = ConnectionTracker::lifecycle(self.tracker_config, idx as u64);
            let lifecycle = std::mem::replace(&mut self.lifecycles[idx], fresh);
            let fins = lifecycle.finish();
            if fins.is_empty() {
                continue;
            }
            let open: usize = self.lifecycles.iter().map(|t| t.open_connections()).sum();
            for fin in fins {
                let shard = shard_of(&fin.key, self.shards.len());
                if self.shards[shard].poisoned.is_none() {
                    self.shards[shard].queue.push(ShardOp::Finalize {
                        source: idx as u32,
                        key: fin.key,
                    });
                    self.queued += 1;
                }
                self.ops.push(GlobalOp::Finalize {
                    shard,
                    source: idx as u32,
                    key: fin.key,
                    now: self.now,
                    open,
                });
            }
        }
        self.flush();
        self.next_tick = None;
    }

    /// Fork-join: workers drain every shard mailbox, then the
    /// coordinator reassembles results in op-log (decision) order.
    fn flush(&mut self) {
        if self.queued > 0 {
            let has_tick = self
                .ops
                .iter()
                .any(|op| matches!(op, GlobalOp::Tick { .. }));
            let cached: usize = if has_tick {
                self.shards
                    .iter()
                    .map(|sh| sh.scopes.iter().map(|s| s.cache.len()).sum::<usize>())
                    .sum()
            } else {
                0
            };
            let ctx = ShardCtx {
                analyzer: Arc::clone(&self.analyzer),
                window: self.window,
                timer_min_gaps: self.alerts.config().timer_min_gaps,
                stall_after: self.alerts.config().stall_after,
                recompute_all: self.recompute_all,
            };
            let busy = self.shards.iter().filter(|s| !s.queue.is_empty()).count();
            if busy > 1 && (self.queued >= PARALLEL_MIN || cached >= PARALLEL_MIN) {
                // Ship each busy shard to its persistent lane and take
                // it back at the barrier: ownership moves, so the lanes
                // need no 'static borrows and stay parked between
                // flushes instead of being respawned per flush.
                let lanes = self.shards.len();
                let pool = self.pool.get_or_insert_with(|| {
                    WorkerPool::new(
                        lanes,
                        1,
                        |_| (),
                        |(), (mut shard, ctx): (Shard, ShardCtx)| {
                            shard.run_guarded(&ctx);
                            Some(shard)
                        },
                    )
                });
                let busy_lanes: Vec<usize> = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.queue.is_empty())
                    .map(|(i, _)| i)
                    .collect();
                for &i in &busy_lanes {
                    let shard = std::mem::replace(&mut self.shards[i], Shard::placeholder(true));
                    if !pool.send(i, (shard, ctx.clone())) {
                        continue; // lane dead: the placeholder stands in, poisoned
                    }
                }
                for &i in &busy_lanes {
                    if let Some(shard) = pool.recv(i) {
                        self.shards[i] = shard;
                    }
                }
            } else {
                for shard in &mut self.shards {
                    if !shard.queue.is_empty() {
                        shard.run_guarded(&ctx);
                    }
                }
            }
            self.queued = 0;
            let poisoned = self.shards.iter().filter(|s| s.poisoned.is_some()).count() as u64;
            while self.metrics.shards_poisoned() < poisoned {
                self.metrics.record_shard_poisoned();
            }
        }
        self.assemble();
    }

    /// Walks the op log in decision order, merging per-shard results
    /// into the serial event stream.
    fn assemble(&mut self) {
        let min_pause = self.alerts.config().min_pause;
        for op in std::mem::take(&mut self.ops) {
            match op {
                GlobalOp::Event(event) => self.events.push(*event),
                GlobalOp::Finalize {
                    shard,
                    source,
                    key,
                    now,
                    open,
                } => {
                    let outcome = self
                        .shards
                        .get_mut(shard)
                        .and_then(|sh| sh.fins.pop_front());
                    let Some(name) = self.names.get(source as usize).cloned() else {
                        debug_assert!(false, "finalize for unregistered source {source}");
                        continue;
                    };
                    let Some(outcome) = outcome else {
                        // The shard never produced the outcome. If it
                        // was poisoned by a panic, quarantine the
                        // connection: clear its alerts (the session
                        // direction is unknown without the analysis, so
                        // both orientations) and report it with a typed
                        // quarantined verdict instead of dropping it
                        // silently.
                        let Some(reason) =
                            self.shards.get(shard).and_then(|sh| sh.poisoned.clone())
                        else {
                            debug_assert!(false, "op log references a missing finalize outcome");
                            continue;
                        };
                        let (ep_a, ep_b) = (
                            format!("{}:{}", key.a.0, key.a.1),
                            format!("{}:{}", key.b.0, key.b.1),
                        );
                        let fwd = format!("{ep_a}->{ep_b}");
                        let rev = format!("{ep_b}->{ep_a}");
                        for session in [&fwd, &rev] {
                            for alert in self.alerts.clear_session(&name, session, now) {
                                self.metrics.record_alert(&alert);
                                self.events.push(MonitorEvent::Alert(alert));
                            }
                        }
                        self.metrics.record_finalized(open);
                        self.events
                            .push(MonitorEvent::Connection(ConnectionSummary {
                                at: now,
                                source: name,
                                session: fwd,
                                report: poisoned_shard_report(ep_a, ep_b, &reason),
                            }));
                        continue;
                    };
                    let at = now.max(outcome.profile_end);
                    if let Some(stale) = &outcome.stale_session {
                        for alert in self.alerts.clear_session(&name, stale, at) {
                            self.metrics.record_alert(&alert);
                            self.events.push(MonitorEvent::Alert(alert));
                        }
                    }
                    for alert in self.alerts.clear_session(&name, &outcome.session, at) {
                        self.metrics.record_alert(&alert);
                        self.events.push(MonitorEvent::Alert(alert));
                    }
                    self.metrics.record_finalized(open);
                    self.events
                        .push(MonitorEvent::Connection(ConnectionSummary {
                            at,
                            source: name,
                            session: outcome.session,
                            report: outcome.report,
                        }));
                }
                GlobalOp::Tick { at } => {
                    let started = Instant::now();
                    let mut outputs: Vec<TickOutput> = self
                        .shards
                        .iter_mut()
                        .map(|sh| sh.ticks.pop_front().unwrap_or_default())
                        .collect();
                    let mut conditions: Vec<Condition> = Vec::new();
                    let mut open = 0usize;
                    for s in 0..self.names.len() {
                        // K-way merge of this source's per-entry
                        // conditions across shards, by tracker ordinal
                        // — the serial engine's iteration order.
                        let mut merged: Vec<(u64, Vec<Condition>)> = Vec::new();
                        for output in &mut outputs {
                            if let Some(entries) = output.get_mut(s) {
                                merged.append(entries);
                            }
                        }
                        merged.sort_unstable_by_key(|(ordinal, _)| *ordinal);
                        open += merged.len();
                        for (_, entry) in merged {
                            conditions.extend(entry);
                        }
                    }
                    // Peer-group correlation over the merged fleet, in
                    // (source, ordinal) order, by reference: snapshot
                    // boundaries are the only place cross-shard state
                    // meets.
                    let mut fleet: Vec<(&Arc<str>, &CachedAnalysis)> = Vec::new();
                    for (s, name) in self.names.iter().enumerate() {
                        let mut entries: Vec<&CachedAnalysis> = Vec::new();
                        for shard in &self.shards {
                            if shard.poisoned.is_some() {
                                continue;
                            }
                            if let Some(scope) = shard.scopes.get(s) {
                                entries.extend(scope.cache.values());
                            }
                        }
                        entries.sort_unstable_by_key(|cached| cached.ordinal);
                        fleet.extend(entries.into_iter().map(|cached| (name, cached)));
                    }
                    peer_group_conditions(&fleet, min_pause, &mut conditions);
                    drop(fleet);
                    for alert in self.alerts.observe(at, &conditions) {
                        self.metrics.record_alert(&alert);
                        self.events.push(MonitorEvent::Alert(alert));
                    }
                    self.metrics.record_tick(open, started.elapsed());
                }
            }
        }
    }

    /// One row per cached analysis, merged across shards in (source,
    /// tracker-insertion) order, after flushing queued work.
    fn snapshot_rows<T>(&mut self, row: impl Fn(&CachedAnalysis) -> T) -> Vec<(String, String, T)> {
        self.flush();
        let mut out = Vec::new();
        for (s, name) in self.names.iter().enumerate() {
            let mut entries: Vec<&CachedAnalysis> = Vec::new();
            for shard in &self.shards {
                if shard.poisoned.is_some() {
                    continue;
                }
                if let Some(scope) = shard.scopes.get(s) {
                    entries.extend(scope.cache.values());
                }
            }
            entries.sort_unstable_by_key(|cached| cached.ordinal);
            out.extend(
                entries
                    .into_iter()
                    .map(|cached| (name.to_string(), cached.session.clone(), row(cached))),
            );
        }
        out
    }
}

/// A [`Monitor`] with a worker-shard count: `shards = 1` *is* the
/// serial engine (same code path); `shards = N` partitions connections
/// by key hash across N shards with byte-identical JSONL output. See
/// the module docs for the architecture.
#[derive(Debug)]
pub struct ShardedMonitor {
    inner: Inner,
}

// The serial monitor is the smaller variant and `ShardedMonitor` is a
// long-lived singleton — boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Inner {
    Serial(Monitor),
    Sharded(ShardEngine),
}

impl ShardedMonitor {
    /// Creates an engine with `config.shards` workers; `shards <= 1`
    /// is exactly the serial [`Monitor`].
    pub fn new(config: MonitorConfig) -> ShardedMonitor {
        let inner = if config.shards <= 1 {
            Inner::Serial(Monitor::new(config))
        } else {
            Inner::Sharded(ShardEngine::new(config))
        };
        ShardedMonitor { inner }
    }

    /// The configured shard count (1 for the serial engine).
    pub fn shards(&self) -> usize {
        match &self.inner {
            Inner::Serial(_) => 1,
            Inner::Sharded(engine) => engine.shards.len(),
        }
    }

    /// The engine's health counters. Tick and finalization counters
    /// update at snapshot boundaries (flushes), not per queued op.
    pub fn metrics(&self) -> &MonitorMetrics {
        match &self.inner {
            Inner::Serial(monitor) => monitor.metrics(),
            Inner::Sharded(engine) => &engine.metrics,
        }
    }

    /// Trace time the engine has advanced to.
    pub fn now(&self) -> Micros {
        match &self.inner {
            Inner::Serial(monitor) => monitor.now(),
            Inner::Sharded(engine) => engine.now,
        }
    }

    /// Registers a named source scope (idempotent); see
    /// [`Monitor::register_source`].
    pub fn register_source(&mut self, name: &str) -> SourceId {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.register_source(name),
            Inner::Sharded(engine) => engine.register_source(name),
        }
    }

    /// The registered source names, in [`SourceId`] order.
    pub fn source_names(&self) -> Vec<Arc<str>> {
        match &self.inner {
            Inner::Serial(monitor) => monitor.source_names(),
            Inner::Sharded(engine) => engine.names.clone(),
        }
    }

    /// Ingests one frame under the default [`DEFAULT_SOURCE`] scope.
    pub fn ingest(&mut self, frame: &TcpFrame) {
        let id = self.register_source(DEFAULT_SOURCE);
        self.ingest_from(id, frame);
    }

    /// Ingests one captured frame under a registered source scope; see
    /// [`Monitor::ingest_from`]. The sharded engine clones the frame
    /// into its shard mailbox; callers that own their frames should
    /// prefer [`ingest_owned`](Self::ingest_owned).
    pub fn ingest_from(&mut self, source: SourceId, frame: &TcpFrame) {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.ingest_from(source, frame),
            Inner::Sharded(engine) => engine.ingest_owned(source, frame.clone()),
        }
    }

    /// Ingests one owned frame under a registered source scope without
    /// a copy on the sharded path.
    pub fn ingest_owned(&mut self, source: SourceId, frame: TcpFrame) {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.ingest_from(source, &frame),
            Inner::Sharded(engine) => engine.ingest_owned(source, frame),
        }
    }

    /// Advances trace time without a frame, running any due ticks; see
    /// [`Monitor::advance_to`].
    pub fn advance_to(&mut self, now: Micros) {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.advance_to(now),
            Inner::Sharded(engine) => engine.advance_to(now),
        }
    }

    /// Notes one capture anomaly a source survived; see
    /// [`Monitor::note_anomaly_from`].
    pub fn note_anomaly_from(&mut self, source: SourceId, anomaly: AttributedAnomaly) {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.note_anomaly_from(source, anomaly),
            Inner::Sharded(engine) => engine.note_anomaly_from(source, anomaly),
        }
    }

    /// Notes that a source died mid-watch; see
    /// [`Monitor::note_source_failure`].
    pub fn note_source_failure(&mut self, source: SourceId, detail: String) {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.note_source_failure(source, detail),
            Inner::Sharded(engine) => engine.note_source_failure(source, detail),
        }
    }

    /// Notes a transient source outage; see
    /// [`Monitor::note_source_down`].
    pub fn note_source_down(&mut self, source: SourceId, detail: String) {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.note_source_down(source, detail),
            Inner::Sharded(engine) => engine.note_source_down(source, detail),
        }
    }

    /// Notes a resurrected source; see [`Monitor::note_source_up`].
    pub fn note_source_up(&mut self, source: SourceId, attempts: u32) {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.note_source_up(source, attempts),
            Inner::Sharded(engine) => engine.note_source_up(source, attempts),
        }
    }

    /// The configured wall-clock wait between polls while every source
    /// is pending.
    pub fn pending_backoff(&self) -> std::time::Duration {
        match &self.inner {
            Inner::Serial(monitor) => monitor.pending_backoff(),
            Inner::Sharded(engine) => engine.pending_backoff,
        }
    }

    /// A deterministic fingerprint of the alert engine's hysteresis
    /// state; see [`AlertEngine::fingerprint`].
    pub fn alert_fingerprint(&self) -> u64 {
        match &self.inner {
            Inner::Serial(monitor) => monitor.alert_fingerprint(),
            Inner::Sharded(engine) => engine.alerts.fingerprint(),
        }
    }

    /// Worker shards quarantined after a panic so far (0 for the
    /// serial engine).
    pub fn poisoned_shards(&self) -> usize {
        match &self.inner {
            Inner::Serial(_) => 0,
            Inner::Sharded(engine) => engine
                .shards
                .iter()
                .filter(|s| s.poisoned.is_some())
                .count(),
        }
    }

    /// Capture damage no source could tie to any connection, summed
    /// across sources.
    pub fn unattributed_anomalies(&self) -> AnomalyCounts {
        match &self.inner {
            Inner::Serial(monitor) => monitor.unattributed_anomalies(),
            Inner::Sharded(engine) => {
                let mut total = AnomalyCounts::default();
                for counts in &engine.unattributed {
                    total.merge(counts);
                }
                total
            }
        }
    }

    /// Open connections across every source scope.
    pub fn open_connections(&self) -> usize {
        match &self.inner {
            Inner::Serial(monitor) => monitor.open_connections(),
            Inner::Sharded(engine) => engine.lifecycles.iter().map(|t| t.open_connections()).sum(),
        }
    }

    /// Takes the events accumulated since the last drain, flushing any
    /// queued shard work first (a snapshot boundary).
    pub fn drain_events(&mut self) -> Vec<MonitorEvent> {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.drain_events(),
            Inner::Sharded(engine) => {
                engine.flush();
                std::mem::take(&mut engine.events)
            }
        }
    }

    /// The per-connection analyses as of the last tick, merged across
    /// shards in (source, tracker-insertion) order — the same rows as
    /// [`Monitor::snapshot_reports`]. Flushes queued work first.
    pub fn snapshot_reports(&mut self) -> Vec<(String, String, String)> {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.snapshot_reports(),
            Inner::Sharded(engine) => {
                let analyzer = Arc::clone(&engine.analyzer);
                engine.snapshot_rows(|cached| {
                    tdat::Report::from_analysis(&cached.analysis, analyzer.config()).to_json()
                })
            }
        }
    }

    /// The MCT transfer estimate of each analysis as of the last tick;
    /// see [`Monitor::snapshot_transfers`]. Flushes queued work first.
    pub fn snapshot_transfers(&mut self) -> Vec<(String, String, Option<TableTransfer>)> {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.snapshot_transfers(),
            Inner::Sharded(engine) => {
                engine.snapshot_rows(|cached| cached.analysis.transfer.clone())
            }
        }
    }

    /// Open connections whose MCT scan is carried across ticks, summed
    /// over shards. Flushes queued work first.
    pub fn carried_scans(&mut self) -> usize {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.carried_scans(),
            Inner::Sharded(engine) => {
                engine.flush();
                engine
                    .shards
                    .iter()
                    .flat_map(|shard| &shard.scopes)
                    .map(|scope| scope.mct.len())
                    .sum()
            }
        }
    }

    /// Ends the watch: finalizes every still-open connection in every
    /// scope. The engine is reusable afterwards, fresh.
    pub fn finish(&mut self) {
        match &mut self.inner {
            Inner::Serial(monitor) => monitor.finish(),
            Inner::Sharded(engine) => engine.finish(),
        }
    }

    /// Drives a [`SourceSet`] to exhaustion; see [`Monitor::run_set`].
    pub fn run_set(&mut self, set: &mut SourceSet) -> Vec<MonitorEvent> {
        if let Inner::Serial(monitor) = &mut self.inner {
            return monitor.run_set(set);
        }
        let ids: Vec<SourceId> = set
            .names()
            .iter()
            .map(|name| self.register_source(name))
            .collect();
        loop {
            let event = set.poll();
            for (sid, anomaly) in set.drain_anomalies() {
                if let Some(&id) = ids.get(sid.index()) {
                    self.note_anomaly_from(id, anomaly);
                }
            }
            match event {
                SetEvent::Batch { runs, now } => {
                    for run in runs {
                        let Some(&id) = ids.get(run.source.index()) else {
                            continue;
                        };
                        for frame in run.frames {
                            self.ingest_owned(id, frame);
                        }
                    }
                    if let Some(now) = now {
                        self.advance_to(now);
                    }
                }
                SetEvent::Pending => std::thread::sleep(self.pending_backoff()),
                SetEvent::SourceFailed { source, error } => {
                    if let Some(&id) = ids.get(source.index()) {
                        self.note_source_failure(id, error);
                    }
                }
                SetEvent::SourceDown { source, error } => {
                    if let Some(&id) = ids.get(source.index()) {
                        self.note_source_down(id, error);
                    }
                }
                SetEvent::SourceUp { source, attempts } => {
                    if let Some(&id) = ids.get(source.index()) {
                        self.note_source_up(id, attempts);
                    }
                }
                SetEvent::Finished => break,
            }
        }
        self.finish();
        self.drain_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tdat_packet::{FrameBuilder, TcpFlags, TcpOption};

    fn config(window_s: i64, interval_s: i64, shards: usize) -> MonitorConfig {
        MonitorConfig {
            window: Micros::from_secs(window_s),
            interval: Micros::from_secs(interval_s),
            shards,
            ..MonitorConfig::default()
        }
    }

    /// Handshake then `n` MSS data/ACK exchanges between `a` and `b`.
    fn transfer_frames_between(a: Ipv4Addr, b: Ipv4Addr, n: usize, t0: i64) -> Vec<TcpFrame> {
        let mut frames = Vec::new();
        let mut t = t0;
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(t))
                .ports(179, 40000)
                .seq(0)
                .flags(TcpFlags::SYN)
                .option(TcpOption::Mss(1448))
                .window(65535)
                .build(),
        );
        t += 100;
        frames.push(
            FrameBuilder::new(b, a)
                .at(Micros(t))
                .ports(40000, 179)
                .seq(0)
                .ack_to(1)
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .option(TcpOption::Mss(1448))
                .window(65535)
                .build(),
        );
        let mut seq = 1u32;
        for _ in 0..n {
            t += 1_000;
            frames.push(
                FrameBuilder::new(a, b)
                    .at(Micros(t))
                    .ports(179, 40000)
                    .seq(seq)
                    .ack_to(1)
                    .payload(vec![0xab; 1448])
                    .build(),
            );
            seq = seq.wrapping_add(1448);
            t += 500;
            frames.push(
                FrameBuilder::new(b, a)
                    .at(Micros(t))
                    .ports(40000, 179)
                    .seq(1)
                    .ack_to(seq)
                    .window(65535)
                    .build(),
            );
        }
        frames
    }

    /// A multi-connection workload long enough for ticks, stalls, and
    /// finalizations.
    fn fleet_frames() -> Vec<TcpFrame> {
        let mut frames = Vec::new();
        for i in 0..6u8 {
            frames.extend(transfer_frames_between(
                Ipv4Addr::new(10, 0, i, 1),
                Ipv4Addr::new(10, 0, i, 2),
                15,
                i as i64 * 2_500,
            ));
        }
        frames.sort_by_key(|f| f.timestamp);
        frames
    }

    fn run_events(shards: usize) -> (Vec<String>, Vec<(String, String, String)>) {
        let mut monitor = ShardedMonitor::new(config(60, 10, shards));
        let id = monitor.register_source("capture");
        for frame in fleet_frames() {
            monitor.ingest_owned(id, frame);
        }
        monitor.advance_to(Micros::from_secs(200));
        let snapshots = monitor.snapshot_reports();
        monitor.finish();
        let events = monitor
            .drain_events()
            .iter()
            .map(|e| e.to_json_v2())
            .collect();
        (events, snapshots)
    }

    #[test]
    fn sharded_output_is_byte_identical_to_serial() {
        let (serial_events, serial_snaps) = run_events(1);
        assert!(!serial_events.is_empty());
        for shards in [2, 3, 4] {
            let (events, snaps) = run_events(shards);
            assert_eq!(events, serial_events, "{shards} shards diverged");
            assert_eq!(snaps, serial_snaps, "{shards}-shard snapshots diverged");
        }
    }

    #[test]
    fn shard_of_is_direction_symmetric_and_in_range() {
        let a = (Ipv4Addr::new(10, 0, 0, 1), 179u16);
        let b = (Ipv4Addr::new(192, 168, 3, 7), 40000u16);
        for shards in 1..=8 {
            let fwd = shard_of(&ConnKey::of_endpoints(a, b), shards);
            let rev = shard_of(&ConnKey::of_endpoints(b, a), shards);
            assert_eq!(fwd, rev);
            assert!(fwd < shards);
        }
    }

    #[test]
    fn serial_shard_count_is_reported() {
        assert_eq!(ShardedMonitor::new(config(60, 10, 1)).shards(), 1);
        assert_eq!(ShardedMonitor::new(config(60, 10, 4)).shards(), 4);
    }

    #[test]
    fn a_panicking_shard_quarantines_only_its_connections() {
        let shard_count = 3;
        let endpoints: Vec<_> = (0..6u8)
            .map(|i| {
                (
                    (Ipv4Addr::new(10, 0, i, 1), 179u16),
                    (Ipv4Addr::new(10, 0, i, 2), 40000u16),
                )
            })
            .collect();
        let owner: Vec<usize> = endpoints
            .iter()
            .map(|(a, b)| shard_of(&ConnKey::of_endpoints(*a, *b), shard_count))
            .collect();
        let victim = owner[0];
        assert!(
            owner.iter().any(|&s| s != victim),
            "fleet must span more than one shard: {owner:?}"
        );

        let mut monitor = ShardedMonitor::new(config(60, 10, shard_count));
        let id = monitor.register_source("capture");
        for frame in fleet_frames() {
            monitor.ingest_owned(id, frame);
        }
        // Arm the hook before the first flush: the victim's very first
        // batch panics, so none of its analysis ever lands.
        match &mut monitor.inner {
            Inner::Sharded(engine) => engine.shards[victim].panic_next = true,
            Inner::Serial(_) => unreachable!("3 shards build the sharded engine"),
        }
        monitor.advance_to(Micros::from_secs(200));
        monitor.finish();
        assert_eq!(monitor.poisoned_shards(), 1);
        assert_eq!(monitor.metrics().shards_poisoned(), 1);

        let mut quarantined = 0;
        let mut healthy = 0;
        for event in monitor.drain_events() {
            let MonitorEvent::Connection(c) = event else {
                continue;
            };
            let i = endpoints
                .iter()
                .position(|(a, b)| {
                    c.session.contains(&format!("{}:{}", a.0, a.1))
                        && c.session.contains(&format!("{}:{}", b.0, b.1))
                })
                .expect("summary maps to a fleet connection");
            if owner[i] == victim {
                quarantined += 1;
                assert_eq!(c.report.verdict, "quarantined", "{}", c.session);
                let reason = c.report.quarantine_reason.as_deref().unwrap_or("");
                assert!(reason.contains("injected shard panic"), "{reason}");
            } else {
                healthy += 1;
                assert_ne!(c.report.verdict, "quarantined", "{}", c.session);
            }
        }
        assert!(quarantined >= 1, "the victim shard owned no connections");
        assert!(healthy >= 1, "no healthy connections survived");
        assert_eq!(quarantined + healthy, 6, "the watch must still complete");
    }
}
