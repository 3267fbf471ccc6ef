//! Unified observability layer for proxide.
//!
//! This crate is the single home for everything the workspace measures:
//!
//! * **Causal call spans** — a [`SpanId`] is allocated when a proxy
//!   invocation starts, travels inside the RPC packet header, and is
//!   stamped onto server dispatches, retransmissions, one-way
//!   notifications and replies. Spans let a test assert end-to-end
//!   causality: every reply correlates with a span that was opened by a
//!   client, and every retransmission shares the span of its original
//!   request.
//! * **Latency histograms** — a dependency-free log₂-bucket
//!   [`Histogram`] records per-service/per-op invocation latency in
//!   simulated time and answers p50/p95/p99 queries.
//! * **A single [`MetricsRegistry`]** — the network counters
//!   ([`MetricsSnapshot`]), RPC counters ([`CallStats`], [`ServeStats`])
//!   and proxy/server counters ([`ProxyStats`], [`ServerStats`]) all
//!   land in one registry, which renders them as one serializable
//!   [`RunReport`].
//!
//! The counter structs are *defined* here and re-exported by the crates
//! that populate them (`simnet`, `rpc`, `proxy-core`), so a report is a
//! plain aggregate with no cross-crate mirroring.
//!
//! On top of the registry sits the **causal trace pipeline**: the
//! simulator feeds span records and network events (in the neutral
//! [`NetEvent`] form) into a [`TraceSink`], which merges them into one
//! time-ordered [`CausalTrace`]; [`export`] renders it as Chrome Trace
//! Format JSON or a JSONL log, and [`analysis`] decomposes every
//! request into queueing/wire/server/retransmit components.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

pub mod analysis;
pub mod export;
pub mod json;
pub mod profile;
pub mod timeseries;
pub mod trace;

pub use analysis::{critical_paths, link_attribution, top_k_slowest, CriticalPath, LinkStats};
pub use export::{
    from_jsonl, timeseries_to_csv, to_chrome_json, to_jsonl, validate_chrome, validate_report,
    validate_timeseries_csv, ChromeSummary, ReportSummary, TimeSeriesCsvSummary,
};
pub use profile::{
    profile_to_folded, scope, set_ambient_profiler, validate_folded, FoldedSummary, FrameStat,
    ProfileReport, ScopeGuard,
};
pub use timeseries::{GaugeStat, TimeSeries, TimeSeriesReport, WindowReport};
pub use trace::{CausalEvent, CausalTrace, Loc, NetEvent, NetEventKind, TraceSink};

// ---------------------------------------------------------------------------
// Span identifiers
// ---------------------------------------------------------------------------

/// Identifier of one causal call span.
///
/// Span ids are allocated by [`MetricsRegistry::open_span`] starting at 1;
/// the value 0 ([`SpanId::NONE`]) means "no span" and is what a packet
/// carries when it was sent outside any tracked invocation (e.g. name
/// service traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (wire value 0).
    pub const NONE: SpanId = SpanId(0);

    /// Raw wire representation.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Builds a span id back from its wire representation.
    pub fn from_raw(raw: u64) -> SpanId {
        SpanId(raw)
    }

    /// True if this is a real span (not [`SpanId::NONE`]).
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0 {
            write!(f, "sp:-")
        } else {
            write!(f, "sp:{}", self.0)
        }
    }
}

/// What kind of work a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// A client-side proxy invocation (opened by the client runtime).
    Invoke,
    /// A server-side dispatch of one request (child of an `Invoke`).
    Dispatch,
    /// A one-way notification (invalidate / recall / custom message).
    Oneway,
}

impl SpanKind {
    /// Short lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Invoke => "invoke",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Oneway => "oneway",
        }
    }
}

/// One recorded span. All times are simulated nanoseconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Parent span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// What the span covers.
    pub kind: SpanKind,
    /// Service name (client view for invokes, process name for dispatches).
    pub service: String,
    /// Operation name.
    pub op: String,
    /// When the span was opened.
    pub start_ns: u64,
    /// When the span was closed; `None` while still open.
    pub end_ns: Option<u64>,
    /// `Some(true)` if the spanned work succeeded, `Some(false)` if it
    /// failed, `None` while open.
    pub ok: Option<bool>,
    /// Number of retransmissions that reused this span's request.
    pub retransmissions: u64,
    /// Number of replies observed for this span (matched + late).
    pub replies: u64,
}

impl SpanRecord {
    /// Span duration, if closed.
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

// ---------------------------------------------------------------------------
// Counter structs (canonical definitions, re-exported by their producers)
// ---------------------------------------------------------------------------

/// Counters maintained by the network simulator.
///
/// Produced by `simnet::Metrics::snapshot`; a [`RunReport`] embeds the
/// snapshot taken when the report was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Messages handed to the network.
    pub msgs_sent: u64,
    /// Messages delivered to a mailbox.
    pub msgs_delivered: u64,
    /// Messages dropped by loss or partitions.
    pub msgs_dropped: u64,
    /// Extra deliveries injected by duplication.
    pub msgs_duplicated: u64,
    /// Messages silently discarded by a blackhole rule.
    pub msgs_blackholed: u64,
    /// Total payload bytes handed to the network.
    pub bytes_sent: u64,
    /// Scheduler events dispatched.
    pub events_dispatched: u64,
    /// Simulated processes spawned over the run (threads and poll-driven
    /// state machines alike).
    pub processes_spawned: u64,
    /// High-water mark of simultaneously live processes — the number
    /// backing E16's memory-boundedness claim (peak × per-process state).
    ///
    /// This is a **gauge**, not a counter: [`MetricsSnapshot::since`]
    /// carries the later snapshot's level through instead of diffing it.
    pub processes_peak: u64,
    /// Events popped with a timestamp behind their domain's clock. A
    /// scheduler that respects causality never produces one; any nonzero
    /// value means the conservative-lookahead bound was violated (or a
    /// bug reordered the heap) and the run's timing data is suspect.
    pub sched_time_inversions: u64,
}

impl MetricsSnapshot {
    /// Difference between two snapshots (`self` minus the `earlier` one),
    /// saturating at zero per counter field. Gauge fields are not
    /// differences: `processes_peak` reports the later snapshot's level
    /// (the peak *as of* the window's end), because diffing a
    /// high-water mark like a counter yields 0 for any window where the
    /// peak did not rise.
    ///
    /// Destructures exhaustively so that adding a counter to the struct
    /// is a compile error here until the diff handles it too.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let MetricsSnapshot {
            msgs_sent,
            msgs_delivered,
            msgs_dropped,
            msgs_duplicated,
            msgs_blackholed,
            bytes_sent,
            events_dispatched,
            processes_spawned,
            processes_peak,
            sched_time_inversions,
        } = *self;
        let MetricsSnapshot {
            msgs_sent: e_sent,
            msgs_delivered: e_delivered,
            msgs_dropped: e_dropped,
            msgs_duplicated: e_duplicated,
            msgs_blackholed: e_blackholed,
            bytes_sent: e_bytes,
            events_dispatched: e_events,
            processes_spawned: e_spawned,
            processes_peak: _,
            sched_time_inversions: e_inversions,
        } = *earlier;
        MetricsSnapshot {
            msgs_sent: msgs_sent.saturating_sub(e_sent),
            msgs_delivered: msgs_delivered.saturating_sub(e_delivered),
            msgs_dropped: msgs_dropped.saturating_sub(e_dropped),
            msgs_duplicated: msgs_duplicated.saturating_sub(e_duplicated),
            msgs_blackholed: msgs_blackholed.saturating_sub(e_blackholed),
            bytes_sent: bytes_sent.saturating_sub(e_bytes),
            events_dispatched: events_dispatched.saturating_sub(e_events),
            processes_spawned: processes_spawned.saturating_sub(e_spawned),
            // Gauge: the peak as of the later snapshot, not a diff.
            processes_peak,
            sched_time_inversions: sched_time_inversions.saturating_sub(e_inversions),
        }
    }
}

/// Client-side RPC counters (at-most-once caller).
///
/// The registry aggregates these across every `rpc::Channel` in the
/// run; each channel also keeps its own `ChannelStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallStats {
    /// Calls issued.
    pub calls: u64,
    /// Retransmissions (attempts beyond the first).
    pub retries: u64,
    /// Calls that exhausted every attempt.
    pub timeouts: u64,
    /// Replies that matched an already-completed call id.
    pub stale_replies: u64,
    /// Non-reply packets discarded while waiting.
    pub strays_dropped: u64,
}

impl CallStats {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &CallStats) {
        let CallStats {
            calls,
            retries,
            timeouts,
            stale_replies,
            strays_dropped,
        } = *other;
        self.calls += calls;
        self.retries += retries;
        self.timeouts += timeouts;
        self.stale_replies += stale_replies;
        self.strays_dropped += strays_dropped;
    }
}

/// Server-side RPC counters (at-most-once executor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests executed for the first time.
    pub executed: u64,
    /// Duplicate requests answered from the reply cache.
    pub duplicates_suppressed: u64,
    /// Duplicate requests dropped (already acknowledged).
    pub duplicates_dropped: u64,
    /// One-way messages received.
    pub oneways: u64,
    /// Packets that failed to decode.
    pub undecodable: u64,
}

impl ServeStats {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &ServeStats) {
        let ServeStats {
            executed,
            duplicates_suppressed,
            duplicates_dropped,
            oneways,
            undecodable,
        } = *other;
        self.executed += executed;
        self.duplicates_suppressed += duplicates_suppressed;
        self.duplicates_dropped += duplicates_dropped;
        self.oneways += oneways;
        self.undecodable += undecodable;
    }
}

/// Per-proxy counters maintained by the client runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProxyStats {
    /// Invocations routed through the proxy.
    pub invocations: u64,
    /// Invocations satisfied locally (cache hit, checked-out object...).
    pub local_hits: u64,
    /// Invocations that crossed the network.
    pub remote_calls: u64,
    /// Invalidation notifications received.
    pub invalidations_rx: u64,
    /// Times the object migrated to this client.
    pub migrations: u64,
    /// Times the object was checked back in.
    pub checkins: u64,
    /// Times the proxy re-bound after losing its server.
    pub rebinds: u64,
    /// Times an adaptive proxy switched strategy.
    pub strategy_switches: u64,
    /// Datagrams the proxy received but could not service (callback
    /// requests, late duplicate replies, undecodable frames). Non-zero
    /// values flag traffic that used to vanish silently.
    pub datagrams_discarded: u64,
    /// Payloads the bulk data plane spilled to a blob store and shipped
    /// by reference instead of inline on the RPC path.
    pub bulk_spills: u64,
    /// Out-of-band references the proxy resolved (fetched chunked from a
    /// blob store) on behalf of its client.
    pub bulk_resolves: u64,
}

/// Per-service counters maintained by the service server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Operations dispatched to the service object.
    pub dispatched: u64,
    /// Dispatches that mutated state.
    pub writes: u64,
    /// Invalidation notifications sent to subscribers.
    pub invalidations_sent: u64,
    /// Successful checkouts (migrations away).
    pub checkouts: u64,
    /// Successful checkins (migrations back).
    pub checkins: u64,
    /// Recall notifications sent to the current holder.
    pub recalls_sent: u64,
    /// Requests refused because the object was checked out.
    pub unavailable: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

// ---------------------------------------------------------------------------
// Log2-bucket histogram
// ---------------------------------------------------------------------------

/// Number of buckets: bucket `i` holds values whose bit length is `i`,
/// i.e. value 0 in bucket 0, values `[2^(i-1), 2^i)` in bucket `i`.
const BUCKETS: usize = 65;

/// A fixed-size log₂-bucket histogram of `u64` samples.
///
/// Recording is O(1) and allocation-free after construction; percentile
/// queries interpolate linearly inside the winning bucket, which keeps
/// the error within the bucket's factor-of-two width. That resolution is
/// plenty for latency distributions where the interesting differences
/// are multiples, not percents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, or 0 if empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Value at quantile `q` in `[0, 1]`, linearly interpolated inside
    /// the winning log₂ bucket and clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        // The top-ranked sample IS the observed maximum; interpolation
        // inside the winning bucket would undershoot it (it estimates
        // the bucket's (n-1)/n position, never the upper edge).
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = if i == 0 {
                    0
                } else {
                    (1u64 << (i - 1)).saturating_mul(2).saturating_sub(1)
                };
                // Position of the wanted rank inside this bucket.
                let within = (rank - seen - 1) as f64 / n as f64;
                let est = lo as f64 + within * (hi.saturating_sub(lo)) as f64;
                return (est as u64).clamp(self.min(), self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Summarizes the histogram for a report.
    pub fn summary(&self) -> OpLatency {
        OpLatency {
            count: self.count(),
            min_ns: self.min(),
            max_ns: self.max(),
            mean_ns: self.mean(),
            p50_ns: self.p50(),
            p95_ns: self.p95(),
            p99_ns: self.p99(),
        }
    }
}

/// Latency summary for one `(service, op)` pair, in simulated nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpLatency {
    /// Samples recorded.
    pub count: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Mean.
    pub mean_ns: u64,
    /// Median estimate.
    pub p50_ns: u64,
    /// 95th percentile estimate.
    pub p95_ns: u64,
    /// 99th percentile estimate.
    pub p99_ns: u64,
}

// ---------------------------------------------------------------------------
// Slow-call watchdog
// ---------------------------------------------------------------------------

/// Configuration of the slow-call watchdog.
///
/// When enabled, every closing `Invoke` span is compared against a
/// threshold and pinned as an [`Exemplar`] when it exceeds it. The
/// threshold is the *lower* of the two triggers that apply:
///
/// * `multiplier × rolling p99` of the span's `(service, op)` histogram,
///   armed only once the histogram holds at least `min_samples` samples
///   (the p99 of three calls is noise, not a baseline);
/// * an absolute SLO in nanoseconds, if one is set.
///
/// The rolling p99 is computed *before* the closing span's own sample is
/// recorded, so an outlier cannot raise the bar it is judged against.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Trigger factor over the rolling p99 (e.g. 3.0).
    pub multiplier: f64,
    /// Absolute latency SLO in nanoseconds, if any.
    pub slo_ns: Option<u64>,
    /// Samples the `(service, op)` histogram must hold before the
    /// relative trigger arms.
    pub min_samples: u64,
    /// Exemplar capacity; once full, further slow calls only bump
    /// [`RunReport::exemplars_suppressed`].
    pub max_exemplars: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            multiplier: 3.0,
            slo_ns: None,
            min_samples: 32,
            max_exemplars: 16,
        }
    }
}

/// Queue/wire/server/retransmit decomposition of an exemplar's span,
/// copied from [`analysis::critical_paths`]. The four components tile
/// the span exactly: they sum to the exemplar's `latency_ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExemplarBreakdown {
    /// Time spent queued client-side before hitting the wire.
    pub queue_ns: u64,
    /// Time on the wire (requests and replies).
    pub wire_ns: u64,
    /// Time executing server-side.
    pub server_ns: u64,
    /// Time lost to retransmission gaps.
    pub retransmit_ns: u64,
    /// Retransmissions on the span's critical path.
    pub retransmissions: u64,
    /// Datagram drops attributed to the span.
    pub drops: u64,
}

/// One slow call pinned by the watchdog: the span, why it tripped, and
/// (once [`RunReport::attach_exemplars`] has run) where the time went.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exemplar {
    /// The offending invoke span.
    pub span: SpanId,
    /// Service the call targeted.
    pub service: String,
    /// Operation invoked.
    pub op: String,
    /// When the call started (simulated nanoseconds).
    pub start_ns: u64,
    /// Observed end-to-end latency.
    pub latency_ns: u64,
    /// The threshold the call exceeded.
    pub threshold_ns: u64,
    /// Rolling p99 at trip time (0 if the relative trigger was unarmed).
    pub p99_ns: u64,
    /// Which trigger tripped: `"p99"` or `"slo"`.
    pub trigger: &'static str,
    /// Whether the call ultimately succeeded.
    pub ok: bool,
    /// Causal decomposition; `None` until attached from a trace.
    pub breakdown: Option<ExemplarBreakdown>,
}

/// Provenance of a run, stamped into [`RunReport`] and `BENCH_*.json`
/// artifacts so tooling can refuse to compare incomparable runs.
/// Everything is optional: fields the harness cannot know stay absent
/// rather than inventing values.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMeta {
    /// RNG seed the simulation ran with.
    pub seed: Option<u64>,
    /// Workload mode label (e.g. `"full"` / `"smoke"`).
    pub mode: Option<String>,
    /// Hash of the workload configuration.
    pub config_hash: Option<String>,
    /// Git revision of the tree, when available.
    pub git_rev: Option<String>,
    /// ISO date supplied by the harness, when available.
    pub date: Option<String>,
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// How a reply related to the span it carried when it was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// Reply for a span that was still open — the normal case.
    Matched,
    /// Reply for a span that had already closed (duplicate or stale).
    Late,
    /// Reply carried a span id the registry never allocated.
    UnknownSpan,
    /// Reply carried no span (sent outside any tracked invocation).
    Untracked,
}

/// Per-`(service, op)` fold of retired spans.
///
/// When span retirement is on ([`MetricsRegistry::enable_retirement`]),
/// a closed span is evicted from the table and everything the report
/// still needs from it lands here, so the totals in [`SpanReport`] are
/// exact even though the records themselves are gone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RetiredAgg {
    /// Invoke spans folded in.
    invokes: u64,
    /// Dispatch spans folded in.
    dispatches: u64,
    /// One-way spans folded in.
    oneways: u64,
    /// Retransmissions the folded spans had accumulated at close time.
    retransmissions: u64,
}

/// One statistics stripe. Every `(service, op)` key lives wholly in one
/// stripe (picked by key hash), so per-key state — the latency
/// histogram the watchdog judges against and the retired-span
/// aggregate — never needs cross-stripe merging and the report merge
/// stays deterministic for any stripe count.
#[derive(Debug, Default)]
struct StatStripe {
    /// Per `(service, op)` latency histograms.
    hists: HashMap<(String, String), Histogram>,
    /// Per `(service, op)` folds of retired spans.
    retired: HashMap<(String, String), RetiredAgg>,
}

/// One stripe of the hot RPC counters. Cache-line aligned so stripes on
/// different cores never false-share; every field is a relaxed atomic
/// because the counters are pure sums with no cross-field invariants.
#[derive(Debug, Default)]
#[repr(align(128))]
struct CounterCell {
    calls: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    stale_replies: AtomicU64,
    strays_dropped: AtomicU64,
    executed: AtomicU64,
    duplicates_suppressed: AtomicU64,
    duplicates_dropped: AtomicU64,
    oneways: AtomicU64,
    undecodable: AtomicU64,
    replies_matched: AtomicU64,
    replies_late: AtomicU64,
    replies_unknown_span: AtomicU64,
    replies_untracked: AtomicU64,
}

/// Cold, rarely-written registry state behind a single mutex: published
/// snapshots, the flight recorder, the watchdog and its exemplars, and
/// run provenance. Nothing on the per-call hot path touches this lock
/// unless the corresponding feature is armed.
#[derive(Debug, Default)]
struct MiscInner {
    /// Last published per-proxy stats, keyed `service@owner`.
    proxies: BTreeMap<String, ProxyStats>,
    /// Last published per-service server stats, keyed by service name.
    servers: BTreeMap<String, ServerStats>,
    /// Slow-call watchdog, when enabled.
    watchdog: Option<WatchdogConfig>,
    /// Exemplars the watchdog has pinned so far.
    exemplars: Vec<Exemplar>,
    /// Slow calls seen after the exemplar buffer filled.
    exemplars_suppressed: u64,
    /// Run provenance stamped by the harness.
    meta: RunMeta,
}

/// Self-measurement of the observability plane: what the plane itself
/// costs, reported as first-class gauges inside the report it produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsPlaneReport {
    /// Closed spans folded into per-`(service, op)` aggregates and
    /// evicted from the span table.
    pub spans_retired: u64,
    /// Closed spans the retirement sampler kept resident (exemplars for
    /// the flight recorder and critical-path analysis).
    pub spans_sampled: u64,
    /// Spans resident in the table at report time (open + sampled).
    pub spans_resident: u64,
    /// High-water mark of resident spans over the run.
    pub spans_resident_peak: u64,
    /// Estimated resident span-table bytes at report time (record
    /// struct plus its service/op string payloads).
    pub span_table_bytes: u64,
    /// High-water mark of the span-table byte estimate.
    pub span_table_bytes_peak: u64,
    /// Wall-clock nanoseconds spent inside registry calls while
    /// self-measurement was on (0 when it never was).
    pub self_ns: u64,
    /// Registry calls timed by self-measurement.
    pub self_calls: u64,
}

/// Default number of span-table shards.
const DEFAULT_SPAN_SHARDS: usize = 16;
/// Default number of `(service, op)` statistic stripes.
const DEFAULT_STAT_STRIPES: usize = 8;
/// Number of hot-counter stripes (fixed; must be a power of two).
const COUNTER_STRIPES: usize = 8;

/// FNV-1a over a `(service, op)` key, for stripe selection.
fn key_hash(service: &str, op: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(service.as_bytes());
    eat(&[0xff]);
    eat(op.as_bytes());
    h
}

/// Byte estimate of one resident span record: the struct itself plus
/// its heap-owned string payloads. Deliberately `len`-based (not
/// capacity) so the estimate is identical across shard counts.
fn span_bytes(rec: &SpanRecord) -> u64 {
    (std::mem::size_of::<SpanRecord>() + rec.service.len() + rec.op.len()) as u64
}

/// The process-wide sink for spans, histograms and counters.
///
/// One registry is shared by every process of a simulation (it hangs off
/// the scheduler's shared state), so a single [`RunReport`] covers the
/// whole run. All methods take `&self`; interior mutability keeps the
/// call sites free of plumbing.
///
/// Internally the registry is sharded so a million-client run can leave
/// it on: span records live in id-keyed shards, per-`(service, op)`
/// statistics (histograms, retirement aggregates, the watchdog's
/// rolling p99) live in key-hashed stripes, and the hot RPC counters
/// are striped relaxed atomics. [`MetricsRegistry::report`] merges all
/// of it deterministically: every per-key statistic lives wholly in one
/// stripe, every cross-shard sum is commutative, and map output is
/// key-ordered — so the report is byte-identical for any shard or
/// stripe count.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// High-water mark of allocated span ids (ids are lane-striped, so
    /// this is a watermark, not a count — see [`MetricsRegistry::span_count`]
    /// for the count). Used by the reply/retransmit plausibility checks:
    /// any id above the watermark was certainly never allocated.
    next_span: AtomicU64,
    /// Mirrors "the flight recorder is on" so hot paths can skip the
    /// lane lock (and the series-name formatting feeding it) with a
    /// single relaxed load when the recorder is off.
    ts_enabled: AtomicBool,
    /// Mirrors `misc.watchdog.is_some()` for the same reason.
    wd_enabled: AtomicBool,
    /// Master switch: when off the whole plane is inert — `open_span`
    /// returns [`SpanId::NONE`] and every recording call is a no-op.
    enabled: AtomicBool,
    // -- retirement --
    retire_enabled: AtomicBool,
    /// Keep every nth closed span resident (0 = keep none).
    retire_keep_every: AtomicU64,
    retired: AtomicU64,
    sampled_kept: AtomicU64,
    /// Retransmissions noted for spans already retired (attributable to
    /// the run but no longer to a record).
    retired_retransmissions: AtomicU64,
    // -- self-measurement --
    sm_enabled: AtomicBool,
    self_ns: AtomicU64,
    self_calls: AtomicU64,
    // -- continuous profiler (see [`profile`]) --
    /// Mirrors "the profiler is on" for the hot-path relaxed-load check
    /// ([`MetricsRegistry::profile_enabled`]), like `ts_enabled`.
    prof_enabled: AtomicBool,
    /// Per-lane frame-table bound, preserved across `set_writer_lanes`.
    prof_max_frames: AtomicU64,
    /// Wall time the profiler spent folding (its own overhead).
    prof_self_ns: AtomicU64,
    prof_self_calls: AtomicU64,
    // -- writer lanes --
    /// Per-lane sequenced state. Each concurrent deterministic writer
    /// (a scheduler domain) owns one lane, selected by the thread's
    /// ambient lane ([`set_ambient_lane`]): span-id striping, the
    /// retirement sampler's close sequence, residency gauges, and the
    /// flight recorder all advance per lane so parallel domains never
    /// interleave on order-sensitive state. One lane (the default)
    /// reproduces the unstriped behavior exactly. Unlike the shard /
    /// stripe layout, the lane count is part of the run configuration:
    /// it changes span ids and sampling decisions, the way a different
    /// seed would.
    lanes: Box<[WriterLane]>,
    // -- sharded state --
    span_shards: Box<[Mutex<HashMap<u64, SpanRecord>>]>,
    stripes: Box<[Mutex<StatStripe>]>,
    counters: Box<[CounterCell]>,
    misc: Mutex<MiscInner>,
}

/// Per-writer-lane sequenced state (see [`MetricsRegistry::lanes`]).
#[derive(Debug, Default)]
struct WriterLane {
    /// Spans this lane has opened; span id = `count * nlanes + lane + 1`.
    spans_opened: AtomicU64,
    /// Lane-local close sequence driving the keep-every-nth retirement
    /// sampler (lane-local so the decision is independent of how the
    /// other lanes interleave; still independent of the shard count).
    closed_seq: AtomicU64,
    // Residency gauges. A span is opened, closed and retired by the
    // same simulated process, hence the same lane, so lane-local
    // current values are exact; the cross-lane peak is reported as the
    // sum of lane peaks — a deterministic upper bound on the true
    // concurrent peak (exact with one lane).
    resident: AtomicU64,
    resident_peak: AtomicU64,
    table_bytes: AtomicU64,
    table_bytes_peak: AtomicU64,
    /// This lane's slice of the flight recorder, when enabled. Reports
    /// merge the lanes deterministically (see [`TimeSeries::merged`]).
    timeseries: Mutex<Option<TimeSeries>>,
    /// This lane's slice of the continuous profiler, when enabled
    /// (bounded folded-stack table; see [`profile::ProfileLane`]).
    profile: Mutex<Option<profile::ProfileLane>>,
}

thread_local! {
    /// The lane this thread writes to; see [`set_ambient_lane`].
    static AMBIENT_LANE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Declares which writer lane the calling thread records into (clamped
/// modulo the registry's lane count at use). The simulator sets this on
/// every thread that executes a scheduler domain — worker threads before
/// each domain round, simulated-process threads once at spawn — so that
/// all order-sensitive observability state advances deterministically
/// per domain. Threads that never call this write to lane 0.
pub fn set_ambient_lane(lane: usize) {
    AMBIENT_LANE.with(|l| l.set(lane));
}

/// The calling thread's current writer lane (unclamped).
pub fn ambient_lane() -> usize {
    AMBIENT_LANE.with(|l| l.get())
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::with_layout(DEFAULT_SPAN_SHARDS, DEFAULT_STAT_STRIPES)
    }
}

impl Drop for MetricsRegistry {
    fn drop(&mut self) {
        // Keep the process-wide "any profiler armed" fast-path count
        // balanced when an armed registry goes away (see `profile`).
        if self.prof_enabled.load(Ordering::Relaxed) {
            profile::active_dec();
        }
    }
}

/// What `close_span` carries out of the span-shard phase into the
/// stripe phase.
struct ClosedSpan {
    kind: SpanKind,
    start_ns: u64,
    service: String,
    op: String,
    /// `Some(retransmissions)` when the record was retired and must be
    /// folded into the stripe's aggregate.
    fold_retransmissions: Option<u64>,
}

impl MetricsRegistry {
    /// A fresh registry with the default shard layout.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A registry with an explicit shard layout (rounded up to powers
    /// of two, clamped to at least 1). The layout affects contention and
    /// memory granularity only — never the report: byte-identical
    /// output for any layout is a tested invariant.
    pub fn with_layout(span_shards: usize, stat_stripes: usize) -> MetricsRegistry {
        let span_shards = span_shards.clamp(1, 1 << 16).next_power_of_two();
        let stat_stripes = stat_stripes.clamp(1, 1 << 16).next_power_of_two();
        MetricsRegistry {
            next_span: AtomicU64::new(0),
            ts_enabled: AtomicBool::new(false),
            wd_enabled: AtomicBool::new(false),
            enabled: AtomicBool::new(true),
            retire_enabled: AtomicBool::new(false),
            retire_keep_every: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            sampled_kept: AtomicU64::new(0),
            retired_retransmissions: AtomicU64::new(0),
            sm_enabled: AtomicBool::new(false),
            self_ns: AtomicU64::new(0),
            self_calls: AtomicU64::new(0),
            prof_enabled: AtomicBool::new(false),
            prof_max_frames: AtomicU64::new(0),
            prof_self_ns: AtomicU64::new(0),
            prof_self_calls: AtomicU64::new(0),
            lanes: (0..1).map(|_| WriterLane::default()).collect(),
            span_shards: (0..span_shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            stripes: (0..stat_stripes)
                .map(|_| Mutex::new(StatStripe::default()))
                .collect(),
            counters: (0..COUNTER_STRIPES)
                .map(|_| CounterCell::default())
                .collect(),
            misc: Mutex::new(MiscInner::default()),
        }
    }

    /// Sets the number of writer lanes (clamped to ≥ 1). One lane per
    /// concurrent deterministic writer — the simulator calls this with
    /// its domain count before any span opens. Unlike the shard/stripe
    /// layout this is run *configuration*: span ids are striped across
    /// lanes and the retirement sampler advances per lane, so a
    /// different lane count is a different (equally valid) run. Must be
    /// called before recording starts — it resets lane-sequenced state.
    pub fn set_writer_lanes(&mut self, n: usize) {
        let n = n.max(1);
        let recorder = self.lanes[0]
            .timeseries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|ts| (ts.width_ns(), ts.capacity()));
        self.lanes = (0..n).map(|_| WriterLane::default()).collect();
        if let Some((width, cap)) = recorder {
            self.enable_timeseries(width, cap);
        }
        self.prof_rearm_lanes();
    }

    /// How many writer lanes the registry has.
    pub fn writer_lanes(&self) -> usize {
        self.lanes.len()
    }

    #[inline]
    fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn shard(&self, id: u64) -> std::sync::MutexGuard<'_, HashMap<u64, SpanRecord>> {
        let idx = (id as usize).wrapping_sub(1) & (self.span_shards.len() - 1);
        self.span_shards[idx]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn stripe(&self, service: &str, op: &str) -> std::sync::MutexGuard<'_, StatStripe> {
        let idx = (key_hash(service, op) as usize) & (self.stripes.len() - 1);
        self.stripes[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn misc(&self) -> std::sync::MutexGuard<'_, MiscInner> {
        self.misc.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The calling thread's writer-lane index.
    #[inline]
    fn lane_idx(&self) -> usize {
        ambient_lane() % self.lanes.len()
    }

    /// The calling thread's writer lane.
    #[inline]
    fn lane(&self) -> &WriterLane {
        &self.lanes[self.lane_idx()]
    }

    /// The calling thread's counter stripe. Threads are assigned
    /// round-robin on first use; the report sums all stripes, so the
    /// assignment never shows in the output.
    fn cell(&self) -> &CounterCell {
        use std::cell::Cell;
        use std::sync::atomic::AtomicUsize;
        thread_local! {
            static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let idx = STRIPE.with(|s| {
            let mut i = s.get();
            if i == usize::MAX {
                i = NEXT.fetch_add(1, Ordering::Relaxed);
                s.set(i);
            }
            i
        });
        &self.counters[idx & (COUNTER_STRIPES - 1)]
    }

    #[inline]
    fn sm_start(&self) -> Option<std::time::Instant> {
        if self.sm_enabled.load(Ordering::Relaxed) {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    #[inline]
    fn sm_end(&self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.self_ns.fetch_add(ns, Ordering::Relaxed);
            self.self_calls.fetch_add(1, Ordering::Relaxed);
            // Piggyback the already-measured duration into the profiler
            // (zero extra clock reads for the measured section itself).
            if self.profile_enabled() {
                self.prof_fold("obs;self_measure", 1, ns);
            }
        }
    }

    /// Bookkeeping for a record leaving the table. Retire happens on
    /// the same lane that opened the span (same simulated process), so
    /// the lane-local residency gauges stay exact.
    fn note_evicted(&self, rec: &SpanRecord) {
        let lane = self.lane();
        self.retired.fetch_add(1, Ordering::Relaxed);
        lane.resident.fetch_sub(1, Ordering::Relaxed);
        lane.table_bytes
            .fetch_sub(span_bytes(rec), Ordering::Relaxed);
    }

    /// The keep-every-nth retirement sampling decision for the next
    /// closed span (also advances the calling lane's close sequence;
    /// lane-local so the decision is independent of how concurrent
    /// lanes interleave, and of the shard count as before).
    fn retire_keeps(&self) -> bool {
        let seq = self.lane().closed_seq.fetch_add(1, Ordering::Relaxed) + 1;
        match self.retire_keep_every.load(Ordering::Relaxed) {
            0 => false,
            n => seq.is_multiple_of(n),
        }
    }

    // -- switches ----------------------------------------------------------

    /// Master switch for the whole plane. When off, `open_span` returns
    /// [`SpanId::NONE`] (which makes every downstream span call a no-op)
    /// and counters stop accumulating — the obs-off leg of overhead
    /// experiments. On by default.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// True when the plane is recording (the default).
    pub fn is_enabled(&self) -> bool {
        self.on()
    }

    /// Arms span retirement: closed `Invoke`/`Dispatch`/`Oneway` spans
    /// fold into per-`(service, op)` aggregates and are evicted from the
    /// table, keeping the resident working set O(open spans + sampled
    /// exemplars) instead of O(total calls). `keep_every = n` keeps
    /// every nth closed span resident as a sampled exemplar for traces
    /// (`0` keeps none). Off by default — without retirement every span
    /// stays resident, the pre-retirement behavior.
    pub fn enable_retirement(&self, keep_every: u64) {
        self.retire_keep_every.store(keep_every, Ordering::Relaxed);
        self.retire_enabled.store(true, Ordering::Relaxed);
    }

    /// True when span retirement is armed.
    pub fn retirement_enabled(&self) -> bool {
        self.retire_enabled.load(Ordering::Relaxed)
    }

    /// Arms self-measurement: every registry call is timed with a
    /// monotonic clock and accumulated into the `self_ns`/`self_calls`
    /// gauges of [`ObsPlaneReport`]. Off by default (two clock reads
    /// per call are not free — that is the point of measuring).
    pub fn enable_self_measure(&self) {
        self.sm_enabled.store(true, Ordering::Relaxed);
    }

    // -- spans ------------------------------------------------------------

    /// Opens a span and returns its id (never [`SpanId::NONE`] while the
    /// plane is enabled; always [`SpanId::NONE`] when disabled).
    pub fn open_span(
        &self,
        kind: SpanKind,
        parent: SpanId,
        service: &str,
        op: &str,
        now_ns: u64,
    ) -> SpanId {
        if !self.on() {
            return SpanId::NONE;
        }
        let t0 = self.sm_start();
        // Ids are striped across writer lanes: lane `l` of `n` allocates
        // `count*n + l + 1`, so concurrent lanes never contend and every
        // lane's sequence is deterministic. One lane degenerates to the
        // dense `count + 1` sequence. `next_span` tracks the high-water
        // mark for the plausibility checks.
        let li = self.lane_idx();
        let lane = &self.lanes[li];
        let nlanes = self.lanes.len() as u64;
        let count = lane.spans_opened.fetch_add(1, Ordering::Relaxed);
        let id = SpanId(count * nlanes + li as u64 + 1);
        self.next_span.fetch_max(id.0, Ordering::Relaxed);
        let rec = SpanRecord {
            id,
            parent,
            kind,
            service: service.to_string(),
            op: op.to_string(),
            start_ns: now_ns,
            end_ns: None,
            ok: None,
            retransmissions: 0,
            replies: 0,
        };
        let bytes = span_bytes(&rec);
        self.shard(id.0).insert(id.0, rec);
        let resident = lane.resident.fetch_add(1, Ordering::Relaxed) + 1;
        lane.resident_peak.fetch_max(resident, Ordering::Relaxed);
        let total = lane.table_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        lane.table_bytes_peak.fetch_max(total, Ordering::Relaxed);
        self.sm_end(t0);
        id
    }

    /// Closes a span and, for `Invoke` and `Dispatch` spans, records its
    /// duration into the `(service, op)` histogram. Closing
    /// [`SpanId::NONE`] or an already-closed span is a no-op. When
    /// retirement is armed the closed record folds into its stripe's
    /// aggregate and leaves the table (unless the sampler keeps it).
    pub fn close_span(&self, id: SpanId, now_ns: u64, ok: bool) {
        if !id.is_some() || !self.on() {
            return;
        }
        let t0 = self.sm_start();
        // Phase 1 — span shard: close the record, decide retirement.
        let closed: ClosedSpan = {
            let mut shard = self.shard(id.0);
            let retire;
            let kind;
            let start_ns;
            {
                let Some(rec) = shard.get_mut(&id.0) else {
                    self.sm_end(t0);
                    return;
                };
                if rec.end_ns.is_some() {
                    self.sm_end(t0);
                    return;
                }
                rec.end_ns = Some(now_ns);
                rec.ok = Some(ok);
                kind = rec.kind;
                start_ns = rec.start_ns;
                retire = self.retire_enabled.load(Ordering::Relaxed)
                    && matches!(kind, SpanKind::Invoke | SpanKind::Dispatch);
            }
            if retire && !self.retire_keeps() {
                let rec = shard.remove(&id.0).expect("record just closed");
                self.note_evicted(&rec);
                ClosedSpan {
                    kind,
                    start_ns,
                    service: rec.service,
                    op: rec.op,
                    fold_retransmissions: Some(rec.retransmissions),
                }
            } else {
                if retire {
                    self.sampled_kept.fetch_add(1, Ordering::Relaxed);
                }
                let rec = shard.get(&id.0).expect("record just closed");
                ClosedSpan {
                    kind,
                    start_ns,
                    service: rec.service.clone(),
                    op: rec.op.clone(),
                    fold_retransmissions: None,
                }
            }
        };
        let dur = now_ns.saturating_sub(closed.start_ns);
        // The watchdog judges the closing call against the p99 of the
        // calls *before* it, so the outlier cannot raise its own bar.
        let wd = if closed.kind == SpanKind::Invoke && self.wd_enabled.load(Ordering::Relaxed) {
            self.misc().watchdog
        } else {
            None
        };
        // Phase 2 — stat stripe: watchdog judgment, histogram, fold.
        let key = (closed.service, closed.op);
        let mut tripped: Option<(u64, &'static str, u64)> = None;
        {
            let mut stripe = self.stripe(&key.0, &key.1);
            if let Some(cfg) = wd {
                let p99 = stripe
                    .hists
                    .get(&key)
                    .filter(|h| h.count() >= cfg.min_samples)
                    .map(|h| h.p99())
                    .unwrap_or(0);
                let rel = if p99 > 0 {
                    Some((cfg.multiplier * p99 as f64) as u64)
                } else {
                    None
                };
                tripped = match (rel, cfg.slo_ns) {
                    (Some(r), Some(s)) if dur > r.min(s) => Some(if r <= s {
                        (r, "p99", p99)
                    } else {
                        (s, "slo", p99)
                    }),
                    (Some(r), None) if dur > r => Some((r, "p99", p99)),
                    (None, Some(s)) if dur > s => Some((s, "slo", p99)),
                    _ => None,
                };
            }
            if matches!(closed.kind, SpanKind::Invoke | SpanKind::Dispatch) {
                stripe.hists.entry(key.clone()).or_default().record(dur);
            }
            if let Some(retx) = closed.fold_retransmissions {
                let agg = stripe.retired.entry(key.clone()).or_default();
                match closed.kind {
                    SpanKind::Invoke => agg.invokes += 1,
                    SpanKind::Dispatch => agg.dispatches += 1,
                    SpanKind::Oneway => agg.oneways += 1,
                }
                agg.retransmissions += retx;
            }
        }
        // Phase 3 — misc: exemplar pinning and the flight recorder.
        if let Some((threshold_ns, trigger, p99)) = tripped {
            let mut misc = self.misc();
            let cap = misc.watchdog.map_or(0, |c| c.max_exemplars);
            if misc.exemplars.len() < cap {
                let exemplar = Exemplar {
                    span: id,
                    service: key.0.clone(),
                    op: key.1.clone(),
                    start_ns: closed.start_ns,
                    latency_ns: dur,
                    threshold_ns,
                    p99_ns: p99,
                    trigger,
                    ok,
                    breakdown: None,
                };
                misc.exemplars.push(exemplar);
            } else {
                misc.exemplars_suppressed += 1;
            }
        }
        if closed.kind == SpanKind::Invoke && self.ts_enabled.load(Ordering::Relaxed) {
            let mut guard = self
                .lane()
                .timeseries
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(ts) = guard.as_mut() {
                let outcome = if ok { "calls_ok" } else { "calls_err" };
                ts.add(now_ns, &format!("{outcome}@{}", key.0), 1);
                ts.observe(now_ns, &format!("latency@{}", key.0), dur);
            }
        }
        self.sm_end(t0);
    }

    /// Notes a retransmission of the request belonging to `id`. A span
    /// already retired counts toward the run total without a record to
    /// land on.
    pub fn span_retransmit(&self, id: SpanId) {
        if !id.is_some() || !self.on() {
            return;
        }
        let t0 = self.sm_start();
        let mut shard = self.shard(id.0);
        match shard.get_mut(&id.0) {
            Some(rec) => rec.retransmissions += 1,
            None => {
                if id.0 <= self.next_span.load(Ordering::Relaxed) {
                    self.retired_retransmissions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(shard);
        self.sm_end(t0);
    }

    /// Like [`MetricsRegistry::span_retransmit`], but with a timestamp
    /// so the retransmission also lands in the `retx@<service>` window
    /// of the flight recorder (when enabled).
    pub fn span_retransmit_at(&self, id: SpanId, now_ns: u64) {
        if !id.is_some() || !self.on() {
            return;
        }
        let t0 = self.sm_start();
        let mut service: Option<String> = None;
        {
            let mut shard = self.shard(id.0);
            match shard.get_mut(&id.0) {
                Some(rec) => {
                    rec.retransmissions += 1;
                    if self.ts_enabled.load(Ordering::Relaxed) {
                        service = Some(rec.service.clone());
                    }
                }
                None => {
                    if id.0 <= self.next_span.load(Ordering::Relaxed) {
                        self.retired_retransmissions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if let Some(service) = service {
            self.ts_add(now_ns, &format!("retx@{service}"), 1);
        }
        self.sm_end(t0);
    }

    /// Notes a reply observed for the raw wire span `raw` and classifies
    /// it against the registry's span table. A reply for a span that was
    /// allocated but has since been retired is `Late` — retirement only
    /// ever evicts *closed* spans, so any further reply is by definition
    /// a duplicate or stale one.
    pub fn span_reply(&self, raw: u64, _now_ns: u64) -> ReplyKind {
        if !self.on() {
            return ReplyKind::Untracked;
        }
        let t0 = self.sm_start();
        let kind = if raw == 0 {
            self.cell()
                .replies_untracked
                .fetch_add(1, Ordering::Relaxed);
            ReplyKind::Untracked
        } else if raw > self.next_span.load(Ordering::Relaxed) {
            self.cell()
                .replies_unknown_span
                .fetch_add(1, Ordering::Relaxed);
            ReplyKind::UnknownSpan
        } else {
            let mut shard = self.shard(raw);
            match shard.get_mut(&raw) {
                Some(rec) => {
                    rec.replies += 1;
                    if rec.end_ns.is_some() {
                        self.cell().replies_late.fetch_add(1, Ordering::Relaxed);
                        ReplyKind::Late
                    } else {
                        self.cell().replies_matched.fetch_add(1, Ordering::Relaxed);
                        ReplyKind::Matched
                    }
                }
                None => {
                    self.cell().replies_late.fetch_add(1, Ordering::Relaxed);
                    ReplyKind::Late
                }
            }
        };
        self.sm_end(t0);
        kind
    }

    /// Records a one-way notification as an immediately-closed span
    /// parented to `parent` (commonly the dispatch span that triggered
    /// the notification). Returns the new span's id.
    pub fn note_oneway(&self, parent: SpanId, service: &str, op: &str, now_ns: u64) -> SpanId {
        if !self.on() {
            return SpanId::NONE;
        }
        let id = self.open_span(SpanKind::Oneway, parent, service, op, now_ns);
        let t0 = self.sm_start();
        let mut fold = false;
        {
            let mut shard = self.shard(id.0);
            if let Some(rec) = shard.get_mut(&id.0) {
                // Close without touching the latency histograms: a
                // one-way has no observable duration.
                rec.end_ns = Some(now_ns);
                rec.ok = Some(true);
                if self.retire_enabled.load(Ordering::Relaxed) {
                    if self.retire_keeps() {
                        self.sampled_kept.fetch_add(1, Ordering::Relaxed);
                    } else {
                        let rec = shard.remove(&id.0).expect("record just closed");
                        self.note_evicted(&rec);
                        fold = true;
                    }
                }
            }
        }
        if fold {
            self.stripe(service, op)
                .retired
                .entry((service.to_string(), op.to_string()))
                .or_default()
                .oneways += 1;
        }
        self.sm_end(t0);
        id
    }

    /// Visits every resident span in ascending id order. This replaces
    /// the old `spans()` full-table clone: the visitor borrows each
    /// record in place (one shard lock at a time), so building a trace
    /// or checking invariants costs O(resident), not O(all-time) heap.
    pub fn for_each_span(&self, mut f: impl FnMut(&SpanRecord)) {
        let mut ids: Vec<u64> = Vec::new();
        for shard in self.span_shards.iter() {
            let s = shard.lock().unwrap_or_else(|e| e.into_inner());
            ids.extend(s.keys().copied());
        }
        ids.sort_unstable();
        for id in ids {
            let s = self.shard(id);
            if let Some(rec) = s.get(&id) {
                f(rec);
            }
        }
    }

    /// Copy of one resident span record, if `id` is still in the table.
    pub fn span_record(&self, id: SpanId) -> Option<SpanRecord> {
        if !id.is_some() {
            return None;
        }
        self.shard(id.0).get(&id.0).cloned()
    }

    /// Number of spans opened so far (summed over writer lanes).
    pub fn span_count(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.spans_opened.load(Ordering::Relaxed))
            .sum()
    }

    /// Spans currently resident in the table (open + retained).
    pub fn resident_spans(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.resident.load(Ordering::Relaxed))
            .sum()
    }

    /// The plane's self-measurement gauges, as they stand right now.
    /// Current values are exact lane sums; the peaks are the sum of
    /// per-lane peaks — a deterministic upper bound on the true
    /// concurrent peak (exact with one writer lane).
    pub fn obs_plane(&self) -> ObsPlaneReport {
        let lsum = |field: fn(&WriterLane) -> &AtomicU64| -> u64 {
            self.lanes
                .iter()
                .map(|l| field(l).load(Ordering::Relaxed))
                .sum()
        };
        ObsPlaneReport {
            spans_retired: self.retired.load(Ordering::Relaxed),
            spans_sampled: self.sampled_kept.load(Ordering::Relaxed),
            spans_resident: lsum(|l| &l.resident),
            spans_resident_peak: lsum(|l| &l.resident_peak),
            span_table_bytes: lsum(|l| &l.table_bytes),
            span_table_bytes_peak: lsum(|l| &l.table_bytes_peak),
            self_ns: self.self_ns.load(Ordering::Relaxed),
            self_calls: self.self_calls.load(Ordering::Relaxed),
        }
    }

    /// Checks the structural causality invariants of the span table and
    /// returns a human-readable description of each violation:
    ///
    /// * every parent reference points at an allocated span,
    /// * a child span never starts before its parent (when the parent is
    ///   still resident — a retired parent was a valid closed span),
    /// * every `Dispatch` span has an `Invoke` or `Dispatch` parent,
    /// * no reply was observed for a span id that was never allocated.
    pub fn verify_causality(&self) -> Vec<String> {
        let allocated = self.next_span.load(Ordering::Relaxed);
        let mut spans: Vec<SpanRecord> = Vec::new();
        self.for_each_span(|rec| spans.push(rec.clone()));
        let by_id: HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, r)| (r.id.0, i)).collect();
        let mut violations = Vec::new();
        for rec in &spans {
            if rec.parent.is_some() {
                if rec.parent.0 > allocated {
                    violations.push(format!(
                        "{} ({} {}/{}) has unallocated parent {}",
                        rec.id,
                        rec.kind.label(),
                        rec.service,
                        rec.op,
                        rec.parent
                    ));
                } else if let Some(&pi) = by_id.get(&rec.parent.0) {
                    let parent = &spans[pi];
                    if rec.start_ns < parent.start_ns {
                        violations.push(format!(
                            "{} starts at {}ns before its parent {} at {}ns",
                            rec.id, rec.start_ns, parent.id, parent.start_ns
                        ));
                    }
                    if rec.kind == SpanKind::Dispatch && parent.kind == SpanKind::Oneway {
                        violations.push(format!(
                            "dispatch {} is parented to one-way {}",
                            rec.id, parent.id
                        ));
                    }
                }
                // An allocated-but-absent parent was retired: it closed
                // validly, nothing left to cross-check.
            }
        }
        let unknown: u64 = self
            .counters
            .iter()
            .map(|c| c.replies_unknown_span.load(Ordering::Relaxed))
            .sum();
        if unknown > 0 {
            violations.push(format!(
                "{unknown} replies carried span ids never allocated"
            ));
        }
        violations
    }

    // -- latency ----------------------------------------------------------

    /// Records a latency sample for `(service, op)` directly (spans do
    /// this automatically when closed).
    pub fn record_latency(&self, service: &str, op: &str, ns: u64) {
        if !self.on() {
            return;
        }
        let t0 = self.sm_start();
        self.stripe(service, op)
            .hists
            .entry((service.to_string(), op.to_string()))
            .or_default()
            .record(ns);
        self.sm_end(t0);
    }

    /// Copy of the histogram for `(service, op)`, if any sample landed.
    pub fn histogram(&self, service: &str, op: &str) -> Option<Histogram> {
        self.stripe(service, op)
            .hists
            .get(&(service.to_string(), op.to_string()))
            .cloned()
    }

    // -- flight recorder ---------------------------------------------------

    /// Turns on the windowed flight recorder with `width_ns`-wide
    /// windows and a ring of at most `capacity` windows *per writer
    /// lane*. Idempotent in effect but resets the recording when called
    /// again.
    pub fn enable_timeseries(&self, width_ns: u64, capacity: usize) {
        for lane in self.lanes.iter() {
            let mut ts = lane.timeseries.lock().unwrap_or_else(|e| e.into_inner());
            *ts = Some(TimeSeries::new(width_ns, capacity));
        }
        self.ts_enabled.store(true, Ordering::Relaxed);
    }

    /// True when the flight recorder is on. Call sites use this to skip
    /// series-name formatting on hot paths; it is one relaxed atomic
    /// load.
    #[inline]
    pub fn timeseries_enabled(&self) -> bool {
        self.ts_enabled.load(Ordering::Relaxed)
    }

    /// Adds `delta` to counter `series` in the window covering `at_ns`
    /// (in the calling lane's recorder). No-op while the recorder is off.
    pub fn ts_add(&self, at_ns: u64, series: &str, delta: u64) {
        if !self.timeseries_enabled() {
            return;
        }
        let mut guard = self
            .lane()
            .timeseries
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(ts) = guard.as_mut() {
            ts.add(at_ns, series, delta);
        }
    }

    /// Samples gauge `series` at `value` in the window covering `at_ns`
    /// (in the calling lane's recorder). No-op while the recorder is off.
    pub fn ts_gauge(&self, at_ns: u64, series: &str, value: u64) {
        if !self.timeseries_enabled() {
            return;
        }
        let mut guard = self
            .lane()
            .timeseries
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(ts) = guard.as_mut() {
            ts.gauge(at_ns, series, value);
        }
    }

    /// Records `value` into windowed histogram `series` (in the calling
    /// lane's recorder). No-op while the recorder is off.
    pub fn ts_observe(&self, at_ns: u64, series: &str, value: u64) {
        if !self.timeseries_enabled() {
            return;
        }
        let mut guard = self
            .lane()
            .timeseries
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(ts) = guard.as_mut() {
            ts.observe(at_ns, series, value);
        }
    }

    /// Snapshot of the flight recording, if the recorder is on. With
    /// one writer lane this is that lane's report verbatim; with more,
    /// the lanes are merged deterministically by window (counters sum,
    /// histograms merge, gauge extrema combine — see
    /// [`TimeSeries::merged`]).
    pub fn timeseries_report(&self) -> Option<TimeSeriesReport> {
        if self.lanes.len() == 1 {
            return self.lanes[0]
                .timeseries
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
                .map(|ts| ts.report());
        }
        let guards: Vec<_> = self
            .lanes
            .iter()
            .map(|l| l.timeseries.lock().unwrap_or_else(|e| e.into_inner()))
            .collect();
        let lanes: Vec<&TimeSeries> = guards.iter().filter_map(|g| g.as_ref()).collect();
        if lanes.is_empty() {
            return None;
        }
        Some(TimeSeries::merged(&lanes).report())
    }

    /// Arms the slow-call watchdog. Exemplars accumulate from this point
    /// on; re-arming keeps already-pinned exemplars.
    pub fn enable_watchdog(&self, cfg: WatchdogConfig) {
        let mut misc = self.misc();
        misc.watchdog = Some(cfg);
        self.wd_enabled.store(true, Ordering::Relaxed);
    }

    /// Copy of the exemplars pinned so far.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        self.misc().exemplars.clone()
    }

    /// Stamps run provenance into the registry (merged field-wise: only
    /// `Some` fields overwrite).
    pub fn set_run_meta(&self, meta: RunMeta) {
        let mut misc = self.misc();
        let RunMeta {
            seed,
            mode,
            config_hash,
            git_rev,
            date,
        } = meta;
        if seed.is_some() {
            misc.meta.seed = seed;
        }
        if mode.is_some() {
            misc.meta.mode = mode;
        }
        if config_hash.is_some() {
            misc.meta.config_hash = config_hash;
        }
        if git_rev.is_some() {
            misc.meta.git_rev = git_rev;
        }
        if date.is_some() {
            misc.meta.date = date;
        }
    }

    // -- RPC counters ------------------------------------------------------

    /// A call was issued.
    pub fn on_call(&self) {
        if self.on() {
            self.cell().calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A request was retransmitted.
    pub fn on_retry(&self) {
        if self.on() {
            self.cell().retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A call exhausted all attempts.
    pub fn on_timeout(&self) {
        if self.on() {
            self.cell().timeouts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A reply arrived for an already-completed call.
    pub fn on_stale_reply(&self) {
        if self.on() {
            self.cell().stale_replies.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A stray packet was discarded while waiting for a reply.
    pub fn on_stray_dropped(&self) {
        if self.on() {
            self.cell().strays_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A request was executed for the first time.
    pub fn on_executed(&self) {
        if self.on() {
            self.cell().executed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A duplicate request was answered from the reply cache.
    pub fn on_duplicate_suppressed(&self) {
        if self.on() {
            self.cell()
                .duplicates_suppressed
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A duplicate request was dropped.
    pub fn on_duplicate_dropped(&self) {
        if self.on() {
            self.cell()
                .duplicates_dropped
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A one-way message was received by a server.
    pub fn on_oneway_rx(&self) {
        if self.on() {
            self.cell().oneways.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An undecodable packet was received by a server.
    pub fn on_undecodable(&self) {
        if self.on() {
            self.cell().undecodable.fetch_add(1, Ordering::Relaxed);
        }
    }

    // -- published snapshots ----------------------------------------------

    /// Publishes the latest stats of one proxy. Keyed `service@owner`;
    /// stats are monotonic so overwriting is idempotent.
    pub fn set_proxy_stats(&self, owner: &str, service: &str, stats: ProxyStats) {
        if !self.on() {
            return;
        }
        self.misc()
            .proxies
            .insert(format!("{service}@{owner}"), stats);
    }

    /// Publishes the latest stats of one service server.
    pub fn set_server_stats(&self, service: &str, stats: ServerStats) {
        if !self.on() {
            return;
        }
        self.misc().servers.insert(service.to_string(), stats);
    }

    // -- reporting ---------------------------------------------------------

    /// Builds the unified report. `net` is the simulator's counter
    /// snapshot and `end_time_ns` the simulated clock at report time.
    ///
    /// The merge is deterministic: per-key statistics live wholly in one
    /// stripe, cross-shard sums are commutative, and map output is
    /// key-ordered — the same run produces byte-identical JSON for any
    /// shard/stripe layout.
    pub fn report(&self, net: MetricsSnapshot, end_time_ns: u64) -> RunReport {
        // Hot counters: sum the stripes.
        let csum = |field: fn(&CounterCell) -> &AtomicU64| -> u64 {
            self.counters
                .iter()
                .map(|c| field(c).load(Ordering::Relaxed))
                .sum()
        };
        let client = CallStats {
            calls: csum(|c| &c.calls),
            retries: csum(|c| &c.retries),
            timeouts: csum(|c| &c.timeouts),
            stale_replies: csum(|c| &c.stale_replies),
            strays_dropped: csum(|c| &c.strays_dropped),
        };
        let server = ServeStats {
            executed: csum(|c| &c.executed),
            duplicates_suppressed: csum(|c| &c.duplicates_suppressed),
            duplicates_dropped: csum(|c| &c.duplicates_dropped),
            oneways: csum(|c| &c.oneways),
            undecodable: csum(|c| &c.undecodable),
        };
        // Stripes: histograms into the key-ordered ops map, retired
        // aggregates into the span totals.
        let mut ops = BTreeMap::new();
        let mut started = 0u64;
        let mut completed = 0u64;
        let mut oneways = 0u64;
        let mut retransmissions = self.retired_retransmissions.load(Ordering::Relaxed);
        for stripe in self.stripes.iter() {
            let s = stripe.lock().unwrap_or_else(|e| e.into_inner());
            for ((service, op), hist) in &s.hists {
                ops.insert(format!("{service}/{op}"), hist.summary());
            }
            for agg in s.retired.values() {
                started += agg.invokes + agg.dispatches;
                completed += agg.invokes + agg.dispatches;
                oneways += agg.oneways;
                retransmissions += agg.retransmissions;
            }
        }
        // Shards: the resident spans.
        for shard in self.span_shards.iter() {
            let s = shard.lock().unwrap_or_else(|e| e.into_inner());
            for rec in s.values() {
                match rec.kind {
                    SpanKind::Oneway => oneways += 1,
                    _ => {
                        started += 1;
                        if rec.end_ns.is_some() {
                            completed += 1;
                        }
                    }
                }
                retransmissions += rec.retransmissions;
            }
        }
        let misc = self.misc();
        RunReport {
            end_time_ns,
            net,
            rpc: RpcReport { client, server },
            proxies: misc.proxies.clone(),
            servers: misc.servers.clone(),
            ops,
            spans: SpanReport {
                started,
                completed,
                open: started - completed,
                oneways,
                retransmissions,
                replies: ReplyReport {
                    matched: csum(|c| &c.replies_matched),
                    late: csum(|c| &c.replies_late),
                    unknown_span: csum(|c| &c.replies_unknown_span),
                    untracked: csum(|c| &c.replies_untracked),
                },
            },
            obs: self.obs_plane(),
            trace_evicted: 0,
            meta: misc.meta.clone(),
            timeseries: self.timeseries_report(),
            profile: self.profile_report(),
            exemplars: misc.exemplars.clone(),
            exemplars_suppressed: misc.exemplars_suppressed,
        }
    }
}

// ---------------------------------------------------------------------------
// Unified run report
// ---------------------------------------------------------------------------

/// Aggregated RPC counters, both sides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RpcReport {
    /// Summed over every client in the run.
    pub client: CallStats,
    /// Summed over every server in the run.
    pub server: ServeStats,
}

/// Reply/span correlation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplyReport {
    /// Replies matched to a live span.
    pub matched: u64,
    /// Replies whose span had already closed (duplicates, stale).
    pub late: u64,
    /// Replies carrying a span id that was never allocated. Any nonzero
    /// value is a causality violation.
    pub unknown_span: u64,
    /// Replies carrying no span (traffic outside tracked invocations).
    pub untracked: u64,
}

/// Span table summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanReport {
    /// Invoke + dispatch spans opened.
    pub started: u64,
    /// Of those, spans closed.
    pub completed: u64,
    /// Spans still open at report time.
    pub open: u64,
    /// One-way notification spans.
    pub oneways: u64,
    /// Retransmissions summed over all spans.
    pub retransmissions: u64,
    /// Reply correlation counts.
    pub replies: ReplyReport,
}

/// The unified observability report for one run: network counters, RPC
/// counters, per-proxy and per-server stats, per-op latency percentiles
/// and the span summary, in one serializable value.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Simulated clock when the report was taken, in nanoseconds.
    pub end_time_ns: u64,
    /// Network simulator counters.
    pub net: MetricsSnapshot,
    /// RPC layer counters.
    pub rpc: RpcReport,
    /// Per-proxy stats, keyed `service@owner`.
    pub proxies: BTreeMap<String, ProxyStats>,
    /// Per-service server stats.
    pub servers: BTreeMap<String, ServerStats>,
    /// Per-op latency summaries, keyed `service/op`.
    pub ops: BTreeMap<String, OpLatency>,
    /// Span table summary.
    pub spans: SpanReport,
    /// Self-measurement of the observability plane itself: retirement
    /// counts, resident span-table footprint and time spent inside
    /// registry calls.
    pub obs: ObsPlaneReport,
    /// Events the bounded simnet trace ring evicted (0 when tracing is
    /// off or the ring never filled — i.e. the timeline is complete).
    /// Filled in by the simulator when it builds the report.
    pub trace_evicted: u64,
    /// Run provenance (seed, mode, config hash, git rev, date).
    pub meta: RunMeta,
    /// The windowed flight recording, when the recorder was on.
    pub timeseries: Option<TimeSeriesReport>,
    /// The folded-stack wall-time profile, when the profiler was on.
    /// Frame paths and call counts are deterministic; `wall_ns` is
    /// host-dependent and reported-not-judged.
    pub profile: Option<ProfileReport>,
    /// Slow calls pinned by the watchdog.
    pub exemplars: Vec<Exemplar>,
    /// Slow calls observed after the exemplar buffer filled.
    pub exemplars_suppressed: u64,
}

impl RunReport {
    /// Fills each exemplar's causal decomposition from `trace`.
    ///
    /// [`analysis::critical_paths`] decomposes every traced invoke span
    /// into queue/wire/server/retransmit components that tile the span
    /// exactly; this copies the decomposition onto exemplars whose span
    /// appears in the trace. Returns how many exemplars got a breakdown.
    /// Exemplars whose span was sampled out of the trace keep
    /// `breakdown: None` — an honest "unexplained" rather than a guess.
    pub fn attach_exemplars(&mut self, trace: &CausalTrace) -> usize {
        if self.exemplars.is_empty() {
            return 0;
        }
        let paths = critical_paths(trace);
        let by_span: BTreeMap<SpanId, &CriticalPath> = paths.iter().map(|p| (p.span, p)).collect();
        let mut attached = 0;
        for ex in &mut self.exemplars {
            if ex.breakdown.is_some() {
                continue;
            }
            if let Some(p) = by_span.get(&ex.span) {
                ex.breakdown = Some(ExemplarBreakdown {
                    queue_ns: p.queue_ns,
                    wire_ns: p.wire_ns,
                    server_ns: p.server_ns,
                    retransmit_ns: p.retransmit_ns,
                    retransmissions: p.retransmissions,
                    drops: p.drops,
                });
                attached += 1;
            }
        }
        attached
    }
    /// Renders the report as a self-contained JSON object.
    ///
    /// Hand-rolled so the report stays serializable even when the
    /// workspace is built against the offline serde stand-in; the output
    /// is stable (maps are ordered) and safe to diff across runs.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_u64("end_time_ns", self.end_time_ns);
            w.field_u64("trace_evicted", self.trace_evicted);
            w.field_obj("meta", |w| {
                let RunMeta {
                    seed,
                    mode,
                    config_hash,
                    git_rev,
                    date,
                } = &self.meta;
                if let Some(seed) = seed {
                    w.field_u64("seed", *seed);
                }
                if let Some(mode) = mode {
                    w.field_str("mode", mode);
                }
                if let Some(hash) = config_hash {
                    w.field_str("config_hash", hash);
                }
                if let Some(rev) = git_rev {
                    w.field_str("git_rev", rev);
                }
                if let Some(date) = date {
                    w.field_str("date", date);
                }
            });
            w.field_obj("net", |w| {
                let MetricsSnapshot {
                    msgs_sent,
                    msgs_delivered,
                    msgs_dropped,
                    msgs_duplicated,
                    msgs_blackholed,
                    bytes_sent,
                    events_dispatched,
                    processes_spawned,
                    processes_peak,
                    sched_time_inversions,
                } = self.net;
                w.field_u64("msgs_sent", msgs_sent);
                w.field_u64("msgs_delivered", msgs_delivered);
                w.field_u64("msgs_dropped", msgs_dropped);
                w.field_u64("msgs_duplicated", msgs_duplicated);
                w.field_u64("msgs_blackholed", msgs_blackholed);
                w.field_u64("bytes_sent", bytes_sent);
                w.field_u64("events_dispatched", events_dispatched);
                w.field_u64("processes_spawned", processes_spawned);
                w.field_u64("processes_peak", processes_peak);
                w.field_u64("sched_time_inversions", sched_time_inversions);
            });
            w.field_obj("rpc", |w| {
                w.field_obj("client", |w| {
                    let CallStats {
                        calls,
                        retries,
                        timeouts,
                        stale_replies,
                        strays_dropped,
                    } = self.rpc.client;
                    w.field_u64("calls", calls);
                    w.field_u64("retries", retries);
                    w.field_u64("timeouts", timeouts);
                    w.field_u64("stale_replies", stale_replies);
                    w.field_u64("strays_dropped", strays_dropped);
                });
                w.field_obj("server", |w| {
                    let ServeStats {
                        executed,
                        duplicates_suppressed,
                        duplicates_dropped,
                        oneways,
                        undecodable,
                    } = self.rpc.server;
                    w.field_u64("executed", executed);
                    w.field_u64("duplicates_suppressed", duplicates_suppressed);
                    w.field_u64("duplicates_dropped", duplicates_dropped);
                    w.field_u64("oneways", oneways);
                    w.field_u64("undecodable", undecodable);
                });
            });
            w.field_obj("proxies", |w| {
                for (key, s) in &self.proxies {
                    w.field_obj(key, |w| {
                        let ProxyStats {
                            invocations,
                            local_hits,
                            remote_calls,
                            invalidations_rx,
                            migrations,
                            checkins,
                            rebinds,
                            strategy_switches,
                            datagrams_discarded,
                            bulk_spills,
                            bulk_resolves,
                        } = *s;
                        w.field_u64("invocations", invocations);
                        w.field_u64("local_hits", local_hits);
                        w.field_u64("remote_calls", remote_calls);
                        w.field_u64("invalidations_rx", invalidations_rx);
                        w.field_u64("migrations", migrations);
                        w.field_u64("checkins", checkins);
                        w.field_u64("rebinds", rebinds);
                        w.field_u64("strategy_switches", strategy_switches);
                        w.field_u64("datagrams_discarded", datagrams_discarded);
                        w.field_u64("bulk_spills", bulk_spills);
                        w.field_u64("bulk_resolves", bulk_resolves);
                    });
                }
            });
            w.field_obj("servers", |w| {
                for (key, s) in &self.servers {
                    w.field_obj(key, |w| {
                        let ServerStats {
                            dispatched,
                            writes,
                            invalidations_sent,
                            checkouts,
                            checkins,
                            recalls_sent,
                            unavailable,
                            checkpoints,
                        } = *s;
                        w.field_u64("dispatched", dispatched);
                        w.field_u64("writes", writes);
                        w.field_u64("invalidations_sent", invalidations_sent);
                        w.field_u64("checkouts", checkouts);
                        w.field_u64("checkins", checkins);
                        w.field_u64("recalls_sent", recalls_sent);
                        w.field_u64("unavailable", unavailable);
                        w.field_u64("checkpoints", checkpoints);
                    });
                }
            });
            w.field_obj("ops", |w| {
                for (key, s) in &self.ops {
                    w.field_obj(key, |w| {
                        let OpLatency {
                            count,
                            min_ns,
                            max_ns,
                            mean_ns,
                            p50_ns,
                            p95_ns,
                            p99_ns,
                        } = *s;
                        w.field_u64("count", count);
                        w.field_u64("min_ns", min_ns);
                        w.field_u64("max_ns", max_ns);
                        w.field_u64("mean_ns", mean_ns);
                        w.field_u64("p50_ns", p50_ns);
                        w.field_u64("p95_ns", p95_ns);
                        w.field_u64("p99_ns", p99_ns);
                    });
                }
            });
            w.field_obj("spans", |w| {
                let SpanReport {
                    started,
                    completed,
                    open,
                    oneways,
                    retransmissions,
                    replies,
                } = self.spans;
                w.field_u64("started", started);
                w.field_u64("completed", completed);
                w.field_u64("open", open);
                w.field_u64("oneways", oneways);
                w.field_u64("retransmissions", retransmissions);
                w.field_obj("replies", |w| {
                    let ReplyReport {
                        matched,
                        late,
                        unknown_span,
                        untracked,
                    } = replies;
                    w.field_u64("matched", matched);
                    w.field_u64("late", late);
                    w.field_u64("unknown_span", unknown_span);
                    w.field_u64("untracked", untracked);
                });
            });
            w.field_obj("obs", |w| {
                let ObsPlaneReport {
                    spans_retired,
                    spans_sampled,
                    spans_resident,
                    spans_resident_peak,
                    span_table_bytes,
                    span_table_bytes_peak,
                    self_ns,
                    self_calls,
                } = self.obs;
                w.field_u64("spans_retired", spans_retired);
                w.field_u64("spans_sampled", spans_sampled);
                w.field_u64("spans_resident", spans_resident);
                w.field_u64("spans_resident_peak", spans_resident_peak);
                w.field_u64("span_table_bytes", span_table_bytes);
                w.field_u64("span_table_bytes_peak", span_table_bytes_peak);
                w.field_u64("self_ns", self_ns);
                w.field_u64("self_calls", self_calls);
            });
            if let Some(p) = &self.profile {
                w.field_obj("profile", |w| {
                    w.field_u64("frames_resident", p.frames_resident);
                    w.field_u64("frames_evicted", p.frames_evicted);
                    w.field_u64("self_ns", p.self_ns);
                    w.field_u64("self_calls", p.self_calls);
                    w.field_obj("frames", |w| {
                        for (path, st) in &p.frames {
                            w.field_obj(path, |w| {
                                w.field_u64("calls", st.calls);
                                w.field_u64("wall_ns", st.wall_ns);
                            });
                        }
                    });
                });
            }
            w.field_u64("exemplars_suppressed", self.exemplars_suppressed);
            w.field_arr("exemplars", |w| {
                for ex in &self.exemplars {
                    w.elem_obj(|w| {
                        w.field_u64("span", ex.span.raw());
                        w.field_str("service", &ex.service);
                        w.field_str("op", &ex.op);
                        w.field_u64("start_ns", ex.start_ns);
                        w.field_u64("latency_ns", ex.latency_ns);
                        w.field_u64("threshold_ns", ex.threshold_ns);
                        w.field_u64("p99_ns", ex.p99_ns);
                        w.field_str("trigger", ex.trigger);
                        w.field_u64("ok", u64::from(ex.ok));
                        if let Some(b) = ex.breakdown {
                            w.field_obj("breakdown", |w| {
                                let ExemplarBreakdown {
                                    queue_ns,
                                    wire_ns,
                                    server_ns,
                                    retransmit_ns,
                                    retransmissions,
                                    drops,
                                } = b;
                                w.field_u64("queue_ns", queue_ns);
                                w.field_u64("wire_ns", wire_ns);
                                w.field_u64("server_ns", server_ns);
                                w.field_u64("retransmit_ns", retransmit_ns);
                                w.field_u64("retransmissions", retransmissions);
                                w.field_u64("drops", drops);
                            });
                        }
                    });
                }
            });
            if let Some(ts) = &self.timeseries {
                w.field_obj("timeseries", |w| {
                    w.field_u64("width_ns", ts.width_ns);
                    w.field_u64("windows_evicted", ts.windows_evicted);
                    w.field_u64("late_dropped", ts.late_dropped);
                    w.field_arr("windows", |w| {
                        for win in &ts.windows {
                            w.elem_obj(|w| {
                                w.field_u64("start_ns", win.start_ns);
                                w.field_obj("counters", |w| {
                                    for (name, v) in &win.counters {
                                        w.field_u64(name, *v);
                                    }
                                });
                                w.field_obj("gauges", |w| {
                                    for (name, g) in &win.gauges {
                                        w.field_obj(name, |w| {
                                            let GaugeStat {
                                                last,
                                                min,
                                                max,
                                                sum,
                                                samples,
                                            } = *g;
                                            w.field_u64("last", last);
                                            w.field_u64("min", min);
                                            w.field_u64("max", max);
                                            w.field_u64("sum", sum);
                                            w.field_u64("samples", samples);
                                        });
                                    }
                                });
                                w.field_obj("hists", |w| {
                                    for (name, h) in &win.hists {
                                        w.field_obj(name, |w| {
                                            let OpLatency {
                                                count,
                                                min_ns,
                                                max_ns,
                                                mean_ns,
                                                p50_ns,
                                                p95_ns,
                                                p99_ns,
                                            } = *h;
                                            w.field_u64("count", count);
                                            w.field_u64("min_ns", min_ns);
                                            w.field_u64("max_ns", max_ns);
                                            w.field_u64("mean_ns", mean_ns);
                                            w.field_u64("p50_ns", p50_ns);
                                            w.field_u64("p95_ns", p95_ns);
                                            w.field_u64("p99_ns", p99_ns);
                                        });
                                    }
                                });
                            });
                        }
                    });
                });
            }
        });
        w.finish()
    }
}

/// Minimal JSON emitter: objects with string keys and u64 / nested
/// object values — exactly what [`RunReport::to_json`] needs.
struct JsonWriter {
    out: String,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            need_comma: Vec::new(),
        }
    }

    fn sep(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
    }

    fn push_escaped(&mut self, s: &str) {
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
    }

    fn key(&mut self, key: &str) {
        self.sep();
        self.out.push('"');
        self.push_escaped(key);
        self.out.push_str("\":");
    }

    fn obj(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.out.push('{');
        self.need_comma.push(false);
        body(self);
        self.need_comma.pop();
        self.out.push('}');
    }

    fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push('"');
        self.push_escaped(value);
        self.out.push('"');
    }

    fn field_obj(&mut self, key: &str, body: impl FnOnce(&mut JsonWriter)) {
        self.key(key);
        self.obj(body);
    }

    fn field_arr(&mut self, key: &str, body: impl FnOnce(&mut JsonWriter)) {
        self.key(key);
        self.out.push('[');
        self.need_comma.push(false);
        body(self);
        self.need_comma.pop();
        self.out.push(']');
    }

    /// One object element inside a [`JsonWriter::field_arr`] body.
    fn elem_obj(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.sep();
        self.obj(body);
    }

    fn finish(self) -> String {
        self.out
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_uniform() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // Log2 buckets give factor-of-two resolution; check the order of
        // magnitude, not exact values.
        let p50 = h.p50();
        assert!((250..=1000).contains(&p50), "p50 = {p50}");
        assert!(h.p95() >= p50);
        assert!(h.p99() >= h.p95());
        assert!(h.p99() <= 1000);
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);

        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.p50(), 42);
        assert_eq!(h.p99(), 42);
        assert_eq!(h.mean(), 42);
    }

    #[test]
    fn histogram_zero_sample() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [1000u64, 10_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 10_000);
    }

    #[test]
    fn span_lifecycle_and_latency() {
        let reg = MetricsRegistry::new();
        let inv = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 100);
        assert!(inv.is_some());
        let disp = reg.open_span(SpanKind::Dispatch, inv, "svc-kv", "get", 150);
        reg.close_span(disp, 180, true);
        assert_eq!(reg.span_reply(inv.raw(), 190), ReplyKind::Matched);
        reg.close_span(inv, 200, true);
        // Duplicate reply after the span closed.
        assert_eq!(reg.span_reply(inv.raw(), 210), ReplyKind::Late);
        // Closing twice is a no-op.
        reg.close_span(inv, 999, false);

        let h = reg.histogram("kv", "get").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), 100);
        let hd = reg.histogram("svc-kv", "get").unwrap();
        assert_eq!(hd.count(), 1);

        assert!(reg.verify_causality().is_empty());

        let report = reg.report(MetricsSnapshot::default(), 1000);
        assert_eq!(report.spans.started, 2);
        assert_eq!(report.spans.completed, 2);
        assert_eq!(report.spans.replies.matched, 1);
        assert_eq!(report.spans.replies.late, 1);
        assert_eq!(report.spans.replies.unknown_span, 0);
    }

    #[test]
    fn unknown_and_untracked_replies() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.span_reply(0, 10), ReplyKind::Untracked);
        assert_eq!(reg.span_reply(777, 10), ReplyKind::UnknownSpan);
        let violations = reg.verify_causality();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("never allocated"));
    }

    #[test]
    fn retransmissions_accumulate_on_one_span() {
        let reg = MetricsRegistry::new();
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "put", 0);
        reg.span_retransmit(sp);
        reg.span_retransmit(sp);
        let report = reg.report(MetricsSnapshot::default(), 50);
        assert_eq!(report.spans.retransmissions, 2);
        let rec = reg.span_record(sp).expect("span resident");
        assert_eq!(rec.retransmissions, 2);
    }

    #[test]
    fn causality_flags_bad_parent() {
        let reg = MetricsRegistry::new();
        reg.open_span(SpanKind::Dispatch, SpanId(99), "svc", "op", 5);
        let violations = reg.verify_causality();
        assert!(!violations.is_empty());
        assert!(violations[0].contains("unallocated parent"));
    }

    #[test]
    fn oneway_spans_are_closed_and_parented() {
        let reg = MetricsRegistry::new();
        let disp = reg.open_span(SpanKind::Dispatch, SpanId::NONE, "svc-kv", "put", 10);
        let ow = reg.note_oneway(disp, "kv", "inv", 20);
        let rec = reg.span_record(ow).expect("span resident");
        assert_eq!(rec.kind, SpanKind::Oneway);
        assert_eq!(rec.parent, disp);
        assert_eq!(rec.end_ns, Some(20));
        // One-way spans never land in a latency histogram.
        assert!(reg.histogram("kv", "inv").is_none());
    }

    #[test]
    fn snapshot_since_saturates() {
        let a = MetricsSnapshot {
            msgs_sent: 10,
            msgs_delivered: 8,
            msgs_dropped: 2,
            msgs_duplicated: 0,
            msgs_blackholed: 0,
            bytes_sent: 640,
            events_dispatched: 30,
            processes_spawned: 3,
            processes_peak: 3,
            sched_time_inversions: 0,
        };
        let b = MetricsSnapshot {
            msgs_sent: 15,
            msgs_delivered: 12,
            msgs_dropped: 3,
            msgs_duplicated: 1,
            msgs_blackholed: 0,
            bytes_sent: 900,
            events_dispatched: 45,
            processes_spawned: 5,
            processes_peak: 4,
            sched_time_inversions: 0,
        };
        let d = b.since(&a);
        assert_eq!(d.msgs_sent, 5);
        assert_eq!(d.msgs_delivered, 4);
        assert_eq!(d.bytes_sent, 260);
        assert_eq!(d.processes_spawned, 2);
        // Gauge semantics: the window reports the peak as of its end,
        // not a counter-style diff (which would read 0 in any window
        // where the high-water mark did not rise).
        assert_eq!(d.processes_peak, 4);
        // Reversed order saturates instead of wrapping.
        let r = a.since(&b);
        assert_eq!(r.msgs_sent, 0);
    }

    #[test]
    fn snapshot_since_peak_is_a_gauge_in_flat_windows() {
        // Regression for the flight-recorder window diff: a window in
        // which the process high-water mark did not move used to report
        // `processes_peak == 0` because the gauge was diffed like a
        // counter. The window must report the level, not the rise.
        let a = MetricsSnapshot {
            processes_spawned: 5,
            processes_peak: 5,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            processes_spawned: 7,
            processes_peak: 5,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.processes_spawned, 2);
        assert_eq!(d.processes_peak, 5, "flat window must report the level");
    }

    #[test]
    fn report_json_is_wellformed() {
        let reg = MetricsRegistry::new();
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.on_call();
        reg.close_span(sp, 1500, true);
        reg.set_proxy_stats(
            "client-1",
            "kv",
            ProxyStats {
                invocations: 1,
                remote_calls: 1,
                ..Default::default()
            },
        );
        reg.set_server_stats(
            "kv",
            ServerStats {
                dispatched: 1,
                ..Default::default()
            },
        );
        let json = reg
            .report(
                MetricsSnapshot {
                    msgs_sent: 2,
                    msgs_delivered: 2,
                    ..Default::default()
                },
                2000,
            )
            .to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"end_time_ns\":2000"));
        assert!(json.contains("\"kv/get\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"kv@client-1\""));
        assert!(json.contains("\"msgs_sent\":2"));
        // Balanced braces.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn snapshot_since_every_field_smaller() {
        // "Service removed mid-run": the later snapshot is smaller in
        // every field. The diff must saturate to zero field-wise, never
        // wrap.
        let earlier = MetricsSnapshot {
            msgs_sent: 100,
            msgs_delivered: 90,
            msgs_dropped: 10,
            msgs_duplicated: 5,
            msgs_blackholed: 3,
            bytes_sent: 64_000,
            events_dispatched: 500,
            processes_spawned: 12,
            processes_peak: 8,
            sched_time_inversions: 2,
        };
        let later = MetricsSnapshot {
            msgs_sent: 40,
            msgs_delivered: 30,
            msgs_dropped: 4,
            msgs_duplicated: 2,
            msgs_blackholed: 1,
            bytes_sent: 8_000,
            events_dispatched: 200,
            processes_spawned: 6,
            processes_peak: 4,
            sched_time_inversions: 1,
        };
        // Counters saturate to zero; the peak gauge carries the later
        // snapshot's level through untouched.
        assert_eq!(
            later.since(&earlier),
            MetricsSnapshot {
                processes_peak: 4,
                ..MetricsSnapshot::default()
            }
        );
        // Mixed: only some fields went backwards.
        let mixed = MetricsSnapshot {
            msgs_sent: 150,
            ..later
        };
        let d = mixed.since(&earlier);
        assert_eq!(d.msgs_sent, 50);
        assert_eq!(d.msgs_delivered, 0);
        assert_eq!(d.bytes_sent, 0);
    }

    #[test]
    fn histogram_merge_then_extreme_quantiles() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [7u64, 12, 30] {
            a.record(v);
        }
        for v in [3u64, 5_000] {
            b.record(v);
        }
        a.merge(&b);
        // q=0.0 and q=1.0 must pin to the merged min and max exactly,
        // despite log2-bucket interpolation.
        assert_eq!(a.quantile(0.0), a.min());
        assert_eq!(a.quantile(0.0), 3);
        assert_eq!(a.quantile(1.0), a.max());
        assert_eq!(a.quantile(1.0), 5_000);
        // Merging into an empty histogram keeps the extremes intact.
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.quantile(0.0), 3);
        assert_eq!(empty.quantile(1.0), 5_000);
    }

    #[test]
    fn watchdog_pins_slo_exemplar() {
        let reg = MetricsRegistry::new();
        reg.enable_watchdog(WatchdogConfig {
            multiplier: 3.0,
            slo_ns: Some(1_000),
            min_samples: 32,
            max_exemplars: 4,
        });
        // Fast call: under the SLO, relative trigger unarmed.
        let fast = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.close_span(fast, 500, true);
        // Slow call: over the SLO.
        let slow = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 1_000);
        reg.close_span(slow, 3_500, true);
        let exemplars = reg.exemplars();
        assert_eq!(exemplars.len(), 1);
        let ex = &exemplars[0];
        assert_eq!(ex.span, slow);
        assert_eq!(ex.latency_ns, 2_500);
        assert_eq!(ex.threshold_ns, 1_000);
        assert_eq!(ex.trigger, "slo");
        assert!(ex.breakdown.is_none());
    }

    #[test]
    fn watchdog_relative_trigger_arms_after_min_samples() {
        let reg = MetricsRegistry::new();
        reg.enable_watchdog(WatchdogConfig {
            multiplier: 3.0,
            slo_ns: None,
            min_samples: 10,
            max_exemplars: 4,
        });
        // Nine ~100ns calls: below min_samples, nothing can trip even
        // though every call dwarfs the (unarmed) p99.
        for i in 0..9u64 {
            let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i * 10_000);
            reg.close_span(sp, i * 10_000 + 100, true);
        }
        assert!(reg.exemplars().is_empty());
        // Tenth call arms the trigger for the *next* close...
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 100_000);
        reg.close_span(sp, 100_100, true);
        // ...and an outlier 50x the p99 trips it.
        let outlier = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 200_000);
        reg.close_span(outlier, 205_000, false);
        let exemplars = reg.exemplars();
        assert_eq!(exemplars.len(), 1);
        let ex = &exemplars[0];
        assert_eq!(ex.span, outlier);
        assert_eq!(ex.trigger, "p99");
        assert!(ex.p99_ns > 0);
        assert!(ex.latency_ns > ex.threshold_ns);
        assert!(!ex.ok);
    }

    #[test]
    fn watchdog_buffer_cap_suppresses() {
        let reg = MetricsRegistry::new();
        reg.enable_watchdog(WatchdogConfig {
            multiplier: 3.0,
            slo_ns: Some(10),
            min_samples: u64::MAX,
            max_exemplars: 2,
        });
        for i in 0..5u64 {
            let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i * 1_000);
            reg.close_span(sp, i * 1_000 + 100, true);
        }
        let report = reg.report(MetricsSnapshot::default(), 10_000);
        assert_eq!(report.exemplars.len(), 2);
        assert_eq!(report.exemplars_suppressed, 3);
    }

    #[test]
    fn timeseries_feeds_from_span_close_and_retransmit() {
        let reg = MetricsRegistry::new();
        assert!(!reg.timeseries_enabled());
        reg.enable_timeseries(1_000, 64);
        assert!(reg.timeseries_enabled());
        let ok = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.span_retransmit_at(ok, 300);
        reg.close_span(ok, 500, true);
        let err = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 1_200);
        reg.close_span(err, 1_800, false);
        // Dispatch spans land in aggregate histograms but not in the
        // per-service call counters (no double counting).
        let disp = reg.open_span(SpanKind::Dispatch, ok, "svc-kv", "get", 100);
        reg.close_span(disp, 400, true);
        let ts = reg.timeseries_report().expect("recorder on");
        assert_eq!(ts.counter_total("calls_ok@kv"), 1);
        assert_eq!(ts.counter_total("calls_err@kv"), 1);
        assert_eq!(ts.counter_total("retx@kv"), 1);
        assert_eq!(ts.counter_total("calls_ok@svc-kv"), 0);
        assert_eq!(ts.windows.len(), 2);
        assert_eq!(ts.windows[0].hists["latency@kv"].max_ns, 500);
        // Direct API shapes.
        reg.ts_gauge(2_500, "depth", 7);
        reg.ts_add(2_500, "bytes", 128);
        reg.ts_observe(2_500, "lag", 0);
        let ts = reg.timeseries_report().unwrap();
        assert_eq!(ts.windows[2].gauges["depth"].max, 7);
        assert_eq!(ts.counter_total("bytes"), 128);
    }

    #[test]
    fn run_meta_merges_and_serializes() {
        let reg = MetricsRegistry::new();
        reg.set_run_meta(RunMeta {
            seed: Some(42),
            mode: Some("full".into()),
            ..Default::default()
        });
        reg.set_run_meta(RunMeta {
            date: Some("2026-08-06".into()),
            ..Default::default()
        });
        let report = reg.report(MetricsSnapshot::default(), 0);
        assert_eq!(report.meta.seed, Some(42));
        assert_eq!(report.meta.mode.as_deref(), Some("full"));
        assert_eq!(report.meta.date.as_deref(), Some("2026-08-06"));
        let json = report.to_json();
        assert!(json.contains("\"meta\":{\"seed\":42,\"mode\":\"full\",\"date\":\"2026-08-06\"}"));
    }

    #[test]
    fn report_json_with_timeseries_and_exemplars_is_wellformed() {
        let reg = MetricsRegistry::new();
        reg.enable_timeseries(1_000, 8);
        reg.enable_watchdog(WatchdogConfig {
            slo_ns: Some(100),
            min_samples: u64::MAX,
            ..Default::default()
        });
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.ts_gauge(500, "sched_depth", 3);
        reg.close_span(sp, 2_500, true);
        let json = reg.report(MetricsSnapshot::default(), 3_000).to_json();
        assert!(json.contains("\"exemplars\":[{\"span\":1"));
        assert!(json.contains("\"trigger\":\"slo\""));
        assert!(json.contains("\"timeseries\":{\"width_ns\":1000"));
        assert!(json.contains("\"windows\":[{"));
        assert!(json.contains("\"calls_ok@kv\":1"));
        assert!(json.contains("\"sched_depth\""));
        // Balanced braces and brackets, and it round-trips through the
        // hand-rolled parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let parsed = crate::json::parse(&json).expect("report JSON parses");
        let ts = parsed.get("timeseries").expect("timeseries present");
        assert_eq!(ts.u64_field("width_ns"), Some(1_000));
        assert_eq!(
            parsed
                .get("exemplars")
                .and_then(|e| e.as_arr())
                .map(|a| a.len()),
            Some(1)
        );
    }

    /// Drives an identical call sequence into a registry.
    fn drive(reg: &MetricsRegistry) {
        for i in 0..100u64 {
            let svc = if i % 2 == 0 { "kv" } else { "dir" };
            let op = if i % 3 == 0 { "get" } else { "put" };
            let inv = reg.open_span(SpanKind::Invoke, SpanId::NONE, svc, op, i * 10);
            let disp = reg.open_span(SpanKind::Dispatch, inv, svc, op, i * 10 + 2);
            if i % 7 == 0 {
                reg.span_retransmit(inv);
            }
            reg.on_call();
            reg.on_executed();
            reg.close_span(disp, i * 10 + 5, true);
            reg.span_reply(inv.raw(), i * 10 + 6);
            reg.close_span(inv, i * 10 + 8, i % 11 != 0);
            if i % 5 == 0 {
                reg.note_oneway(disp, svc, "inv", i * 10 + 9);
            }
        }
        // Leave a few spans open so `open` is nonzero.
        for _ in 0..3 {
            reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 9_999);
        }
    }

    #[test]
    fn report_is_byte_identical_across_layouts() {
        let base = {
            let reg = MetricsRegistry::with_layout(1, 1);
            drive(&reg);
            reg.report(MetricsSnapshot::default(), 10_000).to_json()
        };
        for (shards, stripes) in [(4, 2), (16, 8), (64, 16)] {
            let reg = MetricsRegistry::with_layout(shards, stripes);
            drive(&reg);
            let json = reg.report(MetricsSnapshot::default(), 10_000).to_json();
            assert_eq!(json, base, "layout {shards}x{stripes} diverged");
        }
    }

    #[test]
    fn retirement_conserves_report_totals() {
        let plain = MetricsRegistry::new();
        drive(&plain);
        let retiring = MetricsRegistry::new();
        retiring.enable_retirement(0);
        drive(&retiring);

        let a = plain.report(MetricsSnapshot::default(), 10_000);
        let b = retiring.report(MetricsSnapshot::default(), 10_000);
        // Everything the report derives from spans is conserved exactly.
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.rpc, b.rpc);
        // But the retiring table only holds what is still open.
        assert_eq!(b.obs.spans_resident, 3);
        assert_eq!(
            b.obs.spans_retired + b.obs.spans_resident,
            b.spans.started + b.spans.oneways
        );
        assert!(plain.resident_spans() > retiring.resident_spans());
    }

    #[test]
    fn retirement_sampler_keeps_every_nth() {
        let reg = MetricsRegistry::new();
        reg.enable_retirement(10);
        for i in 0..100u64 {
            let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i);
            reg.close_span(sp, i + 1, true);
        }
        let obs = reg.obs_plane();
        assert_eq!(obs.spans_sampled, 10);
        assert_eq!(obs.spans_retired, 90);
        assert_eq!(obs.spans_resident, 10);
        // Sampled records are real, closed records.
        let mut kept = 0;
        reg.for_each_span(|rec| {
            assert!(rec.end_ns.is_some());
            kept += 1;
        });
        assert_eq!(kept, 10);
    }

    #[test]
    fn retired_span_reply_is_late_and_retransmit_counted() {
        let reg = MetricsRegistry::new();
        reg.enable_retirement(0);
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.close_span(sp, 5, true);
        assert!(reg.span_record(sp).is_none(), "span retired");
        // A reply for a retired span is by definition late: retirement
        // only ever evicts closed spans.
        assert_eq!(reg.span_reply(sp.raw(), 9), ReplyKind::Late);
        reg.span_retransmit(sp);
        let report = reg.report(MetricsSnapshot::default(), 10);
        assert_eq!(report.spans.replies.late, 1);
        assert_eq!(report.spans.replies.unknown_span, 0);
        assert_eq!(report.spans.retransmissions, 1);
    }

    #[test]
    fn disabled_plane_is_inert() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(false);
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        assert_eq!(sp, SpanId::NONE);
        reg.close_span(sp, 5, true);
        assert_eq!(reg.span_reply(7, 9), ReplyKind::Untracked);
        reg.on_call();
        reg.on_executed();
        reg.record_latency("kv", "get", 100);
        let report = reg.report(MetricsSnapshot::default(), 10);
        assert_eq!(report.spans.started, 0);
        assert_eq!(report.rpc.client.calls, 0);
        assert_eq!(report.rpc.server.executed, 0);
        assert_eq!(report.spans.replies.untracked, 0);
        assert!(report.ops.is_empty());
        assert_eq!(reg.span_count(), 0);
        // And it can be turned back on.
        reg.set_enabled(true);
        assert!(reg
            .open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0)
            .is_some());
    }

    #[test]
    fn for_each_span_visits_ascending_ids() {
        let reg = MetricsRegistry::with_layout(4, 2);
        for i in 0..50u64 {
            reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i);
        }
        let mut prev = 0;
        let mut seen = 0;
        reg.for_each_span(|rec| {
            assert!(rec.id.raw() > prev, "ids must ascend");
            prev = rec.id.raw();
            seen += 1;
        });
        assert_eq!(seen, 50);
    }

    #[test]
    fn obs_plane_gauges_track_residency_and_bytes() {
        let reg = MetricsRegistry::new();
        let a = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        let b = reg.open_span(SpanKind::Invoke, SpanId::NONE, "dirsvc", "lookup", 1);
        let full = reg.obs_plane();
        assert_eq!(full.spans_resident, 2);
        assert_eq!(full.spans_resident_peak, 2);
        let per = std::mem::size_of::<SpanRecord>() as u64;
        let strings = ("kv".len() + "get".len() + "dirsvc".len() + "lookup".len()) as u64;
        assert_eq!(full.span_table_bytes, 2 * per + strings);
        reg.enable_retirement(0);
        reg.close_span(a, 5, true);
        reg.close_span(b, 6, true);
        let after = reg.obs_plane();
        assert_eq!(after.spans_resident, 0);
        assert_eq!(after.span_table_bytes, 0);
        assert_eq!(after.spans_resident_peak, 2);
        assert_eq!(after.span_table_bytes_peak, full.span_table_bytes);
        assert_eq!(after.spans_retired, 2);
    }

    #[test]
    fn self_measure_accumulates_when_armed() {
        let reg = MetricsRegistry::new();
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.close_span(sp, 5, true);
        assert_eq!(reg.obs_plane().self_calls, 0, "off by default");
        reg.enable_self_measure();
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 10);
        reg.close_span(sp, 15, true);
        let obs = reg.obs_plane();
        assert_eq!(obs.self_calls, 2);
    }

    #[test]
    fn run_report_json_has_obs_section() {
        let reg = MetricsRegistry::new();
        reg.enable_retirement(2);
        for i in 0..4u64 {
            let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i);
            reg.close_span(sp, i + 1, true);
        }
        let json = reg.report(MetricsSnapshot::default(), 100).to_json();
        let parsed = json::parse(&json).expect("report json parses");
        let obs = parsed.get("obs").expect("obs object");
        assert_eq!(obs.u64_field("spans_retired"), Some(2));
        assert_eq!(obs.u64_field("spans_sampled"), Some(2));
        assert_eq!(obs.u64_field("spans_resident"), Some(2));
        assert_eq!(obs.u64_field("self_calls"), Some(0));
    }
}
