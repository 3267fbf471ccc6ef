//! The metric tables: every end-to-end and per-layer metric with its
//! unit, its direction and — for layer metrics — the end-to-end metric
//! it should move and the workload where it does most of its work.

/// An end-to-end metric (untraced run).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

/// The end-to-end metrics, in report order. `failed_frac` is printed
/// with them but travels in the result line's `attempted`/`failed`
/// counts, since it is 0 on a healthy run.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "calls_per_s",
        unit: "1/s",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "cpu_us_per_call",
        unit: "us",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
    },
    EndToEnd {
        name: "sim_call_p50_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "sim_call_p99_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "msgs_per_call",
        unit: "count",
    },
    EndToEnd {
        name: "wire_bytes_per_call",
        unit: "B",
    },
];

/// A per-layer metric (traced run).
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metric(s) it should move.
    pub moves: &'static str,
    /// Workload(s) where the layer does most of its work.
    pub workload: &'static str,
    /// Workloads where the layer does not run (the metric reads 0 there
    /// and is marked not applicable).
    pub not_on: &'static [&'static str],
}

/// `not_on` lists: the layer runs on every workload / only on some.
const NONE: &[&str] = &[];
const ASYNC_ONLY: &[&str] = &["bulk-wan"];
const BULK_ONLY: &[&str] = &["kv-lan", "fleet-mc"];

/// Shorthand for one table row.
const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    workload: &'static str,
    not_on: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        workload,
        not_on,
    }
}

/// Every per-layer metric, grouped by layer.
#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    // simnet: scheduler, network, poll machines
    m("simnet.events_per_call", "count", "lower", "calls_per_s", "kv-lan, fleet-mc", NONE),
    m("simnet.ns_per_event", "ns", "lower", "calls_per_s", "kv-lan, fleet-mc", NONE),
    m("simnet.rounds", "count", "lower", "calls_per_s", "fleet-mc", NONE),
    m("simnet.round_pick_ms", "ms", "lower", "calls_per_s", "fleet-mc", NONE),
    m("simnet.round_exec_ms", "ms", "lower", "calls_per_s", "fleet-mc", NONE),
    m("simnet.round_merge_ms", "ms", "lower", "calls_per_s", "fleet-mc", NONE),
    m("simnet.domain_busy_frac", "frac", "higher", "calls_per_s", "fleet-mc", NONE),
    m("simnet.domain_stall_frac", "frac", "lower", "calls_per_s", "fleet-mc", NONE),
    m("simnet.spawn_us", "us", "lower", "setup_s", "fleet-mc", NONE),
    m("simnet.procs_peak", "count", "lower", "peak_rss_mb", "fleet-mc", NONE),
    m("simnet.msgs_dropped", "count", "lower", "failed_frac (must be 0)", "all", NONE),
    // wire: codec, frame, CRC
    m("wire.encode_ns", "ns", "lower", "cpu_us_per_call", "bulk-wan", NONE),
    m("wire.decode_ns", "ns", "lower", "cpu_us_per_call", "bulk-wan", NONE),
    m("wire.frame_ns", "ns", "lower", "cpu_us_per_call", "bulk-wan", NONE),
    m("wire.unframe_ns", "ns", "lower", "cpu_us_per_call", "bulk-wan", NONE),
    m("wire.crc_ns_per_kib", "ns/KiB", "lower", "cpu_us_per_call", "bulk-wan", NONE),
    // rpc: channel, client, server, protocol
    m("rpc.retries_per_call", "count", "lower", "msgs_per_call, wire_bytes_per_call, sim_call_p99_ms", "bulk-wan", NONE),
    m("rpc.stale_replies", "count", "lower", "msgs_per_call, sim_call_p99_ms", "bulk-wan", NONE),
    m("rpc.dup_suppressed", "count", "lower", "msgs_per_call, sim_call_p99_ms", "bulk-wan", NONE),
    m("rpc.useful_send_frac", "frac", "higher", "msgs_per_call, wire_bytes_per_call", "bulk-wan", NONE),
    m("rpc.calls_per_batch", "count", "higher", "msgs_per_call", "kv-lan", ASYNC_ONLY),
    m("rpc.encode_ms", "ms", "lower", "cpu_us_per_call", "bulk-wan", NONE),
    m("rpc.decode_ms", "ms", "lower", "cpu_us_per_call", "bulk-wan", NONE),
    m("rpc.timeouts", "count", "lower", "failed_frac", "all", NONE),
    // core: session core, proxies, bulk plane
    m("core.invoke_async_ns", "ns", "lower", "calls_per_s", "kv-lan", ASYNC_ONLY),
    m("core.poll_call_ns", "ns", "lower", "calls_per_s", "kv-lan", ASYNC_ONLY),
    m("core.invoke_blocking_us", "us", "lower", "calls_per_s", "bulk-wan", BULK_ONLY),
    m("core.bulk_resolves_per_get", "count", "lower", "wire_bytes_per_call", "bulk-wan", BULK_ONLY),
    m("core.bulk_spills", "count", "lower", "wire_bytes_per_call", "bulk-wan", BULK_ONLY),
    m("core.datagrams_discarded", "count", "lower", "msgs_per_call (must be 0)", "all", NONE),
    // naming
    m("naming.bind_sim_p99_ms", "ms", "lower", "calls_per_s", "fleet-mc", NONE),
    m("naming.bind_host_us", "us", "lower", "calls_per_s", "fleet-mc", NONE),
    m("naming.lookups_per_bind", "count", "lower", "msgs_per_call", "fleet-mc", ASYNC_ONLY),
    // services: kv, blob, edge caches
    m("services.edge_hit_frac", "frac", "higher", "sim_call_p50_ms, wire_bytes_per_call", "bulk-wan", BULK_ONLY),
    m("services.origin_chunk_fetches", "count", "lower", "sim_call_p50_ms, wire_bytes_per_call", "bulk-wan", BULK_ONLY),
    m("services.invalidations_sent", "count", "lower", "sim_call_p99_ms", "bulk-wan", NONE),
    m("services.stale_reads", "count", "lower", "none (reported, not judged)", "bulk-wan", BULK_ONLY),
    // obs: the observability plane's own cost
    m("obs.self_ms", "ms", "lower", "calls_per_s", "all", NONE),
    m("obs.prof_self_ms", "ms", "lower", "calls_per_s", "all", NONE),
    m("obs.trace_overhead_frac", "frac", "lower", "none (traced vs untraced)", "all", NONE),
    m("obs.profile_coverage", "frac", "higher", "none (attribution)", "all", NONE),
    // ledger: outside-in cost ledger
    m("ledger.attributed_frac", "frac", "higher", "none (attribution of run wall)", "all", NONE),
    m("ledger.unattributed_frac", "frac", "lower", "none (attribution of run wall)", "all", NONE),
];

/// Layers with no workload this round, and why.
pub const NO_WORKLOAD: &str = "replication, migration and dsm: no ROADMAP item targets them \
     this round";

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// What `BENCHMARK.json` has no key for — the per-layer -> end-to-end
/// interaction map and the layers left out — as JSON (committed as
/// `perfbench/LAYERS.json`).
pub fn describe_json() -> String {
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            let not_on: Vec<String> = m.not_on.iter().map(|w| quote(w)).collect();
            format!(
                "    {{\"name\": {}, \"moves\": {}, \"workload\": {}, \
                 \"not_applicable_on\": [{}]}}",
                quote(m.name),
                quote(m.moves),
                quote(m.workload),
                not_on.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"per_layer\": [\n{}\n  ],\n  \"no_workload\": {}\n}}\n",
        layers.join(",\n"),
        quote(NO_WORKLOAD)
    )
}
