//! E15 — Flight recorder: windowed telemetry + slow-call exemplars.
//!
//! The same chaos scenario `tracectl` uses — a kv service behind caching
//! proxies, read-heavy clients, a lossy + duplicating network, and a
//! partition window that cuts every client off mid-run — but with the
//! flight recorder on: windowed time-series of throughput, retransmits,
//! cache hit-rate, queue depths and wire bytes, plus a slow-call
//! watchdog that pins any call breaching the SLO (or `3 × rolling p99`)
//! together with its causal queue/wire/server/retransmit decomposition.
//!
//! The window width is swept to show the recording is a pure
//! re-bucketing of one deterministic run: counter totals are identical
//! at every width. Conservation checks tie the recorder to the
//! first-class counters (wire bytes, retransmissions, cache hits), and
//! the exported CSV/report artifacts must pass their validators.
//!
//! Expected shape: zero evictions or late drops, identical totals
//! across widths, at least one exemplar from the partition window whose
//! breakdown tiles its span exactly, and a structurally-zero scheduler
//! lag (the dispatcher advances the clock *to* each event, never past
//! it — the series is an invariant monitor, not a profiler).

use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{CachingParams, ProxySpec, ServiceBuilder, Session, SessionCore};
use services::kv::{KvClient, KvStore};
use simnet::{NetworkConfig, NodeId, Simulation};

use crate::{check, trace_dir, ExperimentOutput, ObsReport, Table, TraceArtifact};

const SEED: u64 = 1500;
const ROUNDS: u64 = 40;
const CLIENTS: u32 = 2;
const LOSS: f64 = 0.25;
const DUP: f64 = 0.20;
/// Absolute SLO: the clean-network round trip is ~0.2 ms, the partition
/// parks calls for up to 8 ms — 2 ms separates the two regimes cleanly.
const SLO_NS: u64 = 2_000_000;
/// Window widths swept (ns): 250 us, 1 ms, 4 ms.
const WIDTHS: [u64; 3] = [250_000, 1_000_000, 4_000_000];

/// One run of the chaos workload with the flight recorder on.
struct FlightRun {
    report: obs::RunReport,
    trace: obs::CausalTrace,
    attached: usize,
}

fn run_flight(width_ns: u64) -> FlightRun {
    let cfg = NetworkConfig::lan().with_loss(LOSS).with_duplicate(DUP);
    let mut sim = Simulation::new(cfg, SEED);
    sim.enable_trace(1 << 18);
    sim.obs().enable_timeseries(width_ns, 4096);
    sim.obs().enable_watchdog(obs::WatchdogConfig {
        multiplier: 3.0,
        slo_ns: Some(SLO_NS),
        min_samples: 16,
        max_exemplars: 16,
    });
    sim.obs().set_run_meta(obs::RunMeta {
        mode: Some("e15".into()),
        ..Default::default()
    });

    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams::default()))
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);

    for c in 0..CLIENTS {
        let node = NodeId(2 + c);
        sim.spawn(format!("client-{c}"), node, move |ctx| {
            let mut rt = SessionCore::new(ns);
            let mut s = Session::new(&mut rt, ctx);
            let kv = match KvClient::bind(&mut s, "kv") {
                Ok(kv) => kv,
                Err(_) => return,
            };
            for round in 0..ROUNDS {
                if round % 5 == u64::from(c) % 5 {
                    let _ = kv.put(&mut s, &format!("k{}", round % 3), &format!("v{round}"));
                }
                let _ = kv.get(&mut s, &format!("k{}", round % 3));
                if s.ctx().sleep(Duration::from_millis(1)).is_err() {
                    return;
                }
            }
        });
    }

    // The saboteur: partition every client off the server mid-run. The
    // calls parked behind the partition are the watchdog's prey.
    sim.spawn("saboteur", NodeId(99), move |ctx| {
        if ctx.sleep(Duration::from_millis(10)).is_err() {
            return;
        }
        for c in 0..CLIENTS {
            ctx.net().partition(NodeId(2 + c), NodeId(1));
        }
        if ctx.sleep(Duration::from_millis(8)).is_err() {
            return;
        }
        for c in 0..CLIENTS {
            ctx.net().heal(NodeId(2 + c), NodeId(1));
        }
    });

    sim.run();
    let trace = sim.causal_trace();
    let mut report = sim.obs_report();
    let attached = report.attach_exemplars(&trace);
    FlightRun {
        report,
        trace,
        attached,
    }
}

/// Totals that must be invariant under re-bucketing.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Totals {
    calls_ok: u64,
    calls_err: u64,
    retx: u64,
    cache_hit: u64,
    cache_miss: u64,
    link_bytes: u64,
}

fn totals(ts: &obs::TimeSeriesReport) -> Totals {
    let series_total = |prefix: &str| {
        ts.series_names()
            .iter()
            .filter(|n| n.starts_with(prefix))
            .map(|n| ts.counter_total(n))
            .sum()
    };
    Totals {
        calls_ok: ts.counter_total("calls_ok@kv"),
        calls_err: ts.counter_total("calls_err@kv"),
        retx: series_total("retx@"),
        cache_hit: ts.counter_total("cache_hit@kv"),
        cache_miss: ts.counter_total("cache_miss@kv"),
        link_bytes: series_total("link_bytes@"),
    }
}

fn gauge_max(ts: &obs::TimeSeriesReport, series: &str) -> u64 {
    ts.windows
        .iter()
        .filter_map(|w| w.gauges.get(series))
        .map(|g| g.max)
        .max()
        .unwrap_or(0)
}

/// Runs E15 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let mut table = Table::new(
        format!(
            "flight recorder under chaos — loss {:.0}%, dup {:.0}%, partition 10-18ms, \
             {CLIENTS} clients x {ROUNDS} rounds, window-width sweep",
            LOSS * 100.0,
            DUP * 100.0
        ),
        &[
            "width",
            "windows",
            "ok",
            "err",
            "retx",
            "hit",
            "miss",
            "bytes",
            "depth max",
            "exemplars",
        ],
    );

    let mut runs = Vec::new();
    for &width in &WIDTHS {
        let run = run_flight(width);
        let ts = run.report.timeseries.as_ref().expect("recorder was on");
        let t = totals(ts);
        table.add_row(vec![
            format!("{}us", width / 1_000),
            ts.windows.len().to_string(),
            t.calls_ok.to_string(),
            t.calls_err.to_string(),
            t.retx.to_string(),
            t.cache_hit.to_string(),
            t.cache_miss.to_string(),
            t.link_bytes.to_string(),
            gauge_max(ts, "sched_depth").to_string(),
            run.report.exemplars.len().to_string(),
        ]);
        runs.push(run);
    }

    // The 1 ms run is the exemplar-bearing artifact we export and judge.
    let mid = &runs[1];
    let ts_mid = mid.report.timeseries.as_ref().expect("recorder was on");
    let t_mid = totals(ts_mid);

    let mut exemplar_table = Table::new(
        "slow-call exemplars (1ms windows) — causal decomposition in us".to_string(),
        &[
            "span", "op", "trigger", "latency", "thresh", "queue", "wire", "server", "retx",
        ],
    );
    let us = |ns: u64| format!("{:.0}", ns as f64 / 1_000.0);
    for e in &mid.report.exemplars {
        let b = e.breakdown;
        exemplar_table.add_row(vec![
            format!("{:?}", e.span),
            e.op.clone(),
            e.trigger.to_string(),
            us(e.latency_ns),
            us(e.threshold_ns),
            b.map_or("-".into(), |b| us(b.queue_ns)),
            b.map_or("-".into(), |b| us(b.wire_ns)),
            b.map_or("-".into(), |b| us(b.server_ns)),
            b.map_or("-".into(), |b| us(b.retransmit_ns)),
        ]);
    }

    // Export the windowed recording and the exemplar-bearing report so
    // `tracectl check` can validate them as standalone artifacts.
    let csv = obs::timeseries_to_csv(ts_mid);
    let report_json = mid.report.to_json();
    let dir = trace_dir();
    let mut export_ok = true;
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join("e15-flight.timeseries.csv"), &csv)?;
        std::fs::write(dir.join("e15-flight.report.json"), &report_json)
    }) {
        eprintln!("E15: artifact export failed: {e}");
        export_ok = false;
    }

    let all_totals: Vec<Totals> = runs
        .iter()
        .map(|r| totals(r.report.timeseries.as_ref().unwrap()))
        .collect();
    let complete = runs.iter().all(|r| {
        let ts = r.report.timeseries.as_ref().unwrap();
        ts.windows_evicted == 0 && ts.late_dropped == 0
    });
    let hits: u64 = mid
        .report
        .proxies
        .iter()
        .filter(|(k, _)| k.starts_with("kv@"))
        .map(|(_, p)| p.local_hits)
        .sum();
    let remote: u64 = mid
        .report
        .proxies
        .iter()
        .filter(|(k, _)| k.starts_with("kv@"))
        .map(|(_, p)| p.remote_calls)
        .sum();
    let tiled = mid
        .report
        .exemplars
        .iter()
        .filter_map(|e| e.breakdown.as_ref().map(|b| (e, b)))
        .all(|(e, b)| b.queue_ns + b.wire_ns + b.server_ns + b.retransmit_ns == e.latency_ns);
    let csv_check = obs::validate_timeseries_csv(&csv);
    let report_check = obs::validate_report(&report_json);

    let checks = vec![
        check(
            "re-bucketing invariance: counter totals identical at every window width",
            all_totals.windows(2).all(|w| w[0] == w[1]),
            format!("{all_totals:?}"),
        ),
        check(
            "recording complete: no windows evicted, no late-dropped samples",
            complete,
            format!(
                "evicted/late per width: {:?}",
                runs.iter()
                    .map(|r| {
                        let ts = r.report.timeseries.as_ref().unwrap();
                        (ts.windows_evicted, ts.late_dropped)
                    })
                    .collect::<Vec<_>>()
            ),
        ),
        check(
            "conservation: link-bytes windows sum to net.bytes_sent, retx \
             windows sum to span retransmissions, cache hits match proxy stats",
            t_mid.link_bytes == mid.report.net.bytes_sent
                && t_mid.retx == mid.report.spans.retransmissions
                && t_mid.cache_hit == hits
                && t_mid.cache_miss <= remote
                && t_mid.cache_miss > 0,
            format!(
                "bytes {}/{}, retx {}/{}, hits {}/{}, miss {} (remote {})",
                t_mid.link_bytes,
                mid.report.net.bytes_sent,
                t_mid.retx,
                mid.report.spans.retransmissions,
                t_mid.cache_hit,
                hits,
                t_mid.cache_miss,
                remote
            ),
        ),
        check(
            "watchdog: partition pins >=1 exemplar; every breakdown tiles its span exactly",
            !mid.report.exemplars.is_empty()
                && mid.attached >= 1
                && tiled
                && mid
                    .report
                    .exemplars
                    .iter()
                    .all(|e| e.latency_ns > e.threshold_ns),
            format!(
                "{} exemplars, {} with breakdown, {} suppressed, tiling exact: {}",
                mid.report.exemplars.len(),
                mid.attached,
                mid.report.exemplars_suppressed,
                tiled
            ),
        ),
        check(
            "scheduler honesty: dispatch lag structurally zero while heap depth varies",
            ts_mid.hist_max("sched_lag") == 0 && gauge_max(ts_mid, "sched_depth") > 0,
            format!(
                "lag max {}ns, depth max {}",
                ts_mid.hist_max("sched_lag"),
                gauge_max(ts_mid, "sched_depth")
            ),
        ),
        check(
            "exported artifacts pass their validators (timeseries CSV + run report)",
            export_ok && csv_check.is_ok() && report_check.is_ok(),
            format!("csv: {csv_check:?}, report: {report_check:?}"),
        ),
    ];

    ExperimentOutput {
        id: "E15",
        title: "Flight recorder: windowed telemetry + slow-call exemplars",
        tables: vec![table, exemplar_table],
        checks,
        reports: vec![ObsReport {
            label: "flight-1ms".into(),
            json: report_json,
        }],
        traces: vec![TraceArtifact {
            label: "flight".into(),
            trace: mid.trace.clone(),
        }],
    }
}
