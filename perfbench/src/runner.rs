//! One benchmark run: repetitions until the time budget is spent, the
//! output checks, and the metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::common::{Observe, Rep};
use crate::layers::{self, PER_LAYER};
use crate::span::{self, Agg, Recorder, Tracer};
use crate::stats::{median, percentile_sorted, quartiles, spread, tail_percentile};
use crate::wirebench::{self, WireCosts};
use crate::{sys, Workload};

/// Each run cycles through this many sub-seeds derived from `--seed`, so
/// the virtual-time figures pool several independent input sets instead
/// of resting on one draw. `bulk-wan`'s call latencies are multimodal
/// (WAN regions, edge hits and misses, retransmit steps) with little
/// mass near the median, so its p50 needs this many input sets to stay
/// within a few percent from one seed to the next; with 8 it moved by
/// about 11% (interquartile range over median, ten seeds).
pub const SUB_SEEDS: usize = 32;
/// Repetitions an untraced run makes at least: one full cycle of
/// sub-seeds plus one more, since the first repetition is a warm-up for
/// the host-time figures.
const MIN_REPS: usize = SUB_SEEDS + 1;
/// Traced/untraced pairs a traced run makes at least. Its per-layer
/// figures are medians that need no full cycle, and a traced `kv-lan`
/// pair takes about 2 s, so a full cycle could outlast a slow host's
/// time limit.
const MIN_TRACED_PAIRS: usize = 9;
const MAX_REPS: usize = 10_000;

/// The seed of repetition `i` of a run seeded with `seed`.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS as u64)
        .wrapping_add((i % SUB_SEEDS) as u64)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced sizes (tests).
    pub small: bool,
    /// Where the traced run writes its spans (`None`: nowhere).
    pub out_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How the value was formed, with its sample count.
    pub samples: String,
    pub applicable: bool,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output-check failures; the run is correct when this is empty.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The seed-determined counts of the first cycle of sub-seeds.
    pub fingerprint: String,
    pub sim_p50_ms: f64,
    pub sim_p99_ms: f64,
    /// Calls the virtual-time percentiles are over.
    pub sim_calls: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Repeats `body` (given the repetition index) until the budget would be
/// overrun by one more round, and at least `min_reps` rounds ran.
fn repeat<T>(seconds: f64, min_reps: usize, mut body: impl FnMut(usize) -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(body(out.len()));
        let spent = t0.elapsed().as_secs_f64();
        let per = spent / out.len() as f64;
        if out.len() >= MAX_REPS || (out.len() >= min_reps && spent + per > seconds) {
            return out;
        }
    }
}

/// Runs the benchmark described by `o`.
pub fn run(o: &Opts) -> Outcome {
    let rep = |i: usize, obs: &Observe| o.workload.run_rep(sub_seed(o.seed, i), obs, o.small, None);
    let mut out = Outcome::default();
    if o.trace {
        let pairs = repeat(o.seconds, MIN_TRACED_PAIRS, |i| {
            let plain = rep(i, &Observe::off());
            let mut traced = rep(i, &Observe::traced());
            // Raw spans are written out for the first measured repetition
            // only; the others keep their per-name totals.
            if i != 1 {
                traced.spans = Vec::new();
            }
            (plain, traced)
        });
        let (plain, traced): (Vec<Rep>, Vec<Rep>) = pairs.into_iter().unzip();
        check(o.workload, &plain, &mut out);
        check(o.workload, &traced, &mut out);
        check_twins(o.workload, &plain, &traced, &mut out);
        pool_virtual(&plain, &mut out);
        layer_metrics(o, &plain, &traced, &mut out);
    } else {
        // Peak memory is read once the first cycle of sub-seeds has run:
        // later repetitions repeat those inputs, and reading at the end
        // would tie the figure to how many repetitions the host managed.
        let mut peak_mb = 0.0;
        let reps = repeat(o.seconds, MIN_REPS, |i| {
            let r = rep(i, &Observe::off());
            if i + 1 == SUB_SEEDS {
                peak_mb = sys::peak_rss_mb().unwrap_or(0.0);
            }
            r
        });
        check(o.workload, &reps, &mut out);
        pool_virtual(&reps, &mut out);
        end_to_end(&reps, peak_mb, &mut out);
    }
    out
}

/// A traced repetition must see exactly what its untraced twin saw.
fn check_twins(wl: Workload, plain: &[Rep], traced: &[Rep], out: &mut Outcome) {
    for (i, (p, t)) in plain.iter().zip(traced).enumerate() {
        if p.fingerprint != t.fingerprint {
            out.problems.push(format!(
                "{}: traced rep {i} differs from its untraced twin: {} vs {}",
                wl.name(),
                t.fingerprint,
                p.fingerprint
            ));
        }
    }
}

/// Output checks over every repetition, and the determinism check:
/// repetitions with the same sub-seed must agree on every count.
fn check(wl: Workload, reps: &[Rep], out: &mut Outcome) {
    for (i, r) in reps.iter().enumerate() {
        out.attempted += r.calls.attempted;
        out.failed += r.calls.failed;
        for v in r.violations.iter().take(8) {
            out.problems.push(format!("{}: rep {i}: {v}", wl.name()));
        }
        let twin = &reps[i % SUB_SEEDS];
        if r.fingerprint != twin.fingerprint {
            out.problems.push(format!(
                "{}: rep {i} differs from rep {} under the same seed: {} vs {}",
                wl.name(),
                i % SUB_SEEDS,
                r.fingerprint,
                twin.fingerprint
            ));
        }
        if r.net.msgs_dropped != 0 {
            out.problems.push(format!(
                "{}: rep {i} dropped {} messages on a lossless network",
                wl.name(),
                r.net.msgs_dropped
            ));
        }
        let discarded = discarded(r);
        if discarded != 0 {
            out.problems.push(format!(
                "{}: rep {i} discarded {discarded} datagrams",
                wl.name()
            ));
        }
    }
}

/// Pools the seed-determined figures over the first cycle of sub-seeds.
fn pool_virtual(reps: &[Rep], out: &mut Outcome) {
    let cycle = &reps[..SUB_SEEDS.min(reps.len())];
    out.fingerprint = cycle
        .iter()
        .map(|r| r.fingerprint.as_str())
        .collect::<Vec<_>>()
        .join(" | ");
    let mut lat: Vec<u64> = cycle
        .iter()
        .flat_map(|r| r.calls.lat_ns.iter().copied())
        .collect();
    lat.sort_unstable();
    out.sim_p50_ms = percentile_sorted(&lat, 50.0).unwrap_or(0) as f64 / 1e6;
    out.sim_p99_ms = percentile_sorted(&lat, 99.0).unwrap_or(0) as f64 / 1e6;
    out.sim_calls = lat.len();
}

/// Datagrams proxies and channels threw away.
fn discarded(r: &Rep) -> u64 {
    let proxies: u64 = r.report.as_ref().map_or(0, |rep| {
        rep.proxies.values().map(|p| p.datagrams_discarded).sum()
    });
    proxies + r.extra("core.channel_discarded").unwrap_or(0.0) as u64
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: String) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
        applicable: true,
    }
}

/// The end-to-end metrics of an untraced run. Host-time figures skip the
/// first (warm-up) repetition; virtual-time and count figures are fixed
/// by the seed and pool the first cycle of sub-seeds.
fn end_to_end(reps: &[Rep], peak_mb: f64, out: &mut Outcome) {
    let timed = &reps[1..];
    let n = timed.len();
    let cycle = &reps[..SUB_SEEDS];
    let sum = |f: &dyn Fn(&Rep) -> u64| cycle.iter().map(f).sum::<u64>();
    let calls = sum(&|r| r.calls.ok);
    let (msgs, bytes) = (sum(&|r| r.net.msgs_sent), sum(&|r| r.net.bytes_sent));
    let (attempted, failed) = (sum(&|r| r.calls.attempted), sum(&|r| r.calls.failed));
    let events = sum(&|r| r.net.events_dispatched) as f64;
    // Host cost per scheduler event over every timed repetition: sub-seeds
    // differ a little in work, and dividing by their (seeded, exact) event
    // counts lets one figure cover all of them. The figure is the first
    // quartile, not the median: on a shared VM, bursts of stolen time slow
    // some repetitions two- or threefold, and over ten noisy seeds the
    // first quartile spread half as much as the median (0.17 against 0.37
    // interquartile range over median for kv-lan calls_per_s).
    let per_event = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> {
        timed
            .iter()
            .map(|r| f(r) / r.net.events_dispatched.max(1) as f64)
            .collect()
    };
    let (wall, cpu) = (per_event(&|r| r.run_s), per_event(&|r| r.cpu_s));
    let first_quartile = |v: &[f64]| quartiles(v).map_or(0.0, |(q1, _)| q1);
    let run_s = first_quartile(&wall) * events;
    let cpu_s = first_quartile(&cpu) * events;
    let within = |v: &[f64]| spread(v).map_or("n/a".to_owned(), |s| format!("{s:.4}"));
    let setups: Vec<f64> = timed.iter().map(|r| r.setup_s).collect();
    let lat_n = out.sim_calls;
    let units: BTreeMap<&str, &str> = layers::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .collect();
    let mut push = |name: &'static str, value: f64, samples: String| {
        out.metrics.push(metric(name, units[name], value, samples));
    };
    push(
        "calls_per_s",
        calls as f64 / run_s,
        format!(
            "{calls} calls over {SUB_SEEDS} sub-seeds / their run wall, from the first \
             quartile of wall per event over {n} repetitions (IQR/median {})",
            within(&wall)
        ),
    );
    push(
        "setup_s",
        median(&setups).unwrap_or(0.0),
        format!("median of {n} repetitions (IQR/median {})", within(&setups)),
    );
    push(
        "cpu_us_per_call",
        cpu_s * 1e6 / calls.max(1) as f64,
        format!(
            "process CPU over {SUB_SEEDS} sub-seeds per call, from the first quartile of \
             CPU per event over {n} repetitions (IQR/median {})",
            within(&cpu)
        ),
    );
    push(
        "peak_rss_mb",
        peak_mb,
        format!("VmHWM of this run's process after its first {SUB_SEEDS} repetitions"),
    );
    let tail = tail_percentile(lat_n).map_or("none".to_owned(), |p| format!("p{p}"));
    push(
        "sim_call_p50_ms",
        out.sim_p50_ms,
        format!("{lat_n} calls over {SUB_SEEDS} sub-seeds (virtual time)"),
    );
    push(
        "sim_call_p99_ms",
        out.sim_p99_ms,
        format!(
            "{lat_n} calls over {SUB_SEEDS} sub-seeds (virtual time); \
             highest percentile with 10 beyond: {tail}"
        ),
    );
    push(
        "msgs_per_call",
        msgs as f64 / calls.max(1) as f64,
        format!("{msgs} msgs / {calls} calls over {SUB_SEEDS} sub-seeds, binds included"),
    );
    push(
        "wire_bytes_per_call",
        bytes as f64 / calls.max(1) as f64,
        format!("{bytes} bytes / {calls} calls over {SUB_SEEDS} sub-seeds, binds included"),
    );
    let walls: Vec<String> = reps.iter().map(|r| format!("{:.4}", r.run_s)).collect();
    out.notes.push(format!(
        "run wall per repetition (s, first is warm-up): {}",
        walls.join(" ")
    ));
    out.notes.push(format!(
        "metric failed_frac = {} (count) [{failed} failed of {attempted} attempted over \
         {SUB_SEEDS} sub-seeds; the result line's failed/attempted count every repetition]",
        failed as f64 / attempted.max(1) as f64
    ));
}

/// Sum of profiler wall time over frames matching `pred`.
fn frames_ns(r: &obs::RunReport, pred: impl Fn(&str) -> bool) -> u64 {
    r.profile.as_ref().map_or(0, |p| {
        p.frames
            .iter()
            .filter(|(k, _)| pred(k))
            .map(|(_, f)| f.wall_ns)
            .sum()
    })
}

/// Named-layer frames: every frame outside the scheduler's own phase
/// frames that is not nested inside another such frame.
fn named_frames_ns(r: &obs::RunReport) -> u64 {
    let Some(p) = &r.profile else { return 0 };
    let named: Vec<&String> = p
        .frames
        .keys()
        .filter(|k| !k.starts_with("sched;"))
        .collect();
    named
        .iter()
        .filter(|k| {
            !named.iter().any(|o| {
                o.len() < k.len() && k.starts_with(o.as_str()) && k[o.len()..].starts_with(';')
            })
        })
        .map(|k| p.frames[*k].wall_ns)
        .sum()
}

/// Name-service lookups the run made (client-side `ns/lookup` spans).
fn lookups(r: &obs::RunReport) -> u64 {
    r.ops.get("ns/lookup").map_or(0, |o| o.count)
}

/// Per-layer values of one traced repetition. `plain_run_s` is the
/// `run` wall of its untraced twin, the ledger's denominator.
fn layer_values(
    wl: Workload,
    r: &Rep,
    plain_run_s: f64,
    wire: &WireCosts,
) -> BTreeMap<&'static str, f64> {
    let rep = r
        .report
        .as_ref()
        .expect("every repetition keeps its report");
    let agg = &r.span_agg;
    let total = |n: &str| agg.get(n).map_or(0, |a: &Agg| a.total_ns) as f64;
    let mean = |n: &str| agg.get(n).map_or(0.0, Agg::mean_ns);
    let calls = r.calls.ok.max(1) as f64;
    let events = r.net.events_dispatched.max(1) as f64;
    let frame = |k: &str| frames_ns(rep, |f| f == k) as f64;
    let exec = frame("sched;round;exec");
    // One busy frame per scheduler domain.
    let nd = rep.profile.as_ref().map_or(1, |p| {
        p.frames
            .keys()
            .filter(|k| k.starts_with("sched;round;exec;busy"))
            .count()
    }) as f64;
    let busy = frames_ns(rep, |f| f.starts_with("sched;round;exec;busy")) as f64;
    let stall = frames_ns(rep, |f| f.starts_with("sched;round;exec;stall")) as f64;
    let rounds = rep
        .profile
        .as_ref()
        .and_then(|p| p.frames.get("sched;round"))
        .map_or(0, |f| f.calls);
    let c = &rep.rpc.client;
    let binds = r.bind_sim_ns.len().max(1) as f64;
    let (hits, remote) = rep
        .proxies
        .iter()
        .filter(|(k, _)| k.starts_with("blob@edge-"))
        .fold((0u64, 0u64), |(h, m), (_, s)| {
            (h + s.local_hits, m + s.remote_calls)
        });
    let gets = r.extra("bulk.gets").unwrap_or(0.0).max(1.0);
    let prof_self = rep.profile.as_ref().map_or(0, |p| p.self_ns) as f64;

    // Outside-in ledger: host time the benchmark can pin on a layer,
    // as a share of the untraced run wall.
    let core_ns = total("core.invoke_async")
        + total("core.poll_call")
        + total("core.bind_async")
        + total("core.poll_bind");
    let wire_ns = if wl.poll_driven() {
        // Client-side codec work sits inside the core spans; the server
        // unframes each request and frames each reply.
        c.calls as f64 * wire.per_message_ns()
    } else {
        r.net.msgs_sent as f64 * wire.per_message_ns()
    };
    let attributed = (core_ns + wire_ns + rep.obs.self_ns as f64 + prof_self) / (plain_run_s * 1e9);

    let mut v = BTreeMap::new();
    v.insert("simnet.events_per_call", events / calls);
    v.insert("simnet.ns_per_event", plain_run_s * 1e9 / events);
    v.insert("simnet.rounds", rounds as f64);
    v.insert("simnet.round_pick_ms", frame("sched;round;pick") / 1e6);
    v.insert("simnet.round_exec_ms", exec / 1e6);
    v.insert("simnet.round_merge_ms", frame("sched;round;merge") / 1e6);
    v.insert("simnet.domain_busy_frac", busy / (exec * nd).max(1.0));
    v.insert("simnet.domain_stall_frac", stall / (exec * nd).max(1.0));
    v.insert("simnet.procs_peak", r.net.processes_peak as f64);
    v.insert("simnet.msgs_dropped", r.net.msgs_dropped as f64);
    v.insert("wire.encode_ns", wire.encode_ns);
    v.insert("wire.decode_ns", wire.decode_ns);
    v.insert("wire.frame_ns", wire.frame_ns);
    v.insert("wire.unframe_ns", wire.unframe_ns);
    v.insert("wire.crc_ns_per_kib", wire.crc_ns_per_kib);
    v.insert("rpc.retries_per_call", c.retries as f64 / calls);
    v.insert("rpc.stale_replies", c.stale_replies as f64);
    v.insert(
        "rpc.dup_suppressed",
        rep.rpc.server.duplicates_suppressed as f64,
    );
    v.insert(
        "rpc.useful_send_frac",
        c.calls as f64 / (c.calls + c.retries).max(1) as f64,
    );
    v.insert(
        "rpc.calls_per_batch",
        r.extra("rpc.calls_per_batch").unwrap_or(0.0),
    );
    v.insert(
        "rpc.encode_ms",
        frames_ns(rep, |f| f.ends_with("rpc;encode")) as f64 / 1e6,
    );
    v.insert(
        "rpc.decode_ms",
        frames_ns(rep, |f| f.ends_with("rpc;decode")) as f64 / 1e6,
    );
    v.insert("rpc.timeouts", c.timeouts as f64);
    v.insert("core.invoke_async_ns", mean("core.invoke_async"));
    v.insert("core.poll_call_ns", mean("core.poll_call"));
    v.insert(
        "core.invoke_blocking_us",
        mean("core.invoke_blocking") / 1e3,
    );
    let resolves: u64 = rep.proxies.values().map(|p| p.bulk_resolves).sum();
    let spills: u64 = rep.proxies.values().map(|p| p.bulk_spills).sum();
    v.insert("core.bulk_resolves_per_get", resolves as f64 / gets);
    v.insert("core.bulk_spills", spills as f64);
    v.insert("core.datagrams_discarded", discarded(r) as f64);
    v.insert(
        "naming.bind_sim_p99_ms",
        percentile_sorted(&r.bind_sim_ns, 99.0).unwrap_or(0) as f64 / 1e6,
    );
    v.insert(
        "naming.bind_host_us",
        (total("core.bind_async") + total("core.poll_bind") + total("core.bind_blocking"))
            / binds
            / 1e3,
    );
    v.insert("naming.lookups_per_bind", lookups(rep) as f64 / binds);
    v.insert(
        "services.edge_hit_frac",
        hits as f64 / (hits + remote).max(1) as f64,
    );
    v.insert("services.origin_chunk_fetches", remote as f64);
    v.insert(
        "services.invalidations_sent",
        rep.servers
            .values()
            .map(|s| s.invalidations_sent)
            .sum::<u64>() as f64,
    );
    v.insert(
        "services.stale_reads",
        r.extra("services.stale_reads").unwrap_or(0.0),
    );
    v.insert("obs.self_ms", rep.obs.self_ns as f64 / 1e6);
    v.insert("obs.prof_self_ms", prof_self / 1e6);
    v.insert(
        "obs.profile_coverage",
        named_frames_ns(rep) as f64 / exec.max(1.0),
    );
    v.insert("ledger.attributed_frac", attributed);
    v.insert("ledger.unattributed_frac", 1.0 - attributed);
    v
}

/// The per-layer metrics of a traced run: medians over the measured
/// traced repetitions, with the untraced repetitions of the same run as
/// the baseline for the overhead and the ledger.
fn layer_metrics(o: &Opts, plain: &[Rep], traced: &[Rep], out: &mut Outcome) {
    let wl = o.workload;
    let (plain_t, traced_t) = (&plain[1..], &traced[1..]);
    let n = traced_t.len();
    let overhead: Vec<f64> = plain_t
        .iter()
        .zip(traced_t)
        .map(|(p, t)| t.run_s / p.run_s - 1.0)
        .collect();

    let tracer = Tracer::new();
    let mut rec = Recorder::new(Some(&tracer));
    let wire = wirebench::measure(&wl.wire_messages(), &mut rec);
    rec.flush();

    let per_rep: Vec<BTreeMap<&str, f64>> = plain_t
        .iter()
        .zip(traced_t)
        .map(|(p, t)| layer_values(wl, t, p.run_s, &wire))
        .collect();
    let spawn: Vec<f64> = plain_t
        .iter()
        .flat_map(|r| r.spawn_ns.iter().map(|&ns| ns as f64))
        .collect();
    let spawn_mean = spawn.iter().sum::<f64>() / spawn.len().max(1) as f64;

    for m in PER_LAYER {
        let applicable = !m.not_on.contains(&wl.name());
        let (value, samples) = match m.name {
            "obs.trace_overhead_frac" => (
                median(&overhead).unwrap_or(0.0),
                format!("median of {} traced/untraced pairs", overhead.len()),
            ),
            "simnet.spawn_us" => (
                spawn_mean / 1e3,
                format!("mean of {} spawn calls (untraced)", spawn.len()),
            ),
            name => {
                let vals: Vec<f64> = per_rep
                    .iter()
                    .filter_map(|v| v.get(name).copied())
                    .collect();
                let how = if name.starts_with("wire.") {
                    "timed after the run: median of 5 batches per message".to_owned()
                } else if name == "simnet.ns_per_event" || name.starts_with("ledger.") {
                    format!(
                        "median of {n} traced repetitions, each over its untraced twin's run wall"
                    )
                } else {
                    format!("median of {n} traced repetitions")
                };
                (median(&vals).unwrap_or(0.0), how)
            }
        };
        out.metrics.push(Metric {
            name: m.name,
            unit: m.unit,
            value: if applicable { value } else { 0.0 },
            samples,
            applicable,
        });
    }

    // Self time per span name, from the first measured traced repetition.
    let spans = &traced_t[0].spans;
    for (name, a) in &traced_t[0].span_agg {
        out.notes.push(format!(
            "span {name}: count={} total_ms={:.3} self_ms={:.3}",
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6
        ));
    }
    if let Some(dir) = &o.out_dir {
        let mut all = spans.clone();
        all.extend(tracer.take());
        let path = dir.join(format!("spans-{}-s{}.jsonl", wl.name(), o.seed));
        match span::write_jsonl(&path, &all) {
            Ok(()) => out.notes.push(format!(
                "spans: {} written to {}",
                all.len(),
                path.display()
            )),
            Err(e) => out
                .notes
                .push(format!("spans: could not write {}: {e}", path.display())),
        }
    }
}
