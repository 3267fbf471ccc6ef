//! E7 — At-most-once execution under loss and duplication.
//!
//! The proxy encapsulates failure handling: retransmission plus
//! server-side duplicate suppression give at-most-once execution no
//! matter how hostile the network. We sweep the drop probability with a
//! deliberately non-idempotent counter and count *over-executions* —
//! increments the server performed beyond what the client could account
//! for. The retransmission-policy ablation (fixed vs exponential
//! backoff) shows the latency/traffic trade.
//!
//! Expected shape: zero over-executions at every loss rate; latency and
//! message cost rise with loss; exponential backoff trades extra latency
//! for fewer retransmissions at high loss.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RetryPolicy, RpcError, RpcServer};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

use crate::{
    capture_trace, check, obs_report, slot, take, ExperimentOutput, ObsReport, Table, TraceArtifact,
};

const CALLS: u64 = 150;

/// Mean latency (µs) of the exponential leg at 30% loss while every call
/// started from the fixed 4 ms timeout, before the channel carried a
/// retransmission's back-off over to later calls (Karn's rule). The
/// carry may cost latency under heavy loss, but not twice this.
const LOSS30_MEAN_US_FIXED_RTO: f64 = 7_453.0;

#[derive(Debug, Clone, Copy)]
struct Point {
    successes: u64,
    timeouts: u64,
    executions: u64,
    over_executions: u64,
    retries: u64,
    mean_latency_us: f64,
    msgs: u64,
}

fn measure(
    loss: f64,
    duplicate: f64,
    policy: RetryPolicy,
    seed: u64,
) -> (Point, ObsReport, TraceArtifact) {
    let cfg = NetworkConfig::lan()
        .with_loss(loss)
        .with_duplicate(duplicate);
    let mut sim = Simulation::new(cfg, seed);
    sim.enable_trace(1 << 16);
    let execs = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&execs);
    let server = sim.spawn_at("counter", NodeId(0), PortId(1), move |ctx| {
        let mut srv = RpcServer::new();
        srv.serve(
            ctx,
            |_ctx, req| match req.op.as_str() {
                "inc" => Ok(Value::U64(e2.fetch_add(1, Ordering::SeqCst) + 1)),
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            },
            |_, _| {},
        );
    });
    let (w, r) = slot::<(u64, u64, u64, f64)>();
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = Channel::new(
            "counter",
            server,
            ChannelConfig::with_depth(1).with_policy(policy),
        );
        let mut ok = 0u64;
        let mut latency_sum = 0.0;
        for _ in 0..CALLS {
            let t0 = ctx.now();
            // Each call gets a root invoke span so the causal trace has
            // per-request groups for `tracectl` to analyze.
            let span = ctx.obs().open_span(
                obs::SpanKind::Invoke,
                obs::SpanId::NONE,
                "counter",
                "inc",
                ctx.now().as_nanos(),
            );
            let prev = ctx.set_current_span(span);
            let res = c.call(ctx, "inc", Value::Null);
            ctx.set_current_span(prev);
            ctx.obs()
                .close_span(span, ctx.now().as_nanos(), res.is_ok());
            match res {
                Ok(_) => {
                    ok += 1;
                    latency_sum += (ctx.now() - t0).as_secs_f64() * 1e6;
                }
                Err(RpcError::Timeout { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        *w.lock().unwrap() = Some((ok, c.stats.timeouts, c.stats.retries, latency_sum));
    });
    let report = sim.run();
    let (successes, timeouts, retries, latency_sum) = take(r);
    let executions = execs.load(Ordering::SeqCst);
    // A timed-out call may or may not have executed (its reply may have
    // been the lost message) — that ambiguity is inherent to at-most-once.
    // An over-execution is anything beyond successes + timeouts.
    let over = executions.saturating_sub(successes + timeouts);
    (
        Point {
            successes,
            timeouts,
            executions,
            over_executions: over,
            retries,
            mean_latency_us: if successes > 0 {
                latency_sum / successes as f64
            } else {
                0.0
            },
            msgs: report.metrics.msgs_sent,
        },
        obs_report(format!("loss={loss:.2}"), &sim),
        capture_trace(format!("loss-{:02.0}", loss * 100.0), &sim),
    )
}

/// Runs E7 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let losses = [0.0, 0.05, 0.10, 0.20, 0.30];
    let policy = RetryPolicy::exponential(Duration::from_millis(4), 10);

    let mut table = Table::new(
        format!(
            "at-most-once under loss — {CALLS} non-idempotent calls, 30% duplication, exp backoff"
        ),
        &[
            "loss %",
            "ok",
            "timeout",
            "server execs",
            "OVER-EXEC",
            "retries",
            "mean us",
            "msgs",
        ],
    );
    let mut pts = Vec::new();
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for (i, &loss) in losses.iter().enumerate() {
        let (p, obs, trace) = measure(loss, 0.30, policy.clone(), 80 + i as u64);
        if loss >= 0.29 {
            reports.push(obs);
            traces.push(trace);
        }
        table.add_row(vec![
            format!("{:.0}", loss * 100.0),
            p.successes.to_string(),
            p.timeouts.to_string(),
            p.executions.to_string(),
            p.over_executions.to_string(),
            p.retries.to_string(),
            format!("{:.0}", p.mean_latency_us),
            p.msgs.to_string(),
        ]);
        pts.push(p);
    }

    // Retransmission ablation at 20% loss.
    let (fixed, _, _) = measure(
        0.20,
        0.0,
        RetryPolicy::fixed(Duration::from_millis(4), 10),
        90,
    );
    let (expo, _, _) = measure(
        0.20,
        0.0,
        RetryPolicy::exponential(Duration::from_millis(4), 10),
        90,
    );
    let mut ab = Table::new(
        "retransmission ablation at 20% loss".to_string(),
        &["policy", "ok", "retries", "mean us", "msgs"],
    );
    ab.add_row(vec![
        "fixed 4ms".into(),
        fixed.successes.to_string(),
        fixed.retries.to_string(),
        format!("{:.0}", fixed.mean_latency_us),
        fixed.msgs.to_string(),
    ]);
    ab.add_row(vec![
        "exponential 4ms*2^k".into(),
        expo.successes.to_string(),
        expo.retries.to_string(),
        format!("{:.0}", expo.mean_latency_us),
        expo.msgs.to_string(),
    ]);

    let checks = vec![
        check(
            "zero over-executions at every loss rate",
            pts.iter().all(|p| p.over_executions == 0),
            format!(
                "over-exec by loss: {:?}",
                pts.iter().map(|p| p.over_executions).collect::<Vec<_>>()
            ),
        ),
        check(
            "clean network: every call succeeds with no retries",
            pts[0].successes == CALLS && pts[0].retries == 0,
            format!("{}/{} ok, {} retries", pts[0].successes, CALLS, pts[0].retries),
        ),
        check(
            "retries rise with loss",
            pts.windows(2).all(|w| w[1].retries >= w[0].retries),
            format!(
                "retries: {:?}",
                pts.iter().map(|p| p.retries).collect::<Vec<_>>()
            ),
        ),
        check(
            "mean latency rises with loss",
            pts.last().unwrap().mean_latency_us > pts[0].mean_latency_us * 1.3,
            format!(
                "{:.0}us at 0% -> {:.0}us at 30%",
                pts[0].mean_latency_us,
                pts.last().unwrap().mean_latency_us
            ),
        ),
        check(
            "carried back-off stays bounded: mean latency at 30% loss <= 2x the fixed-RTO 7453us",
            pts.last().unwrap().mean_latency_us <= 2.0 * LOSS30_MEAN_US_FIXED_RTO,
            format!(
                "{:.0}us at 30% (limit {:.0}us)",
                pts.last().unwrap().mean_latency_us,
                2.0 * LOSS30_MEAN_US_FIXED_RTO
            ),
        ),
        check(
            "retry ablation: when retransmissions are loss-driven (timeout >> RTT),              fixed intervals give lower latency at no extra message cost",
            fixed.mean_latency_us <= expo.mean_latency_us && expo.msgs >= fixed.msgs.saturating_sub(5),
            format!(
                "fixed {:.0}us/{} msgs vs exponential {:.0}us/{} msgs",
                fixed.mean_latency_us, fixed.msgs, expo.mean_latency_us, expo.msgs
            ),
        ),
    ];

    ExperimentOutput {
        id: "E7",
        title: "At-most-once semantics under loss/duplication (+ retry ablation)",
        tables: vec![table, ab],
        checks,
        reports,
        traces,
    }
}
