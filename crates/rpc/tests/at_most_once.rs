//! End-to-end protocol tests: at-most-once execution under loss,
//! duplication and reordering (the property experiment E7 measures).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RetryPolicy, RpcError, RpcServer};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// Spawns a counter server whose `inc` op is deliberately non-idempotent;
/// returns the shared execution counter.
fn spawn_counter(
    sim: &Simulation,
    node: NodeId,
    port: PortId,
) -> (simnet::Endpoint, Arc<AtomicU64>) {
    let execs = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&execs);
    let ep = sim.spawn_at("counter", node, port, move |ctx| {
        let mut srv = RpcServer::new();
        srv.serve(
            ctx,
            |_ctx, req| match req.op.as_str() {
                "inc" => {
                    let v = e.fetch_add(1, Ordering::SeqCst) + 1;
                    Ok(Value::U64(v))
                }
                "get" => Ok(Value::U64(e.load(Ordering::SeqCst))),
                _ => Err(RemoteError::new(ErrorCode::NoSuchOp, req.op.clone())),
            },
            |_, _| {},
        );
    });
    (ep, execs)
}

#[test]
fn calls_execute_exactly_once_on_clean_network() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let ok = Arc::new(AtomicU64::new(0));
    let ok2 = Arc::clone(&ok);
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = Channel::new("counter", server, ChannelConfig::with_depth(1));
        for i in 1..=50u64 {
            let v = c.call(ctx, "inc", Value::Null).unwrap();
            assert_eq!(v, Value::U64(i));
        }
        assert_eq!(c.stats.retries, 0);
        ok2.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(ok.load(Ordering::SeqCst), 1);
    assert_eq!(execs.load(Ordering::SeqCst), 50);
}

#[test]
fn lossy_network_retries_but_never_double_executes() {
    // 20% loss: retransmissions happen, yet the non-idempotent counter
    // must advance exactly once per successful call.
    let mut sim = Simulation::new(NetworkConfig::lan().with_loss(0.20), 7);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let successes = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));
    let (s2, r2) = (Arc::clone(&successes), Arc::clone(&retries));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = Channel::new(
            "counter",
            server,
            ChannelConfig::with_depth(1)
                .with_policy(RetryPolicy::exponential(Duration::from_millis(5), 8)),
        );
        for _ in 0..100 {
            match c.call(ctx, "inc", Value::Null) {
                Ok(_) => {
                    s2.fetch_add(1, Ordering::SeqCst);
                }
                Err(RpcError::Timeout { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        r2.store(c.stats.retries, Ordering::SeqCst);
    });
    sim.run();
    let s = successes.load(Ordering::SeqCst);
    let e = execs.load(Ordering::SeqCst);
    assert!(
        retries.load(Ordering::SeqCst) > 0,
        "20% loss must cause retries"
    );
    // Every success executed at least once; duplicates never re-executed.
    // Executions can exceed successes only for calls whose replies were
    // all lost (client timed out after server executed) — never for
    // retransmissions of an acknowledged call.
    assert!(e >= s, "executions {e} < successes {s}");
    let timeouts = 100 - s;
    assert!(
        e <= s + timeouts,
        "over-execution: {e} executions for {s} successes + {timeouts} timeouts"
    );
}

#[test]
fn duplicating_network_never_double_executes() {
    // 50% duplication: the server sees many duplicate datagrams but must
    // suppress every one of them.
    let mut sim = Simulation::new(NetworkConfig::lan().with_duplicate(0.5), 11);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = Channel::new("counter", server, ChannelConfig::with_depth(1));
        for i in 1..=100u64 {
            let v = c.call(ctx, "inc", Value::Null).unwrap();
            assert_eq!(v, Value::U64(i), "duplicate executed!");
        }
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 100);
}

#[test]
fn reordering_network_preserves_exactly_once() {
    let cfg = NetworkConfig::lan()
        .with_duplicate(0.3)
        .with_reorder_window(Duration::from_millis(2));
    let mut sim = Simulation::new(cfg, 13);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = Channel::new(
            "counter",
            server,
            ChannelConfig::with_depth(1)
                .with_policy(RetryPolicy::fixed(Duration::from_millis(8), 6)),
        );
        for i in 1..=60u64 {
            let v = c.call(ctx, "inc", Value::Null).unwrap();
            assert_eq!(v, Value::U64(i));
        }
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 60);
}

#[test]
fn total_partition_times_out() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let outcome = Arc::new(AtomicU64::new(0));
    let o2 = Arc::clone(&outcome);
    sim.spawn("client", NodeId(1), move |ctx| {
        ctx.net().partition(NodeId(0), NodeId(1));
        let mut c = Channel::new(
            "counter",
            server,
            ChannelConfig::with_depth(1)
                .with_policy(RetryPolicy::fixed(Duration::from_millis(2), 3)),
        );
        match c.call(ctx, "inc", Value::Null) {
            Err(RpcError::Timeout { attempts: 3 }) => o2.store(1, Ordering::SeqCst),
            other => panic!("expected timeout, got {other:?}"),
        }
    });
    sim.run();
    assert_eq!(outcome.load(Ordering::SeqCst), 1);
    assert_eq!(execs.load(Ordering::SeqCst), 0);
}

#[test]
fn remote_errors_propagate() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let (server, _execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = Channel::new("counter", server, ChannelConfig::with_depth(1));
        match c.call(ctx, "frobnicate", Value::Null) {
            Err(RpcError::Remote(e)) => {
                assert_eq!(e.code, ErrorCode::NoSuchOp);
                assert_eq!(e.message, "frobnicate");
            }
            other => panic!("expected remote error, got {other:?}"),
        }
    });
    sim.run();
}

#[test]
fn two_clients_do_not_cross_replies() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 9);
    let (server_a, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    let echo = sim.spawn_at("echo", NodeId(0), PortId(2), |ctx| {
        let mut srv = RpcServer::new();
        srv.serve(ctx, |_c, req| Ok(req.args.clone()), |_, _| {});
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        // Two channels in the same process with overlapping call-id
        // spaces; source matching must keep replies straight.
        let mut a = Channel::new("counter", server_a, ChannelConfig::with_depth(1));
        let mut b = Channel::new("counter", echo, ChannelConfig::with_depth(1));
        for i in 1..=20u64 {
            assert_eq!(a.call(ctx, "inc", Value::Null).unwrap(), Value::U64(i));
            assert_eq!(
                b.call(ctx, "echo", Value::U64(i * 100)).unwrap(),
                Value::U64(i * 100)
            );
        }
    });
    sim.run();
}

#[test]
fn retry_cost_grows_with_loss_rate() {
    // Ablation seed for E7: higher loss must strictly increase the number
    // of messages needed per successful call.
    fn messages_per_call(loss: f64) -> f64 {
        let mut sim = Simulation::new(NetworkConfig::lan().with_loss(loss), 21);
        let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
        sim.spawn("client", NodeId(1), move |ctx| {
            let mut c = Channel::new(
                "counter",
                server,
                ChannelConfig::with_depth(1)
                    .with_policy(RetryPolicy::exponential(Duration::from_millis(4), 10)),
            );
            for _ in 0..80 {
                let _ = c.call(ctx, "inc", Value::Null);
            }
        });
        let report = sim.run();
        report.metrics.msgs_sent as f64 / 80.0
    }
    let clean = messages_per_call(0.0);
    let lossy = messages_per_call(0.25);
    assert!(
        (2.0..2.2).contains(&clean),
        "clean network ~2 msgs/call, got {clean}"
    );
    assert!(
        lossy > clean * 1.2,
        "loss must raise message cost: {lossy} vs {clean}"
    );
}
