//! End-to-end tests of the pipelined [`Channel`]: multiple outstanding
//! calls, out-of-order completion, batching, and — the property that
//! must survive all of it — at-most-once execution under loss and
//! duplication.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rpc::{
    Channel, ChannelConfig, ErrorCode, Oneway, Packet, RemoteError, Request, RetryPolicy, RpcError,
};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// Spawns a counter server whose `inc` op is deliberately
/// non-idempotent; `echo` returns its argument. Returns the shared
/// execution counter.
fn spawn_counter(
    sim: &Simulation,
    node: NodeId,
    port: PortId,
) -> (simnet::Endpoint, Arc<AtomicU64>) {
    let execs = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&execs);
    let ep = sim.spawn_at("counter", node, port, move |ctx| {
        let mut srv = rpc::RpcServer::new();
        srv.serve(
            ctx,
            |_ctx, req| match req.op.as_str() {
                "inc" => Ok(Value::U64(e.fetch_add(1, Ordering::SeqCst) + 1)),
                "echo" => Ok(req.args.clone()),
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            },
            |_, _| {},
        );
    });
    (ep, execs)
}

#[test]
fn pipelined_calls_all_succeed() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    let done = Arc::new(AtomicU64::new(0));
    let d2 = Arc::clone(&done);
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(8));
        let handles: Vec<_> = (0..64u64)
            .map(|i| ch.begin_call(ctx, "echo", Value::U64(i)))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let v = ch.wait(ctx, h).unwrap();
            assert_eq!(v, Value::U64(i as u64), "reply matched to wrong call");
        }
        assert_eq!(ch.stats.completed, 64);
        assert_eq!(ch.stats.timeouts, 0);
        d2.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(done.load(Ordering::SeqCst), 1);
}

#[test]
fn results_claimable_in_any_order() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(4));
        let handles: Vec<_> = (0..4u64)
            .map(|i| ch.begin_call(ctx, "echo", Value::U64(i)))
            .collect();
        ch.wait_all(ctx).unwrap();
        // Claim in reverse: results must stay addressable by handle.
        for (i, h) in handles.into_iter().enumerate().rev() {
            assert_eq!(ch.wait(ctx, h).unwrap(), Value::U64(i as u64));
        }
    });
    sim.run();
}

#[test]
fn pipelining_overlaps_round_trips() {
    // 64 calls at depth 8 must finish in far less wall-clock (simulated)
    // time than 64 synchronous round trips on the same network.
    fn run_depth(depth: usize) -> Duration {
        let mut sim = Simulation::new(NetworkConfig::lan(), 3);
        let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
        let elapsed = Arc::new(Mutex::new(Duration::ZERO));
        let e2 = Arc::clone(&elapsed);
        sim.spawn("client", NodeId(1), move |ctx| {
            let t0 = ctx.now();
            let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(depth));
            let handles: Vec<_> = (0..64u64)
                .map(|i| ch.begin_call(ctx, "echo", Value::U64(i)))
                .collect();
            for h in handles {
                ch.wait(ctx, h).unwrap();
            }
            *e2.lock().unwrap() = ctx.now() - t0;
        });
        sim.run();
        let d = *elapsed.lock().unwrap();
        d
    }
    let serial = run_depth(1);
    let deep = run_depth(8);
    assert!(
        deep < serial / 4,
        "depth 8 should be >=4x faster than depth 1: {deep:?} vs {serial:?}"
    );
}

#[test]
fn pipelining_under_loss_and_duplication_never_over_executes() {
    // The at-most-once property must survive out-of-order completion:
    // with 30% loss and 30% duplication, retransmitted ids complete in
    // arbitrary order and the server's window must still suppress every
    // duplicate of an executed call.
    let cfg = NetworkConfig::lan().with_loss(0.30).with_duplicate(0.30);
    let mut sim = Simulation::new(cfg, 7);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let out = Arc::new(Mutex::new((0u64, 0u64, 0u64)));
    let o2 = Arc::clone(&out);
    sim.spawn("client", NodeId(1), move |ctx| {
        let cfg = ChannelConfig::with_depth(8)
            .with_policy(RetryPolicy::exponential(Duration::from_millis(4), 10));
        let mut ch = Channel::new("counter", server, cfg);
        let handles: Vec<_> = (0..200u64)
            .map(|_| ch.begin_call(ctx, "inc", Value::Null))
            .collect();
        let mut ok = 0u64;
        for h in handles {
            match ch.wait(ctx, h) {
                Ok(_) => ok += 1,
                Err(RpcError::Timeout { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        *o2.lock().unwrap() = (ok, ch.stats.timeouts, ch.stats.retries);
    });
    sim.run();
    let (ok, timeouts, retries) = *out.lock().unwrap();
    let e = execs.load(Ordering::SeqCst);
    assert!(retries > 0, "30% loss must cause retransmissions");
    assert!(e >= ok, "every success executed: {e} execs, {ok} ok");
    assert!(
        e <= ok + timeouts,
        "over-execution: {e} execs for {ok} ok + {timeouts} timeouts"
    );
}

#[test]
fn batching_reduces_datagrams() {
    fn msgs_for(max_batch: usize) -> (u64, u64) {
        let mut sim = Simulation::new(NetworkConfig::lan(), 5);
        let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
        let batches = Arc::new(AtomicU64::new(0));
        let b2 = Arc::clone(&batches);
        sim.spawn("client", NodeId(1), move |ctx| {
            let mut ch = Channel::new(
                "counter",
                server,
                ChannelConfig::with_depth(64).batched(max_batch),
            );
            let handles: Vec<_> = (0..64u64)
                .map(|i| ch.begin_call(ctx, "echo", Value::U64(i)))
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(ch.wait(ctx, h).unwrap(), Value::U64(i as u64));
            }
            b2.store(ch.stats.batches_sent, Ordering::SeqCst);
        });
        let report = sim.run();
        (report.metrics.msgs_sent, batches.load(Ordering::SeqCst))
    }
    let (unbatched, b0) = msgs_for(1);
    let (batched, b8) = msgs_for(8);
    assert_eq!(b0, 0, "max_batch=1 must not batch");
    assert!(b8 > 0, "max_batch=8 must batch");
    assert!(
        batched * 2 <= unbatched,
        "batch 8 must at least halve messages/op: {batched} vs {unbatched}"
    );
}

#[test]
fn batched_calls_execute_exactly_once() {
    // Batched requests go through the same dedup window: the counter
    // must advance exactly once per call even when requests share
    // datagrams (and 30% duplication re-delivers whole batches).
    let mut sim = Simulation::new(NetworkConfig::lan().with_duplicate(0.30), 11);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(16).batched(4));
        let handles: Vec<_> = (0..80u64)
            .map(|_| ch.begin_call(ctx, "inc", Value::Null))
            .collect();
        let mut results: Vec<u64> = handles
            .into_iter()
            .map(|h| match ch.wait(ctx, h).unwrap() {
                Value::U64(n) => n,
                other => panic!("bad reply {other:?}"),
            })
            .collect();
        // Each call saw a distinct counter value: no double-execution
        // leaked into any reply.
        results.sort_unstable();
        results.dedup();
        assert_eq!(results.len(), 80, "duplicate counter values in replies");
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 80);
}

#[test]
fn channel_and_sync_client_share_id_space_safely() {
    // A process may hold a pipelined channel and a stop-and-wait channel
    // against the same server; call ids come from one per-process
    // counter so the server window never confuses them. While a depth-1
    // call waits, a request and a one-way addressed to the process
    // arrive: both come back to the caller in arrival order, and
    // nothing is dropped or discarded.
    let mut sim = Simulation::new(NetworkConfig::lan(), 13);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let slow = sim.spawn_at("slow", NodeId(2), PortId(1), |ctx| {
        let mut srv = rpc::RpcServer::new();
        srv.serve(
            ctx,
            |ctx, _req| {
                ctx.sleep(Duration::from_millis(5))
                    .map_err(|_| RemoteError::new(ErrorCode::Unavailable, "stopped"))?;
                Ok(Value::Null)
            },
            |_, _| {},
        );
    });
    let client = simnet::Endpoint::new(NodeId(1), PortId(7));
    sim.spawn("peer", NodeId(3), move |ctx| {
        let _ = ctx.sleep(Duration::from_millis(2));
        let request = Request {
            call_id: 1,
            reply_to: ctx.endpoint(),
            object: String::new(),
            op: "callback".into(),
            args: Value::Null,
            span: 0,
        };
        ctx.send(client, request.to_bytes());
        let _ = ctx.sleep(Duration::from_millis(1));
        rpc::send_oneway(ctx, client, "inv", Value::U64(9));
    });
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&seen);
    sim.spawn_at("client", NodeId(1), PortId(7), move |ctx| {
        let mut waiter = Channel::new("slow", slow, ChannelConfig::with_depth(1));
        waiter.call(ctx, "wait", Value::Null).unwrap();
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(4));
        let mut sync = Channel::new("counter", server, ChannelConfig::with_depth(1));
        for _ in 0..10u64 {
            let h = ch.begin_call(ctx, "inc", Value::Null);
            sync.call(ctx, "inc", Value::Null).unwrap();
            ch.wait(ctx, h).unwrap();
        }
        let kinds: Vec<String> = waiter
            .take_strays()
            .iter()
            .map(|m| match Packet::from_frame(&m.payload) {
                Ok(Packet::Request(r)) => format!("request {}", r.op),
                Ok(Packet::Oneway(Oneway { op, .. })) => format!("oneway {op}"),
                other => panic!("unexpected stray {other:?}"),
            })
            .collect();
        for c in [&ch, &sync, &waiter] {
            assert_eq!(c.stats.discarded, 0);
            assert_eq!(c.stats.stale_replies, 0);
        }
        *s2.lock().unwrap() = kinds;
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 20);
    assert_eq!(
        *seen.lock().unwrap(),
        vec!["request callback".to_owned(), "oneway inv".to_owned()],
        "mid-call strays must come back in arrival order"
    );
    let report = sim.obs_report();
    assert_eq!(report.rpc.client.strays_dropped, 0);
    assert_eq!(report.rpc.client.stale_replies, 0);
}

#[test]
fn remote_errors_settle_per_call() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 17);
    let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(4).batched(2));
        let good = ch.begin_call(ctx, "echo", Value::U64(1));
        let bad = ch.begin_call(ctx, "frobnicate", Value::Null);
        assert_eq!(ch.wait(ctx, good).unwrap(), Value::U64(1));
        match ch.wait(ctx, bad) {
            Err(RpcError::Remote(e)) => assert_eq!(e.code, ErrorCode::NoSuchOp),
            other => panic!("expected remote error, got {other:?}"),
        }
    });
    sim.run();
}
