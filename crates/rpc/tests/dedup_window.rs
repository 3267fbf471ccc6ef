//! Duplicate-suppression window edge cases: cache hits, evictions, and
//! very late duplicates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rpc::{ErrorCode, Packet, RemoteError, Reply, Request, RpcServer, Served};
use simnet::{Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// Hand-crafts a raw request datagram (bypassing Channel) so tests can
/// control call ids exactly.
fn raw_request(call_id: u64, reply_to: Endpoint, op: &str) -> Bytes {
    Request {
        call_id,
        reply_to,
        object: String::new(),
        op: op.to_owned(),
        args: Value::Null,
        span: 0,
    }
    .to_bytes()
}

fn decode_reply(payload: &[u8]) -> Reply {
    match Packet::from_bytes(payload).unwrap() {
        Packet::Reply(r) => r,
        other => panic!("expected reply, got {other:?}"),
    }
}

#[test]
fn retransmission_served_from_cache_without_reexecution() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let execs = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&execs);
    let server = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            rpc.handle(ctx, &msg, |_c, _req| {
                Ok(Value::U64(e2.fetch_add(1, Ordering::SeqCst) + 1))
            });
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        // Send call 1 twice, manually.
        ctx.send(server, raw_request(1, me, "inc"));
        ctx.send(server, raw_request(1, me, "inc"));
        let a = decode_reply(&ctx.recv().unwrap().payload);
        let b = decode_reply(&ctx.recv().unwrap().payload);
        assert_eq!(a, b, "cached reply must be byte-identical");
        assert_eq!(a.result.unwrap(), Value::U64(1));
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 1);
}

#[test]
fn evicted_duplicate_is_dropped_not_reexecuted() {
    // Push the client's window past its capacity (32), then replay call
    // id 1: it is older than the window, so it must be *dropped* — never
    // re-executed, and no reply sent.
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let execs = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let (e2, d2) = (Arc::clone(&execs), Arc::clone(&dropped));
    let server = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            let served = rpc.handle(ctx, &msg, |_c, _req| {
                Ok(Value::U64(e2.fetch_add(1, Ordering::SeqCst) + 1))
            });
            if matches!(served, Served::DuplicateDropped) {
                d2.fetch_add(1, Ordering::SeqCst);
            }
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        for id in 1..=40u64 {
            ctx.send(server, raw_request(id, me, "inc"));
            let _ = ctx.recv().unwrap();
        }
        // Very late duplicate of the long-evicted call 1.
        ctx.send(server, raw_request(1, me, "inc"));
        // No reply should come back for it.
        let silent = ctx
            .recv_timeout(std::time::Duration::from_millis(20))
            .unwrap();
        assert!(silent.is_none(), "evicted duplicate got a reply");
    });
    sim.run();
    assert_eq!(
        execs.load(Ordering::SeqCst),
        40,
        "late duplicate re-executed"
    );
    assert_eq!(dropped.load(Ordering::SeqCst), 1);
}

#[test]
fn undecodable_datagrams_are_counted_and_ignored() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let stats = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&stats);
    let server = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            rpc.handle(ctx, &msg, |_c, _req| Ok(Value::Null));
            s2.store(rpc.stats.undecodable, Ordering::SeqCst);
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        ctx.send(server, Bytes::from_static(b"complete garbage"));
        // A valid call afterwards still works.
        ctx.send(server, raw_request(1, ctx.endpoint(), "x"));
        let rep = decode_reply(&ctx.recv().unwrap().payload);
        assert!(rep.result.is_ok());
    });
    sim.run();
    assert_eq!(stats.load(Ordering::SeqCst), 1);
}

#[test]
fn handler_errors_are_cached_like_successes() {
    // At-most-once applies to failures too: a retransmitted failing call
    // must get the *cached* error, not a second execution.
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    let execs = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&execs);
    let server = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            rpc.handle(ctx, &msg, |_c, _req| {
                e2.fetch_add(1, Ordering::SeqCst);
                Err(RemoteError::new(ErrorCode::App, "always fails"))
            });
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        ctx.send(server, raw_request(7, me, "boom"));
        ctx.send(server, raw_request(7, me, "boom"));
        let a = decode_reply(&ctx.recv().unwrap().payload);
        let b = decode_reply(&ctx.recv().unwrap().payload);
        assert_eq!(a, b);
        assert_eq!(a.result.unwrap_err().code, ErrorCode::App);
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 1);
}
