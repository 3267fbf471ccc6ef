//! The channel's adaptive retransmission timeout: a Jacobson/Karels RTT
//! estimate with Karn's rule, floored at the policy's initial timeout,
//! with a retransmission's back-off carried over to later calls (capped
//! at twice the estimate once one exists).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RetryPolicy, RpcError, RpcServer};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// Spawns an echo server; `slow` sleeps for the duration (ns) in its
/// argument before answering, so its reply misses the caller's RTO.
fn spawn_echo(sim: &Simulation, node: NodeId) -> Endpoint {
    sim.spawn_at("echo", node, PortId(1), |ctx| {
        let mut srv = RpcServer::new();
        srv.serve(
            ctx,
            |ctx, req| match req.op.as_str() {
                "echo" => Ok(req.args.clone()),
                "slow" => {
                    let ns = req.args.as_u64().unwrap_or(0);
                    ctx.sleep(Duration::from_nanos(ns))
                        .map_err(|_| RemoteError::new(ErrorCode::App, "stopped"))?;
                    Ok(Value::Null)
                }
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            },
            |_, _| {},
        );
    })
}

/// Runs `client` as a stop-and-wait caller on node 1 against an echo
/// server on node 0 and asserts that it ran to the end.
fn run_client(
    net: NetworkConfig,
    seed: u64,
    client: impl FnOnce(&mut Ctx, Endpoint) + Send + 'static,
) {
    let mut sim = Simulation::new(net, seed);
    let server = spawn_echo(&sim, NodeId(0));
    let done = Arc::new(AtomicBool::new(false));
    let d = Arc::clone(&done);
    sim.spawn("client", NodeId(1), move |ctx| {
        client(ctx, server);
        d.store(true, Ordering::SeqCst);
    });
    sim.run();
    assert!(done.load(Ordering::SeqCst), "client did not finish");
}

fn echo(ch: &mut Channel, ctx: &mut Ctx, i: u64) {
    assert_eq!(ch.call(ctx, "echo", Value::U64(i)).unwrap(), Value::U64(i));
}

/// A 100 ms round trip against a 10 ms initial RTO: the first calls
/// retransmit, their back-off carries over until a call completes on its
/// first send, and from then on the estimate covers the path.
#[test]
fn lossless_wan_stops_retransmitting_after_warmup() {
    let net = NetworkConfig::lan().with_remote_latency(Duration::from_millis(50));
    run_client(net, 1, |ctx, server| {
        let policy = RetryPolicy::default();
        assert_eq!(policy.timeout, Duration::from_millis(10));
        let mut ch = Channel::new("echo", server, ChannelConfig::with_depth(1));
        for i in 0..3 {
            echo(&mut ch, ctx, i);
        }
        let warmup_retries = ch.stats.retries;
        assert!(warmup_retries > 0, "a 10 ms RTO must retransmit at first");
        let srtt = ch.srtt().expect("a clean sample within 3 calls");
        assert!(srtt >= Duration::from_millis(100), "srtt {srtt:?}");
        for i in 3..103 {
            echo(&mut ch, ctx, i);
        }
        assert_eq!(
            ch.stats.retries, warmup_retries,
            "retransmits after warm-up"
        );
        // Each warm-up retransmit was answered once more, late.
        assert_eq!(ch.stats.stale_replies, warmup_retries);
        assert!(ch.rto() > Duration::from_millis(100), "rto {:?}", ch.rto());
    });
}

/// On a LAN the round trip sits far below the floor, so every call is
/// sent with exactly the policy's timeout — the fixed-timeout schedule.
#[test]
fn lan_rto_never_drops_below_the_policy_timeout() {
    let net = NetworkConfig::lan().with_jitter(0.2);
    run_client(net, 2, |ctx, server| {
        let timeout = RetryPolicy::default().timeout;
        let mut ch = Channel::new("echo", server, ChannelConfig::with_depth(1));
        assert_eq!(ch.rto(), timeout, "initial RTO is the policy timeout");
        for i in 0..200 {
            echo(&mut ch, ctx, i);
            assert_eq!(ch.rto(), timeout, "call {i}: rto {:?}", ch.rto());
            assert_eq!(ch.rto_estimate(), timeout);
        }
        let srtt = ch.srtt().expect("lossless LAN calls are clean samples");
        assert!(srtt < timeout / 4, "srtt {srtt:?}");
        assert_eq!(ch.stats.retries, 0);
    });
}

/// Karn's rule: the reply to a retransmitted call may answer either
/// send, so it is not timed and SRTT stays where it was.
#[test]
fn reply_to_a_retransmitted_call_is_not_a_sample() {
    run_client(NetworkConfig::lan(), 3, |ctx, server| {
        let mut ch = Channel::new("echo", server, ChannelConfig::with_depth(1));
        for i in 0..5 {
            echo(&mut ch, ctx, i);
        }
        let before = ch.srtt().expect("clean samples");
        // Answered after 15 ms against a 10 ms RTO: one retransmit.
        let slow = Value::U64(Duration::from_millis(15).as_nanos() as u64);
        ch.call(ctx, "slow", slow).unwrap();
        assert_eq!(ch.stats.retries, 1);
        assert_eq!(ch.srtt(), Some(before), "retransmitted reply was sampled");
        // The carried back-off (20 ms) is capped at twice the estimate.
        assert_eq!(ch.rto(), ch.rto_estimate() * 2);
        // The next clean reply is a sample again and drops the carry.
        echo(&mut ch, ctx, 99);
        assert_eq!(ch.rto(), ch.rto_estimate());
    });
}

/// Under heavy loss every retransmission carries its back-off forward,
/// but never past twice the estimate: without the cap a run of losses
/// ratchets the RTO up by `backoff` per lost send and the mean latency
/// explodes (3.59 s instead of ~11 ms in E7's 30%-loss row).
#[test]
fn carried_rto_stays_within_twice_the_estimate_under_loss() {
    let net = NetworkConfig::lan().with_loss(0.30);
    run_client(net, 4, |ctx, server| {
        let policy = RetryPolicy::exponential(Duration::from_millis(4), 10);
        let mut ch = Channel::new(
            "echo",
            server,
            ChannelConfig::with_depth(1).with_policy(policy),
        );
        let mut ok = 0u32;
        for i in 0..150 {
            match ch.call(ctx, "echo", Value::U64(i)) {
                Ok(v) => {
                    assert_eq!(v, Value::U64(i));
                    ok += 1;
                }
                Err(RpcError::Timeout { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
            if ch.srtt().is_some() {
                assert!(
                    ch.rto() <= ch.rto_estimate() * 2,
                    "call {i}: carried rto {:?} over 2x estimate {:?}",
                    ch.rto(),
                    ch.rto_estimate()
                );
            }
        }
        assert!(ch.stats.retries > 30, "30% loss must retransmit");
        assert!(ok > 140, "{ok}/150 calls succeeded");
    });
}

/// A rebind points the channel at a different path, so the estimate
/// learned on the old one is dropped.
#[test]
fn rebind_resets_the_estimate() {
    let net = NetworkConfig::lan().with_remote_latency(Duration::from_millis(50));
    let mut sim = Simulation::new(net, 5);
    let far = spawn_echo(&sim, NodeId(0));
    // Same node as the client: a local round trip.
    let near = spawn_echo(&sim, NodeId(1));
    let done = Arc::new(AtomicBool::new(false));
    let d = Arc::clone(&done);
    sim.spawn("client", NodeId(1), move |ctx| {
        let timeout = RetryPolicy::default().timeout;
        let mut ch = Channel::new("echo", far, ChannelConfig::with_depth(1));
        for i in 0..5 {
            echo(&mut ch, ctx, i);
        }
        assert!(ch.srtt().unwrap() >= Duration::from_millis(100));
        assert!(ch.rto() > timeout);
        ch.rebind(near);
        assert_eq!(ch.srtt(), None);
        assert_eq!(ch.rto(), timeout);
        assert_eq!(ch.rto_estimate(), timeout);
        echo(&mut ch, ctx, 5);
        assert!(ch.srtt().unwrap() < Duration::from_millis(1));
        assert_eq!(ch.rto(), timeout);
        d.store(true, Ordering::SeqCst);
    });
    sim.run();
    assert!(done.load(Ordering::SeqCst), "client did not finish");
}
