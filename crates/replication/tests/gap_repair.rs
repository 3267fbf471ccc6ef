//! Gap repair: backups that miss updates (loss, partitions) catch up
//! from the primary's log instead of staying stale forever.

use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{InterfaceDesc, OpDesc, ReadTarget, ServiceObject};
use replication::{client_runtime, spawn_replica_group, Propagation, ReplicaGroupConfig};
use rpc::{ErrorCode, RemoteError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

struct Register(u64);

impl ServiceObject for Register {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "register",
            [OpDesc::read_whole("read"), OpDesc::write_whole("write")],
        )
    }
    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        match op {
            "read" => Ok(Value::U64(self.0)),
            "write" => {
                self.0 = args
                    .get_u64("v")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

/// Reads a replica's version counter directly.
fn replica_version(ctx: &mut Ctx, replica: simnet::Endpoint) -> u64 {
    let mut raw = rpc::Channel::new("replica", replica, rpc::ChannelConfig::with_depth(1));
    raw.call(ctx, "_ver", Value::Null)
        .unwrap()
        .as_u64()
        .unwrap()
}

#[test]
fn backup_catches_up_after_lost_async_updates() {
    // Async propagation + a partition window: updates to the backup are
    // blackholed for a while. The next update that does arrive exposes
    // the gap, and the backup must repair it from the primary's log.
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    let replicas = spawn_replica_group(
        &sim,
        ns,
        ReplicaGroupConfig {
            service: "reg".into(),
            nodes: vec![NodeId(1), NodeId(2)],
            propagation: Propagation::Async,
            read_target: ReadTarget::Primary,
        },
        || Box::new(Register(0)),
    );
    let backup = replicas[1];
    sim.spawn("driver", NodeId(3), move |ctx| {
        let mut rt = client_runtime(ns);
        let reg = rt.bind(ctx, "reg").unwrap();

        // Two updates that reach the backup.
        for v in 1..=2u64 {
            rt.invoke(ctx, reg, "write", Value::record([("v", Value::U64(v))]))
                .unwrap();
        }
        ctx.sleep(Duration::from_millis(10)).unwrap();
        assert_eq!(replica_version(ctx, backup), 2);

        // Cut the primary→backup link; these updates are lost.
        ctx.net().partition(NodeId(1), NodeId(2));
        for v in 3..=6u64 {
            rt.invoke(ctx, reg, "write", Value::record([("v", Value::U64(v))]))
                .unwrap();
        }
        ctx.sleep(Duration::from_millis(10)).unwrap();
        assert_eq!(replica_version(ctx, backup), 2, "updates leaked through");

        // Heal; the *next* update exposes the gap and triggers repair.
        ctx.net().heal(NodeId(1), NodeId(2));
        rt.invoke(ctx, reg, "write", Value::record([("v", Value::U64(7))]))
            .unwrap();
        ctx.sleep(Duration::from_millis(30)).unwrap();

        assert_eq!(
            replica_version(ctx, backup),
            7,
            "backup failed to repair the gap"
        );
        // And its object state matches, not just its counter.
        let mut raw = rpc::Channel::new("replica", backup, rpc::ChannelConfig::with_depth(1));
        let reply = raw.call(ctx, "read", Value::Null).unwrap();
        assert_eq!(reply.get("val"), Some(&Value::U64(7)));
    });
    sim.run();
}

#[test]
fn random_loss_converges_with_repair() {
    // 20% loss on the async propagation path: without gap repair the
    // backup would drift; with it, the final state converges.
    let mut sim = Simulation::new(NetworkConfig::lan().with_loss(0.20), 2);
    let ns = spawn_name_server(&sim, NodeId(0));
    let replicas = spawn_replica_group(
        &sim,
        ns,
        ReplicaGroupConfig {
            service: "reg".into(),
            nodes: vec![NodeId(1), NodeId(2)],
            propagation: Propagation::Async,
            read_target: ReadTarget::Primary,
        },
        || Box::new(Register(0)),
    );
    let primary = replicas[0];
    let backup = replicas[1];
    sim.spawn("driver", NodeId(3), move |ctx| {
        let mut rt = client_runtime(ns);
        let reg = rt.bind(ctx, "reg").unwrap();
        for v in 1..=60u64 {
            // A timed-out write may still have executed at the primary
            // (at-most-once ambiguity), so the primary's own version —
            // not our success count — is the convergence oracle below.
            let _ = rt.invoke(ctx, reg, "write", Value::record([("v", Value::U64(v))]));
            if ctx.sleep(Duration::from_millis(2)).is_err() {
                return;
            }
        }
        // Let stragglers and repairs settle. Final repair only triggers
        // on the next arriving update, so nudge once with loss off.
        ctx.net().set_loss(0.0);
        rt.invoke(ctx, reg, "write", Value::record([("v", Value::U64(999))]))
            .unwrap();
        ctx.sleep(Duration::from_millis(50)).unwrap();
        assert_eq!(
            replica_version(ctx, backup),
            replica_version(ctx, primary),
            "backup diverged despite gap repair"
        );
    });
    sim.run();
}
