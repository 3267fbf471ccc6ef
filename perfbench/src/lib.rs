//! `perfbench` — the proxide benchmark.
//!
//! Three closed-loop workloads, each built only from the public APIs a
//! client of the workspace uses (`Simulation`, `ServiceBuilder`,
//! `SessionCore`, `naming`, `services::{kv, blob}`, the `RunReport` and
//! profiler read-outs). One run measures one workload for a fixed host
//! time as repetitions that cycle through 32 sub-seeds of the run's
//! seed:
//!
//! * untraced (`--trace 0`): the simnet trace, profiler, flight recorder
//!   and benchmark spans are all off; reports the end-to-end metrics;
//! * traced (`--trace 1`): interleaves untraced and traced repetitions
//!   and reports the per-layer metrics, the tracing overhead and the
//!   outside-in layer ledger.
//!
//! Every repetition checks the workload's outputs, and repetitions with
//! the same sub-seed must agree on every count the seed fixes.

pub mod bulk;
pub mod common;
pub mod kv;
pub mod layers;
pub mod runner;
pub mod span;
pub mod stats;
pub mod sys;
pub mod wirebench;

use common::{Observe, Rep};
use wire::Value;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvLan,
    FleetMc,
    BulkWan,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::KvLan, Workload::FleetMc, Workload::BulkWan];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvLan => "kv-lan",
            Workload::FleetMc => "fleet-mc",
            Workload::BulkWan => "bulk-wan",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether clients use the non-blocking surface (poll-driven).
    pub fn poll_driven(self) -> bool {
        !matches!(self, Workload::BulkWan)
    }

    /// Runs one repetition. `small` selects the reduced size the tests
    /// use; `threads` overrides the scheduler thread count.
    pub fn run_rep(self, seed: u64, obs: &Observe, small: bool, threads: Option<usize>) -> Rep {
        match self {
            Workload::KvLan | Workload::FleetMc => {
                let mut shape = if self == Workload::KvLan {
                    kv::Shape::kv_lan(small)
                } else {
                    kv::Shape::fleet_mc(small)
                };
                if let Some(t) = threads {
                    shape.threads = t;
                }
                kv::run_rep(&shape, seed, obs)
            }
            Workload::BulkWan => bulk::run_rep(&bulk::Shape::bulk_wan(small), seed, obs),
        }
    }

    /// The workload's typical request and reply envelopes, for the wire
    /// timings.
    pub fn wire_messages(self) -> Vec<Value> {
        use wirebench::{reply, request};
        match self {
            Workload::KvLan | Workload::FleetMc => {
                let v = Value::str("c12/k3/v7/".to_owned() + &"q".repeat(kv::VALUE_LEN - 10));
                vec![
                    request(
                        "put",
                        Value::record([("key", Value::str("c12/k3")), ("value", v.clone())]),
                    ),
                    reply(Value::Null),
                    request("get", Value::record([("key", Value::str("c12/k3"))])),
                    reply(v),
                ]
            }
            Workload::BulkWan => {
                let chunk: Vec<u8> = (0..16 * 1024).map(|i| (i * 7 % 253) as u8).collect();
                vec![
                    request("get", Value::record([("key", Value::str("asset-3"))])),
                    reply(Value::blob_ref("blob", "s/n3:1/77", 40_000, 0xdead_beef)),
                    request(
                        "get_chunk",
                        Value::record([("key", Value::str("s/n3:1/77")), ("seq", Value::U64(1))]),
                    ),
                    reply(Value::record([("data", Value::blob(chunk))])),
                ]
            }
        }
    }
}
