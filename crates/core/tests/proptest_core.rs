//! Property-based tests of proxy-core invariants:
//!
//! * wire roundtrips of every binding-metadata type,
//! * interface conformance laws,
//! * and a model check: a caching proxy driven by an arbitrary op
//!   sequence always agrees with an in-memory oracle (single writer,
//!   invalidation coherence).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use naming::spawn_name_server;
use proptest::prelude::*;
use proxy_core::{
    AdaptiveParams, CachingParams, Coherence, InterfaceDesc, OpDesc, OpKind, ProxySpec, ReadTarget,
    ServiceBuilder, ServiceObject, SessionCore,
};
use rpc::{ErrorCode, RemoteError};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

fn arb_coherence() -> impl Strategy<Value = Coherence> {
    prop_oneof![
        (1u64..100_000).prop_map(|us| Coherence::Lease(Duration::from_micros(us))),
        Just(Coherence::Invalidate),
        (1u64..100_000).prop_map(|us| Coherence::LeaseAndInvalidate(Duration::from_micros(us))),
    ]
}

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (0u32..1000, 0u32..70000).prop_map(|(n, p)| Endpoint::new(NodeId(n), PortId(p)))
}

fn arb_spec() -> impl Strategy<Value = ProxySpec> {
    prop_oneof![
        Just(ProxySpec::Stub),
        (arb_coherence(), 1usize..10_000).prop_map(|(coherence, capacity)| {
            ProxySpec::Caching(CachingParams {
                coherence,
                capacity,
            })
        }),
        (1u64..1000).prop_map(|threshold| ProxySpec::Migratory { threshold }),
        (
            arb_endpoint(),
            proptest::collection::vec(arb_endpoint(), 1..5),
            any::<bool>()
        )
            .prop_map(|(primary, replicas, nearest)| ProxySpec::Replicated {
                primary,
                replicas,
                read_target: if nearest {
                    ReadTarget::Nearest
                } else {
                    ReadTarget::Primary
                },
            }),
        (2usize..200, 0.5f64..1.0, 0.0f64..0.5).prop_map(|(window, hi, lo)| {
            ProxySpec::Adaptive(AdaptiveParams {
                window,
                enable_at: hi,
                disable_at: lo,
                caching: CachingParams::default(),
            })
        }),
        ("[a-z]{1,10}", proptest::collection::vec(any::<u64>(), 0..3)).prop_map(|(kind, ns)| {
            ProxySpec::Custom {
                kind,
                params: Value::list(ns.into_iter().map(Value::U64)),
            }
        }),
    ]
}

fn arb_iface() -> impl Strategy<Value = InterfaceDesc> {
    (
        "[a-z.]{1,16}",
        proptest::collection::btree_map(
            "[a-z_]{1,10}".prop_map(String::from),
            (
                any::<bool>(),
                proptest::option::of("[a-z]{1,6}"),
                any::<bool>(),
            ),
            0..8,
        ),
    )
        .prop_map(|(name, ops)| {
            InterfaceDesc::new(
                name,
                ops.into_iter().map(|(op, (is_read, key, idem))| OpDesc {
                    name: op,
                    kind: if is_read { OpKind::Read } else { OpKind::Write },
                    key_field: key,
                    idempotent: idem,
                }),
            )
        })
}

proptest! {
    #[test]
    fn proxyspec_roundtrips(spec in arb_spec()) {
        let v = spec.to_value();
        prop_assert_eq!(ProxySpec::from_value(&v).unwrap(), spec);
    }

    #[test]
    fn iface_roundtrips(iface in arb_iface()) {
        let v = iface.to_value();
        prop_assert_eq!(InterfaceDesc::from_value(&v).unwrap(), iface);
    }

    #[test]
    fn conformance_is_reflexive_and_monotone(iface in arb_iface()) {
        prop_assert!(iface.conforms_to(&iface), "reflexivity");
        // Dropping any operation yields a supertype the original conforms to.
        for drop_idx in 0..iface.ops.len() {
            let mut smaller = iface.clone();
            smaller.ops.remove(drop_idx);
            prop_assert!(iface.conforms_to(&smaller));
        }
        // The empty interface is the top type.
        prop_assert!(iface.conforms_to(&InterfaceDesc::new("top", [])));
    }

    #[test]
    fn tags_are_deterministic(iface in arb_iface(), key in "[a-z0-9]{0,8}") {
        let args = Value::record([("key", Value::str(key))]);
        for op in &iface.ops {
            prop_assert_eq!(op.tag(&args), op.tag(&args.clone()));
        }
    }
}

/// One step of the model-checked workload.
#[derive(Debug, Clone)]
enum Step {
    Put(u8, u8),
    Get(u8),
    Del(u8),
    Sleep(u8),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Step::Put(k % 8, v)),
            any::<u8>().prop_map(|k| Step::Get(k % 8)),
            any::<u8>().prop_map(|k| Step::Del(k % 8)),
            any::<u8>().prop_map(Step::Sleep),
        ],
        1..40,
    )
}

/// A KV object compatible with the oracle below.
struct ModelKv(BTreeMap<String, String>);

impl ServiceObject for ModelKv {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "model-kv",
            [
                OpDesc::read("get", "key"),
                OpDesc::write("put", "key"),
                OpDesc::write("del", "key"),
            ],
        )
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        let key = args
            .get_str("key")
            .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
        match op {
            "get" => Ok(self
                .0
                .get(key)
                .map(|v| Value::str(v.clone()))
                .unwrap_or(Value::Null)),
            "put" => {
                let v = args
                    .get_str("value")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.0.insert(key.to_owned(), v.to_owned());
                Ok(Value::Null)
            }
            "del" => {
                self.0.remove(key);
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

/// Drives a caching proxy with `steps` and checks every read against an
/// in-memory oracle. With a single writer and write-own-tag
/// invalidation, the proxy must be indistinguishable from the oracle.
fn run_model(steps: Vec<Step>, coherence: Coherence, seed: u64) -> Result<(), TestCaseError> {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence,
            capacity: 4, // deliberately tiny: evictions happen mid-run
        }))
        .object(|| Box::new(ModelKv(BTreeMap::new())))
        .spawn(&sim, NodeId(1), ns);
    let failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let f2 = Arc::clone(&failure);
    sim.spawn("driver", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        let mut oracle: BTreeMap<String, String> = BTreeMap::new();
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Put(k, v) => {
                    let (k, v) = (format!("k{k}"), format!("v{v}"));
                    rt.invoke(
                        ctx,
                        kv,
                        "put",
                        Value::record([("key", Value::str(&*k)), ("value", Value::str(&*v))]),
                    )
                    .unwrap();
                    oracle.insert(k, v);
                }
                Step::Del(k) => {
                    let k = format!("k{k}");
                    rt.invoke(ctx, kv, "del", Value::record([("key", Value::str(&*k))]))
                        .unwrap();
                    oracle.remove(&k);
                }
                Step::Get(k) => {
                    let k = format!("k{k}");
                    let got = rt
                        .invoke(ctx, kv, "get", Value::record([("key", Value::str(&*k))]))
                        .unwrap();
                    let want = oracle
                        .get(&k)
                        .map(|v| Value::str(v.clone()))
                        .unwrap_or(Value::Null);
                    if got != want {
                        *f2.lock().unwrap() = Some(format!(
                            "step {i}: get({k}) = {got:?}, oracle says {want:?}"
                        ));
                        return;
                    }
                }
                Step::Sleep(ms) => {
                    let _ = ctx.sleep(Duration::from_millis(*ms as u64 % 20));
                }
            }
        }
    });
    sim.run();
    if let Some(msg) = failure.lock().unwrap().take() {
        return Err(TestCaseError::fail(msg));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn caching_proxy_matches_oracle_invalidate(steps in arb_steps(), seed in 0u64..1000) {
        run_model(steps, Coherence::Invalidate, seed)?;
    }

    #[test]
    fn caching_proxy_matches_oracle_lease(steps in arb_steps(), seed in 0u64..1000) {
        run_model(steps, Coherence::Lease(Duration::from_millis(5)), seed)?;
    }

    #[test]
    fn caching_proxy_matches_oracle_combined(steps in arb_steps(), seed in 0u64..1000) {
        run_model(steps, Coherence::LeaseAndInvalidate(Duration::from_millis(3)), seed)?;
    }
}
