//! The proxy zoo: concrete proxy implementations.
//!
//! | Proxy | Strategy | Paper analogue |
//! |---|---|---|
//! | [`StubProxy`] | marshal and forward every call | the RPC stub — the degenerate proxy |
//! | [`CachingProxy`] | cache read results, stay coherent via leases and/or invalidations | the "intelligent" proxy motivating the paper |
//! | [`MigratoryProxy`] | check the object out into the client context after a usage threshold | migration as an invocation optimization |
//! | [`AdaptiveProxy`] | watch the access mix, switch strategy on the fly | the service's freedom to change protocol without client changes |
//!
//! The replica-reading proxy lives in the `replication` crate, next to
//! the replicated server machinery it pairs with.

mod adaptive;
mod caching;
mod local;
mod migratory;
mod stub;

pub use adaptive::AdaptiveProxy;
pub use caching::CachingProxy;
pub use local::LocalProxy;
pub use migratory::MigratoryProxy;
pub use stub::StubProxy;

use naming::NameClient;
use rpc::{endpoint_from_value, Channel, ErrorCode, RpcError};
use simnet::Ctx;
use wire::Value;

use crate::proxy::{route_strays, OnewaySink, ProxyStats};

/// Cap on `Moved` redirects followed within one logical call; bounds the
/// cost of pathological forwarding chains.
pub(crate) const MAX_REDIRECTS: u32 = 16;

/// Issues a call, collecting stray one-way notifications into `strays`,
/// following `Moved` redirects (forwarding pointers left by migration)
/// and falling back to a fresh name-service lookup after a timeout.
///
/// Local rebinds performed here are the *lazy* path-compression of
/// experiment E10: after following a chain once, the proxy points at the
/// object's true home and later calls pay a single hop.
#[allow(clippy::too_many_arguments)] // internal plumbing shared by every proxy
pub(crate) fn robust_call(
    rpc: &mut Channel,
    ns: &mut NameClient,
    service: &str,
    ctx: &mut Ctx,
    op: &str,
    args: Value,
    strays: &mut dyn OnewaySink,
    stats: &mut ProxyStats,
) -> Result<Value, RpcError> {
    let mut redirects = 0;
    let mut relookups = 0;
    loop {
        let result = rpc.call(ctx, op, args.clone());
        route_strays(ctx, rpc, strays);
        match result {
            Err(RpcError::Remote(ref e)) if e.code == ErrorCode::Moved => {
                if redirects >= MAX_REDIRECTS {
                    return result;
                }
                match endpoint_from_value(&e.data) {
                    Ok(new_ep) => {
                        rpc.rebind(new_ep);
                        stats.rebinds += 1;
                        redirects += 1;
                    }
                    Err(_) => return result,
                }
            }
            Err(RpcError::Timeout { .. }) if relookups == 0 => {
                // The recorded endpoint may be dead (crashed or moved
                // without a forwarder); ask the name service once.
                relookups += 1;
                ns.forget(service);
                match ns.lookup(ctx, service) {
                    Ok(rec) if rec.endpoint != rpc.server() => {
                        rpc.rebind(rec.endpoint);
                        stats.rebinds += 1;
                    }
                    _ => return result,
                }
            }
            other => return other,
        }
    }
}
