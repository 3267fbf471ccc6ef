//! The binding protocol.
//!
//! [`Binder::bind`] is the proxy principle's installation step: resolve
//! the service name, read the **service-chosen** [`ProxySpec`] from the
//! binding metadata, and instantiate the corresponding proxy in the
//! client's context. The client never picks the strategy. The
//! [`SessionCore`](crate::SessionCore) that owns a binder keeps the
//! proxies it creates and routes one-way notifications between them.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use naming::{NameClient, NameRecord};
use rpc::RpcError;
use simnet::{Ctx, Endpoint};
use wire::{Value, WireError};

use crate::interface::InterfaceDesc;
use crate::object::FactoryRegistry;
use crate::proxies::{AdaptiveProxy, CachingProxy, MigratoryProxy, StubProxy};
use crate::proxy::Proxy;
use crate::spec::ProxySpec;

/// Everything a custom proxy factory gets to work with.
#[derive(Debug)]
pub struct BindContext<'a> {
    /// The service name being bound.
    pub service: &'a str,
    /// The resolved name record.
    pub record: &'a NameRecord,
    /// The service interface from the binding metadata.
    pub iface: &'a InterfaceDesc,
    /// Spec parameters (for [`ProxySpec::Custom`]).
    pub params: &'a Value,
    /// The name server, for proxies that need rebinds.
    pub ns: Endpoint,
    /// Object factories available in this context.
    pub factories: &'a FactoryRegistry,
}

/// Constructor for a [`ProxySpec::Custom`] proxy.
pub type ProxyCtor =
    dyn for<'a> Fn(&mut Ctx, &BindContext<'a>) -> Result<Box<dyn Proxy>, RpcError> + Send + Sync;

/// Client-side half of the binding protocol.
pub struct Binder {
    ns_ep: Endpoint,
    ns: NameClient,
    factories: FactoryRegistry,
    proxy_ctors: HashMap<String, Arc<ProxyCtor>>,
    /// When set, bulk-enabled proxies bound by this binder resolve blob
    /// references through this service (a region-local edge cache)
    /// instead of each ref's origin store.
    bulk_route: Option<String>,
}

impl fmt::Debug for Binder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Binder")
            .field("ns", &self.ns_ep)
            .field("factories", &self.factories)
            .finish_non_exhaustive()
    }
}

impl Binder {
    /// Creates a binder talking to the name server at `ns`.
    pub fn new(ns: Endpoint) -> Binder {
        Binder {
            ns_ep: ns,
            ns: NameClient::new(ns),
            factories: FactoryRegistry::new(),
            proxy_ctors: HashMap::new(),
            bulk_route: None,
        }
    }

    /// Routes bulk resolution through a region-local blob service (an
    /// edge cache) for every bulk-enabled proxy this binder creates
    /// from now on. `None` restores direct-to-origin fetches.
    ///
    /// This is *placement*, not policy: the service still chooses the
    /// spill contract via its published spec; the client context merely
    /// names the nearest replica of the store hierarchy.
    pub fn set_bulk_route(&mut self, route: Option<String>) {
        self.bulk_route = route;
    }

    /// Supplies object factories (needed to host migrated objects).
    pub fn with_factories(mut self, factories: FactoryRegistry) -> Binder {
        self.factories = factories;
        self
    }

    /// The name-server endpoint this binder resolves against.
    pub fn ns_endpoint(&self) -> Endpoint {
        self.ns_ep
    }

    /// Registers a constructor for [`ProxySpec::Custom`] specs of the
    /// given kind. This is the Rust substitute for shipping proxy code:
    /// the client pre-registers implementations, the service selects one
    /// by name (see `DESIGN.md` §6).
    pub fn register_proxy(
        &mut self,
        kind: impl Into<String>,
        ctor: impl for<'a> Fn(&mut Ctx, &BindContext<'a>) -> Result<Box<dyn Proxy>, RpcError>
            + Send
            + Sync
            + 'static,
    ) {
        self.proxy_ctors.insert(kind.into(), Arc::new(ctor));
    }

    /// Binds to `service`: resolves the name and instantiates the proxy
    /// the service asked for.
    ///
    /// # Errors
    ///
    /// * name-service errors (unknown name, transport),
    /// * [`RpcError::Wire`] if the binding metadata is malformed,
    /// * any error from the proxy's own bind step (e.g. subscribe).
    pub fn bind(&mut self, ctx: &mut Ctx, service: &str) -> Result<Box<dyn Proxy>, RpcError> {
        let record = self.ns.resolve(ctx, service)?;
        let spec_v = record
            .meta
            .get("spec")
            .ok_or(RpcError::Wire(WireError::MissingField("spec")))?;
        let iface_v = record
            .meta
            .get("iface")
            .ok_or(RpcError::Wire(WireError::MissingField("iface")))?;
        let spec = ProxySpec::from_value(spec_v)?;
        let iface = InterfaceDesc::from_value(iface_v)?;
        self.instantiate(ctx, service, &record, spec, iface)
    }

    /// Binds, retrying while the name is not yet registered (services
    /// register asynchronously at simulation start).
    ///
    /// # Errors
    ///
    /// The final error if the deadline passes without a successful bind.
    pub fn bind_wait(
        &mut self,
        ctx: &mut Ctx,
        service: &str,
        within: std::time::Duration,
    ) -> Result<Box<dyn Proxy>, RpcError> {
        let deadline = ctx.now() + within;
        loop {
            match self.bind(ctx, service) {
                Ok(p) => return Ok(p),
                Err(e) if naming::is_not_found(&e) && ctx.now() < deadline => {
                    self.ns.forget(service);
                    ctx.sleep(std::time::Duration::from_millis(1))
                        .map_err(|_| RpcError::Stopped)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn instantiate(
        &mut self,
        ctx: &mut Ctx,
        service: &str,
        record: &NameRecord,
        spec: ProxySpec,
        iface: InterfaceDesc,
    ) -> Result<Box<dyn Proxy>, RpcError> {
        let server = record.endpoint;
        match spec {
            ProxySpec::Stub => Ok(Box::new(StubProxy::new(service, server, self.ns_ep))),
            ProxySpec::Caching(params) => Ok(Box::new(CachingProxy::bind(
                ctx, service, server, self.ns_ep, iface, params,
            )?)),
            ProxySpec::Migratory { threshold } => Ok(Box::new(MigratoryProxy::new(
                service,
                server,
                self.ns_ep,
                iface,
                self.factories.clone(),
                threshold,
            ))),
            ProxySpec::Adaptive(params) => Ok(Box::new(AdaptiveProxy::bind(
                ctx, service, server, self.ns_ep, iface, params,
            )?)),
            ProxySpec::Replicated { .. } => {
                // The replica proxy lives in the `replication` crate; it
                // registers itself here under this custom kind.
                let params = spec.to_value();
                self.bind_custom(ctx, "replicated", service, record, &iface, &params)
            }
            ProxySpec::Bulk { inner, params } => {
                let proxy: Box<dyn Proxy> = match *inner {
                    ProxySpec::Stub => {
                        let mut p = StubProxy::new(service, server, self.ns_ep);
                        p.enable_bulk(params, self.ns_ep);
                        if let Some(route) = &self.bulk_route {
                            p.bulk_mut()
                                .expect("just enabled")
                                .set_route(Some(route.clone()));
                        }
                        Box::new(p)
                    }
                    ProxySpec::Caching(cp) => {
                        let mut p =
                            CachingProxy::bind(ctx, service, server, self.ns_ep, iface, cp)?;
                        p.enable_bulk(params, self.ns_ep);
                        if let Some(route) = &self.bulk_route {
                            p.bulk_mut()
                                .expect("just enabled")
                                .set_route(Some(route.clone()));
                        }
                        Box::new(p)
                    }
                    other => {
                        return Err(RpcError::Wire(WireError::WrongKind {
                            expected: "bulk inner spec of kind stub or caching",
                            actual: match other {
                                ProxySpec::Migratory { .. } => "migratory",
                                ProxySpec::Replicated { .. } => "replicated",
                                ProxySpec::Adaptive(_) => "adaptive",
                                ProxySpec::Bulk { .. } => "bulk",
                                ProxySpec::Custom { .. } => "custom",
                                ProxySpec::Stub | ProxySpec::Caching(_) => unreachable!(),
                            },
                        }))
                    }
                };
                Ok(proxy)
            }
            ProxySpec::Custom { kind, params } => {
                self.bind_custom(ctx, &kind, service, record, &iface, &params)
            }
        }
    }

    fn bind_custom(
        &mut self,
        ctx: &mut Ctx,
        kind: &str,
        service: &str,
        record: &NameRecord,
        iface: &InterfaceDesc,
        params: &Value,
    ) -> Result<Box<dyn Proxy>, RpcError> {
        let ctor = self.proxy_ctors.get(kind).cloned().ok_or_else(|| {
            RpcError::Remote(rpc::RemoteError::new(
                rpc::ErrorCode::Unavailable,
                format!("no proxy implementation registered for kind `{kind}`"),
            ))
        })?;
        let bind_ctx = BindContext {
            service,
            record,
            iface,
            params,
            ns: self.ns_ep,
            factories: &self.factories,
        };
        ctor(ctx, &bind_ctx)
    }
}
