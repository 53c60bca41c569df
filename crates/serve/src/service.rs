//! The transport-facing adapter: a [`PlanService`] wraps one shard's
//! [`Router`] behind [`bbsim_net::Service`], so serve traffic rides the
//! same hermetic simulated network as the scraping campaigns.
//!
//! Cache observability crosses the wire in response headers instead of
//! shared state: `x-cache` carries one `h`/`m` flag per answered query
//! (envelope order) and `x-evicted` the comma-joined cache keys evicted
//! while answering. The engine parses both to emit `ServeLookupEnd` and
//! `CacheEvicted` telemetry without reaching into the service.

use crate::api::{ServeRequest, WireError};
use crate::router::Router;
use crate::store::PlanStore;
use bbsim_net::{Exchange, Request, Response, Service, SimDuration, SimIp, SimTime, Status};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Response header carrying per-query cache flags (`h,m,...`).
pub const CACHE_HEADER: &str = "x-cache";
/// Response header carrying evicted cache keys (comma-joined).
pub const EVICTED_HEADER: &str = "x-evicted";

/// Virtual processing costs of one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCosts {
    /// Per-query cost when the answer cache hits.
    pub hit_ms: u64,
    /// Per-query cost when the indices must be walked.
    pub miss_ms: u64,
    /// Upper bound of the per-miss jitter drawn from the hermetic
    /// transport RNG (0 = deterministic cost).
    pub miss_jitter_ms: u64,
}

impl ServeCosts {
    pub fn paper_default() -> Self {
        Self {
            hit_ms: 1,
            miss_ms: 6,
            miss_jitter_ms: 2,
        }
    }
}

/// One shard's serving stack: router + cost model, mounted on a
/// transport endpoint.
#[derive(Debug)]
pub struct PlanService {
    router: Router,
    costs: ServeCosts,
}

impl PlanService {
    pub fn new(store: Arc<PlanStore>, cache_capacity: usize, costs: ServeCosts) -> Self {
        Self {
            router: Router::new(store, cache_capacity),
            costs,
        }
    }

    fn answer(&mut self, req: &Request, rng: &mut StdRng) -> (Response, SimDuration) {
        let request = match ServeRequest::from_http(req) {
            Ok(r) => r,
            Err(WireError(msg)) => {
                let mut resp = Response::ok(msg);
                resp.status = Status::BadRequest;
                return (resp, SimDuration::from_millis(1));
            }
        };
        let (response, hits) = self.router.handle(&request);
        let mut processing = 0u64;
        for &hit in &hits {
            processing += if hit {
                self.costs.hit_ms
            } else {
                self.costs.miss_ms + rng.gen_range(0..=self.costs.miss_jitter_ms)
            };
        }
        let mut flags = String::with_capacity(2 * hits.len());
        for (i, &hit) in hits.iter().enumerate() {
            if i > 0 {
                flags.push(',');
            }
            flags.push(if hit { 'h' } else { 'm' });
        }
        let mut http = response.to_http().with_header(CACHE_HEADER, flags);
        let evicted = self.router.drain_evicted();
        if !evicted.is_empty() {
            http = http.with_header(EVICTED_HEADER, evicted.join(","));
        }
        (http, SimDuration::from_millis(processing))
    }
}

impl Service for PlanService {
    fn handle(&mut self, _peer: SimIp, req: &Request, _now: SimTime, rng: &mut StdRng) -> Exchange {
        let (response, processing) = self.answer(req, rng);
        Exchange {
            response,
            processing,
        }
    }
}

/// Reads the `x-cache` header back as per-query flags, in envelope
/// order (none when the header is absent, e.g. on an error response).
pub fn cache_flags(resp: &Response) -> impl Iterator<Item = bool> + '_ {
    resp.header(CACHE_HEADER)
        .into_iter()
        .flat_map(|v| v.split(','))
        .map(|f| f == "h")
}

/// Reads the `x-evicted` header back as evicted cache keys, in eviction
/// order.
pub fn evicted_keys(resp: &Response) -> impl Iterator<Item = &str> {
    resp.header(EVICTED_HEADER)
        .into_iter()
        .flat_map(|v| v.split(','))
}
