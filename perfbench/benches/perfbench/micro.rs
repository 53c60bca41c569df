//! Per-operation costs of single layers, each timed from outside through
//! a crate's public API: the cases the old `repro bench` harness timed,
//! plus address matching, with every sample at least half a second long
//! so a sample outlasts scheduler noise on a small shared machine.
//!
//! One real campaign against one BAT supplies the inputs: finished
//! records for the journal, its event stream for the telemetry encoders
//! and the trace assembler.

use bbsim_address::matching::{best_match, Measure};
use bbsim_bat::{templates, BatServer};
use bbsim_census::city_by_name;
use bbsim_isp::{CityWorld, Isp};
use bbsim_net::{
    Endpoint, IpPool, Request, RotationPolicy, SimDuration, SimIp, SimTime, Transport,
};
use bbsim_serve::{LoadPhase, PlanStore, Router, ServeQuery};
use bqt::telemetry::Event;
use bqt::{
    critical_path, AttemptEntry, BqtConfig, Campaign, Journal, JsonlRecorder, MetricsAggregator,
    Orchestrator, QueryJob, QueryRecord, Recorder, RingRecorder, TraceAssembler,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Samples per micro-benchmark; the reported value is their median.
pub const SAMPLES: usize = 3;
const ENDPOINT: &str = "centurylink";
const CORPUS_JOBS: usize = 480;

/// A measured per-operation cost.
#[derive(Debug, Clone, Copy)]
pub struct Micro {
    pub ns_per_op: f64,
    pub samples: usize,
}

/// Median ns per `op` call over [`SAMPLES`] samples of at least
/// `min_sample_s` each. `fresh` builds each sample's state outside the
/// timer; `op` receives the call index.
pub fn per_op<S>(
    min_sample_s: f64,
    mut fresh: impl FnMut() -> S,
    mut op: impl FnMut(&mut S, u64),
) -> Micro {
    let mut run = |iters: u64| -> f64 {
        let mut state = fresh();
        let started = Instant::now();
        for i in 0..iters {
            op(&mut state, i);
        }
        let elapsed = started.elapsed().as_secs_f64();
        black_box(&mut state);
        elapsed
    };
    // Calibrate: grow the batch until it is long enough to scale from.
    let mut iters: u64 = 16;
    let mut elapsed = run(iters);
    while elapsed < min_sample_s / 10.0 {
        iters *= 4;
        elapsed = run(iters);
    }
    iters = ((iters as f64) * 1.2 * min_sample_s / elapsed).ceil() as u64;
    let mut per_op_ns = Vec::with_capacity(SAMPLES);
    while per_op_ns.len() < SAMPLES {
        let elapsed = run(iters);
        if elapsed < min_sample_s {
            iters *= 2;
            continue;
        }
        per_op_ns.push(elapsed * 1e9 / iters as f64);
    }
    Micro {
        ns_per_op: crate::median(&per_op_ns),
        samples: SAMPLES,
    }
}

/// Inputs shared by the scrape-side micro-benchmarks.
pub struct Corpus {
    world: Arc<CityWorld>,
    jobs: Vec<QueryJob>,
    records: Vec<QueryRecord>,
    events: Vec<Event>,
    config: BqtConfig,
    orch: Orchestrator,
}

fn hermetic_transport(world: &Arc<CityWorld>, seed: u64) -> Transport {
    let mut t = Transport::hermetic(seed);
    let server = BatServer::new(Isp::CenturyLink, world.clone());
    let net = server.profile().network_latency;
    t.register(ENDPOINT, Endpoint::new(Box::new(server), net));
    t
}

/// Runs one Billings campaign against CenturyLink's BAT and keeps its
/// records and events.
pub fn corpus(seed: u64) -> Corpus {
    let world = Arc::new(CityWorld::build(
        city_by_name("Billings").expect("study city"),
    ));
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(CORPUS_JOBS)
        .map(|r| QueryJob {
            endpoint: ENDPOINT.to_string(),
            dialect: templates::dialect_of(Isp::CenturyLink),
            input_line: r.listing_line.clone(),
            tag: r.id as u64,
        })
        .collect();
    let mut transport = hermetic_transport(&world, seed);
    let mut pool = IpPool::residential(64, RotationPolicy::RoundRobin, seed);
    let mut ring = RingRecorder::new(1 << 22);
    let config = BqtConfig::paper_default(SimDuration::from_secs(45));
    let orch = Orchestrator {
        n_workers: 16,
        ..Orchestrator::paper_default(seed)
    };
    let report = Campaign::from_orchestrator(orch.clone())
        .config(config)
        .recorder(&mut ring)
        .run(&mut transport, &jobs, &mut pool)
        .expect("journal-less campaigns cannot fail")
        .report();
    let events: Vec<Event> = ring.events().cloned().collect();
    assert!(!events.is_empty() && !report.records.is_empty());
    Corpus {
        world,
        jobs,
        records: report.records,
        events,
        config,
        orch,
    }
}

/// `Journal::append`: one write-ahead frame per finished attempt. A
/// fresh journal is bound at every pass over the records.
pub fn journal_append(c: &Corpus, min_sample_s: f64) -> Micro {
    let fresh_journal = || {
        let mut j = Journal::in_memory();
        j.bind_manifest(c.orch.manifest(&c.config, &c.jobs))
            .expect("fresh journal binds");
        j
    };
    per_op(min_sample_s, fresh_journal, |journal, i| {
        let k = (i as usize) % c.records.len();
        if k == 0 && i > 0 {
            *journal = fresh_journal();
        }
        journal
            .append(AttemptEntry::from_record(&c.records[k], 0))
            .expect("in-memory append");
    })
}

/// `JsonlRecorder::record`: one telemetry event to its wire line.
pub fn jsonl_encode(c: &Corpus, min_sample_s: f64) -> Micro {
    per_op(
        min_sample_s,
        || JsonlRecorder::new(std::io::sink()),
        |log, i| log.record(&c.events[(i as usize) % c.events.len()]),
    )
}

/// `MetricsAggregator` observing one event.
pub fn aggregator_observe(c: &Corpus, min_sample_s: f64) -> Micro {
    per_op(min_sample_s, MetricsAggregator::default, |agg, i| {
        agg.record(&c.events[(i as usize) % c.events.len()])
    })
}

/// `TraceAssembler::observe`: one event folded into the span trees. A
/// fresh assembler starts every pass over the stream, so no job is seen
/// twice.
pub fn trace_assemble(c: &Corpus, min_sample_s: f64) -> Micro {
    per_op(
        min_sample_s,
        || TraceAssembler::new(3),
        |asm, i| {
            let k = (i as usize) % c.events.len();
            if k == 0 && i > 0 {
                *asm = TraceAssembler::new(3);
            }
            asm.observe(&c.events[k]);
        },
    )
}

/// `critical_path` over one real exemplar's span tree.
pub fn critical_path_walk(c: &Corpus, min_sample_s: f64) -> Micro {
    let exemplars = {
        let mut asm = TraceAssembler::new(8);
        for e in &c.events {
            asm.observe(e);
        }
        asm.finish()
    };
    let traces: Vec<_> = exemplars
        .global
        .iter()
        .chain(exemplars.per_endpoint.values())
        .collect();
    assert!(!traces.is_empty(), "corpus campaign must leave exemplars");
    per_op(
        min_sample_s,
        || 0u64,
        |acc, i| {
            let t = traces[(i as usize) % traces.len()];
            *acc += critical_path(&t.root).iter().map(|(_, ms)| ms).sum::<u64>();
        },
    )
}

/// `Transport::round_trip` to one BAT: a `/locate` page step through
/// the server (wire codec, address lookup, template render, latency
/// draw). Arrivals are spaced on the virtual clock so the rate limiter
/// never engages.
pub fn page_step(c: &Corpus, seed: u64, min_sample_s: f64) -> Micro {
    let src = SimIp(u32::from_be_bytes([100, 64, 0, 1]));
    per_op(
        min_sample_s,
        || hermetic_transport(&c.world, seed),
        |transport, i| {
            let line = &c.jobs[(i as usize) % c.jobs.len()].input_line;
            let now = SimTime::ZERO + SimDuration::from_secs(10 * i);
            black_box(
                transport
                    .round_trip(
                        ENDPOINT,
                        src,
                        &Request::post("/locate", format!("address={line}")),
                        now,
                    )
                    .expect("page step"),
            );
        },
    )
}

/// `best_match`: one noisy listing line scored against a five-line
/// suggestion list, as the BQT driver does on a not-found page.
pub fn best_match_call(c: &Corpus, min_sample_s: f64) -> Micro {
    let records = c.world.addresses().records();
    let n = records.len().min(CORPUS_JOBS);
    let cases: Vec<(String, Vec<String>)> = (0..n)
        .map(|i| {
            let candidates = (0..5)
                .map(|k| records[(i + k) % n].canonical.canonical_line())
                .collect();
            (records[i].listing_line.clone(), candidates)
        })
        .collect();
    per_op(
        min_sample_s,
        || 0usize,
        |hits, i| {
            let (input, candidates) = &cases[(i as usize) % cases.len()];
            if best_match(Measure::TokenSort, input, candidates, 0.6).is_some() {
                *hits += 1;
            }
        },
    )
}

/// `Router::route`: one lookup through the serve router (store probe
/// plus answer-cache insert or hit) over a zipfian query stream.
pub fn route(store: &Arc<PlanStore>, seed: u64, min_sample_s: f64) -> Micro {
    let shard = store.shard(0).expect("store has shards");
    let queries: Vec<ServeQuery> =
        bbsim_serve::load::generate_schedule(0, shard, &[LoadPhase::steady(30_000, 12)], seed)
            .into_iter()
            .flat_map(|a| a.request.queries().to_vec())
            .collect();
    per_op(
        min_sample_s,
        || Router::new(store.clone(), 128),
        |router, i| {
            black_box(router.route(&queries[(i as usize) % queries.len()]));
        },
    )
}
