//! `serve_paper`: the paper-scale serve campaign (`bbsim_serve::run`,
//! open loop on the virtual clock, two threads) against a store that
//! set-up builds with `bench::serve_exp::build_store`. It touches no
//! world, fleet or scrape code, and it is no faster at two threads than
//! at one today — which a later scaling change must be able to show.

use crate::ledger::Ledger;
use crate::{digest, digest_all, micro, repeat_for, timed, Config, Outcome, Samples};
use bbsim_census::city_by_name;
use bbsim_dataset::{curate_city, CityArtifact, CurationOptions};
use bbsim_serve::{PlanStore, ServeOptions, ServeOutcome};
use bench::serve_exp::build_store;
use bqt::monitor::{render_prometheus, CampaignSection};
use std::sync::Arc;
use std::time::Instant;

const THREADS: usize = 2;
const SETUP_REPEATS: usize = 9;
/// Seconds of store reloads timed after each campaign. A reload takes
/// about 2 ms, so a batch this long spans many moments of the machine.
const RESUME_BATCH_S: f64 = 1.0;
/// The cities `build_store` curates, in its order.
const STORE_CITIES: [&str; 2] = ["Billings", "Fargo"];

fn options(cfg: &Config) -> ServeOptions {
    if cfg.tiny {
        ServeOptions::quick(cfg.seed).threads(THREADS)
    } else {
        ServeOptions::paper_default(cfg.seed).threads(THREADS)
    }
}

/// A store's shape: `(city, isp, entries)` per shard.
fn shape(store: &PlanStore) -> Vec<(String, String, usize)> {
    store
        .shards()
        .iter()
        .map(|s| (s.city.clone(), s.isp.slug().to_string(), s.len()))
        .collect()
}

/// The persisted artifacts `build_store` loads: each city curated at
/// quick scale, as artifact text.
fn artifact_texts(seed: u64) -> Vec<String> {
    STORE_CITIES
        .iter()
        .map(|name| {
            let city = city_by_name(name).expect("study city");
            CityArtifact::from_dataset(&curate_city(city, &CurationOptions::quick(seed))).to_text()
        })
        .collect()
}

/// The serve restart path: parse the artifacts and load the store.
fn reload(texts: &[String]) -> PlanStore {
    let artifacts: Vec<CityArtifact> = texts
        .iter()
        .map(|t| CityArtifact::from_text(t).expect("artifact round-trip"))
        .collect();
    PlanStore::load(&artifacts)
}

/// One digest of a campaign's lookup and arrival counts and of the
/// `health.prom` exposition of its summary.
fn fingerprint(o: &ServeOutcome) -> u64 {
    let section = CampaignSection {
        label: "serve",
        telemetry: &o.summary,
        health: &o.health,
    };
    let prom = render_prometheus(std::slice::from_ref(&section));
    digest_all(&[o.lookups(), o.arrivals, digest(prom.as_bytes())])
}

fn check_outcome(out: &mut Outcome, cfg: &Config, o: &ServeOutcome) {
    let floor: u64 = if cfg.tiny { 50_000 } else { 1_000_000 };
    out.check(o.lookups() >= floor, || {
        format!("served {} lookups, below the floor of {floor}", o.lookups())
    });
    out.check(o.summary.serve_sheds < o.arrivals, || {
        "every arrival was shed".to_string()
    });
    let p99 = o.health.alerts.iter().find(|a| a.rule == "p99_latency");
    out.check(p99.is_some_and(|a| a.resolved_at.is_some()), || {
        "the scan phase must fire and resolve the p99 latency alert".to_string()
    });
}

/// Set-up: builds the store [`SETUP_REPEATS`] times and keeps the last.
fn setup(cfg: &Config, out: &mut Outcome) -> (Arc<PlanStore>, Vec<f64>) {
    let (mut times, mut shapes) = (Vec::new(), Vec::new());
    let mut store = None;
    for _ in 0..SETUP_REPEATS {
        let (built, phase) = timed(|| build_store(cfg.seed));
        times.push(phase.wall_s);
        shapes.push(shape(&built));
        store = Some(built);
    }
    out.check(shapes.iter().all(|s| *s == shapes[0]), || {
        "set-up stores differ".to_string()
    });
    (Arc::new(store.expect("at least one set-up")), times)
}

pub fn run(cfg: &Config) -> Outcome {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let store;
    (store, samples.setup_s) = setup(cfg, &mut out);
    let opts = options(cfg);
    let texts = artifact_texts(cfg.seed);
    let mut digests = Vec::new();
    repeat_for(cfg.seconds, || {
        let (o, phase) = timed(|| bbsim_serve::run(&store, &opts));
        let before = out.failures.len();
        check_outcome(&mut out, cfg, &o);
        out.count_ops(o.arrivals, before);
        samples.iteration(phase, o.arrivals, o.lookups(), o.summary.serve_sheds);
        digests.push(fingerprint(&o));
        // Restart samples are spread over the run, one batch after each
        // campaign, so they see the same machine as the campaigns do.
        let batch_s = if cfg.tiny { 0.05 } else { RESUME_BATCH_S };
        let batch = Instant::now();
        while batch.elapsed().as_secs_f64() < batch_s {
            let (reloaded, phase) = timed(|| reload(&texts));
            out.check(shape(&reloaded) == shape(&store), || {
                "store reloaded from artifacts differs from the set-up store".to_string()
            });
            samples.resume_s.push(phase.wall_s);
        }
    });
    out.check_digests(cfg, "lookups and summary", &digests);
    samples.report(&mut out);
    out
}

/// The traced run: the store load timed apart from curation, an
/// untraced campaign for reference, the same campaign inside a span,
/// then the router's and the aggregator's per-operation costs.
fn run_traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (store, _) = setup(cfg, &mut out);
    let opts = options(cfg);

    let mut ledger = Ledger::new();
    let artifacts: Vec<CityArtifact> = artifact_texts(cfg.seed)
        .iter()
        .map(|t| CityArtifact::from_text(t).expect("artifact round-trip"))
        .collect();
    let loaded = ledger.probe("serve.store_load", |_| PlanStore::load(&artifacts));
    out.check(shape(&loaded) == shape(&store), || {
        "store loaded from artifacts differs from the set-up store".to_string()
    });

    let (plain, plain_phase) = timed(|| bbsim_serve::run(&store, &opts));
    let (traced, traced_phase) = timed(|| {
        ledger.span("serve_paper", |l| {
            l.span("serve.run", |_| bbsim_serve::run(&store, &opts))
        })
    });
    check_outcome(&mut out, cfg, &traced);
    out.check(fingerprint(&plain) == fingerprint(&traced), || {
        "traced campaign differs from the untraced campaign".to_string()
    });
    out.check_across_runs(cfg, "lookups and summary", fingerprint(&plain));
    out.attempted = traced.arrivals;

    let c = micro::corpus(cfg.seed);
    let sample_s = cfg.micro_sample_s();
    let route = micro::route(&store, cfg.seed, sample_s);
    let observe = micro::aggregator_observe(&c, sample_s);

    let s = &traced.summary;
    out.put(
        "serve.store_load_s",
        "s",
        ledger.total("serve.store_load"),
        1,
    );
    out.put("serve.route_ns", "ns", route.ns_per_op, route.samples);
    out.put(
        "core.aggregator_observe_ns",
        "ns",
        observe.ns_per_op,
        observe.samples,
    );
    out.put(
        "serve.cache_hit_ratio",
        "ratio",
        s.serve_cache_hits as f64 / traced.lookups().max(1) as f64,
        1,
    );
    out.put(
        "serve.shed_ratio",
        "ratio",
        s.serve_sheds as f64 / traced.arrivals.max(1) as f64,
        1,
    );
    out.put(
        "serve.virtual_p99_ms",
        "ms",
        s.lookup_latency.quantile_ms(0.99).unwrap_or(0) as f64,
        1,
    );
    out.put(
        "ledger.unexplained_ratio",
        "ratio",
        ledger.unexplained("serve_paper"),
        1,
    );
    out.put(
        "ledger.trace_overhead_ratio",
        "ratio",
        traced_phase.wall_s / plain_phase.wall_s,
        1,
    );
    out.put("ledger.probe_s", "s", ledger.probe_seconds(), 1);
    out.ledger = Some(ledger);
    out
}
