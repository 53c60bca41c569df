//! Serving-layer contracts: LRU eviction determinism across thread
//! counts, batch/single equivalence at the router, and wire round-trips
//! through the prelude types.

use decoding_divide::bqt::JsonlRecorder;
use decoding_divide::prelude::{city_by_name, curate_city, CityArtifact, CurationOptions};
use decoding_divide::prelude::{
    PlanStore, Router, ServeAnswer, ServeOptions, ServeQuery, ServeRequest, ServeResponse,
};
use decoding_divide::serve::{run_recorded, LoadPhase};
use std::sync::Arc;

fn store(seed: u64) -> Arc<PlanStore> {
    let artifacts: Vec<CityArtifact> = ["Billings", "Fargo"]
        .iter()
        .map(|name| {
            let ds = curate_city(
                city_by_name(name).expect("study city"),
                &CurationOptions::quick(seed),
            );
            CityArtifact::from_dataset(&ds)
        })
        .collect();
    Arc::new(PlanStore::load(&artifacts))
}

/// A short campaign whose steady phase overflows the tiny cache, so the
/// eviction log is busy; the scan phase then churns it completely.
fn tiny_campaign(seed: u64, threads: usize) -> ServeOptions {
    let mut opts = ServeOptions::quick(seed);
    opts.cache_capacity = 32;
    opts.phases = vec![LoadPhase::steady(15_000, 10), LoadPhase::scan(5_000, 4)];
    opts.threads = threads;
    opts
}

/// Same seed, same load, any thread packing: the JSONL event stream —
/// and therefore the `cache_evicted` sub-stream, i.e. every shard's
/// exact LRU eviction order — is byte-identical.
#[test]
fn lru_eviction_log_is_byte_identical_across_thread_counts() {
    let store = store(909);
    let mut streams = Vec::new();
    for threads in [1, 2, 4] {
        let mut rec = JsonlRecorder::stable(Vec::new());
        let outcome = run_recorded(&store, &tiny_campaign(4242, threads), &mut rec);
        assert!(outcome.summary.cache_evictions > 0, "evictions expected");
        streams.push(String::from_utf8(rec.into_inner()).expect("jsonl is utf-8"));
    }
    assert_eq!(streams[0], streams[1], "threads 1 vs 2 diverged");
    assert_eq!(streams[0], streams[2], "threads 1 vs 4 diverged");
    let evictions: Vec<&str> = streams[0]
        .lines()
        .filter(|l| l.contains("\"cache_evicted\""))
        .collect();
    assert!(!evictions.is_empty(), "eviction lines present in the log");
}

/// A batch of N queries is answered exactly as the N singles would be:
/// same answers, same hit flags, same eviction log.
#[test]
fn batch_of_n_is_equivalent_to_n_singles() {
    let store = store(909);
    let shard = store.shard(0).expect("shard 0");
    let city = "Billings".to_string();
    let isp = shard.isp;
    let mut queries: Vec<ServeQuery> = shard
        .tags()
        .take(40)
        .map(|tag| ServeQuery::Plans {
            city: city.clone(),
            isp,
            tag,
        })
        .collect();
    queries.push(ServeQuery::Tiles { city: city.clone() });
    for bg in shard.block_groups().take(8) {
        queries.push(ServeQuery::BlockGroup {
            city: city.clone(),
            isp,
            bg,
        });
    }
    // Replay the tail (still resident in the 16-slot cache) so the
    // second pass hits, while the long head has forced evictions.
    let tail: Vec<ServeQuery> = queries.iter().rev().take(10).rev().cloned().collect();
    queries.extend(tail);

    let mut batched = Router::new(store.clone(), 16);
    let (resp, batch_hits) = batched.handle(&ServeRequest::Batch(queries.clone()));
    let ServeResponse::Batch(batch_answers) = resp else {
        panic!("batch request answers with a batch response");
    };
    let batch_evicted = batched.drain_evicted();

    let mut single = Router::new(store.clone(), 16);
    let mut single_answers = Vec::new();
    let mut single_hits = Vec::new();
    for q in &queries {
        let (resp, hits) = single.handle(&ServeRequest::Single(q.clone()));
        let ServeResponse::Single(answer) = resp else {
            panic!("single request answers with a single response");
        };
        single_answers.push(answer);
        single_hits.extend(hits);
    }
    let single_evicted = single.drain_evicted();

    assert_eq!(batch_answers, single_answers);
    assert_eq!(batch_hits, single_hits);
    assert_eq!(batch_evicted, single_evicted);
    assert!(batch_hits.iter().any(|&h| h), "repeated head must hit");
    assert!(!batch_evicted.is_empty(), "capacity 16 must evict");
}

/// The typed request/response pair survives the HTTP-lite wire framing
/// exposed through the umbrella prelude.
#[test]
fn request_and_response_round_trip_the_wire() {
    let store = store(909);
    let shard = store.shard(0).expect("shard 0");
    let tag = shard.tags().next().expect("shard has tags");
    let request = ServeRequest::Batch(vec![
        ServeQuery::Plans {
            city: "Billings".into(),
            isp: shard.isp,
            tag,
        },
        ServeQuery::Tiles {
            city: "Billings".into(),
        },
    ]);
    let wire = request.to_http().to_wire();
    let parsed = ServeRequest::from_http(
        &decoding_divide::net::Request::from_wire(&wire).expect("request reparses"),
    )
    .expect("typed request reparses");
    assert_eq!(parsed, request);

    let mut router = Router::new(store.clone(), 8);
    let (response, _) = router.handle(&parsed);
    assert!(matches!(
        response,
        ServeResponse::Batch(ref answers)
            if matches!(answers[0], ServeAnswer::Plans { .. } | ServeAnswer::NoService)
    ));
}

/// FNV-1a over a rendered artifact (the same hash CI's digests use).
fn fnv(bytes: &[u8]) -> u64 {
    decoding_divide::net::fnv1a(bytes)
}

/// A campaign small enough for a debug build whose scan phase still
/// fires the p99 alert and whose closing steady phase resolves it, so
/// `AlertFired` carries exemplar ids.
fn breach_campaign(seed: u64) -> ServeOptions {
    let mut opts = ServeOptions::quick(seed);
    opts.policy.bucket = decoding_divide::net::SimDuration::from_secs(2);
    opts.phases = vec![
        LoadPhase::steady(8_000, 20),
        LoadPhase::scan(8_000, 3),
        LoadPhase::steady(40_000, 20),
    ];
    opts
}

/// The serve campaign's full JSONL stream, its Prometheus exposition
/// (with `# EXEMPLAR` lines) and its exemplar traces are pinned to
/// digests, at 1 thread and at 2 (where three shards pack unevenly):
/// any change to the wire, the envelopes, the monitor or the trace
/// assembler must leave every byte of them alone.
#[test]
fn serve_breach_artifacts_match_the_golden_digests() {
    use decoding_divide::bqt::{render_prometheus, render_trace_json, CampaignSection};
    let store = store(909);
    for threads in [1, 2] {
        let mut rec = JsonlRecorder::new(Vec::new());
        let opts = breach_campaign(4242).threads(threads);
        let outcome = run_recorded(&store, &opts, &mut rec);
        let jsonl = rec.into_inner();

        let p99 = outcome
            .health
            .alerts
            .iter()
            .find(|a| a.rule == "p99_latency")
            .expect("the scan phase fires the p99 alert");
        assert!(
            p99.resolved_at.is_some(),
            "the closing steady phase resolves it"
        );
        assert!(!p99.exemplars.is_empty(), "AlertFired names its exemplars");

        let section = CampaignSection {
            label: "serve",
            telemetry: &outcome.summary,
            health: &outcome.health,
        };
        let prom = render_prometheus(std::slice::from_ref(&section));
        assert!(
            prom.contains("# EXEMPLAR"),
            "exposition carries exemplar lines"
        );
        let traces = render_trace_json(std::slice::from_ref(&section));

        assert_eq!(
            (fnv(&jsonl), fnv(prom.as_bytes()), fnv(traces.as_bytes())),
            (
                11939796789625578930,
                7379589254981271716,
                8972393525261408914
            ),
            "threads {threads}: (jsonl, health.prom, trace.json) digests moved"
        );
    }
}
