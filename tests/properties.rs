//! Property-based tests over the core data structures and invariants,
//! spanning crate boundaries (proptest).

use decoding_divide::address::abbrev::{normalize_line, normalize_tokens};
use decoding_divide::address::{jaro_winkler, levenshtein, token_sort_similarity};
use decoding_divide::geo::BlockGroupId;
use decoding_divide::net::{FrameCodec, Request, Response};
use decoding_divide::stats::{
    coefficient_of_variation, ks_two_sample, mean, median, quantile, Ecdf, PlanVector,
};
use proptest::prelude::*;

proptest! {
    // ---- geo ----------------------------------------------------------

    #[test]
    fn geoid_roundtrips(state in 1u8..=99, county in 1u16..=999, tract in 0u32..=999_999, bg in 0u8..=9) {
        let id = BlockGroupId::new(state, county, tract, bg);
        let parsed: BlockGroupId = id.to_string().parse().unwrap();
        prop_assert_eq!(parsed, id);
        prop_assert_eq!(id.to_string().len(), 12);
    }

    #[test]
    fn geoid_ordering_matches_u64_encoding(
        a in (1u8..=99, 1u16..=999, 0u32..=999_999, 0u8..=9),
        b in (1u8..=99, 1u16..=999, 0u32..=999_999, 0u8..=9),
    ) {
        let x = BlockGroupId::new(a.0, a.1, a.2, a.3);
        let y = BlockGroupId::new(b.0, b.1, b.2, b.3);
        prop_assert_eq!(x < y, x.as_u64() < y.as_u64());
        prop_assert_eq!(x == y, x.as_u64() == y.as_u64());
    }

    // ---- net ----------------------------------------------------------

    #[test]
    fn frames_roundtrip_arbitrary_payloads(payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut buf = bytes::BytesMut::new();
        FrameCodec.encode(&payload, &mut buf);
        let out = FrameCodec.decode(&mut buf).unwrap().unwrap();
        prop_assert_eq!(&out[..], &payload[..]);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn frame_decoder_never_consumes_partial_frames(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        cut in 0usize..4,
    ) {
        let mut full = bytes::BytesMut::new();
        FrameCodec.encode(&payload, &mut full);
        let cut = cut.min(full.len() - 1);
        let mut partial = bytes::BytesMut::from(&full[..full.len() - 1 - cut]);
        let before = partial.len();
        prop_assert_eq!(FrameCodec.decode(&mut partial).unwrap(), None);
        prop_assert_eq!(partial.len(), before);
    }

    #[test]
    fn requests_roundtrip_wire_format(
        path in "[a-z/]{1,24}",
        body in "[ -~&&[^\r]]{0,200}",
        cookie in "[a-z0-9=]{0,32}",
    ) {
        let mut req = Request::post(format!("/{path}"), body);
        if !cookie.is_empty() {
            req = req.with_cookie(cookie);
        }
        let parsed = Request::from_wire(&req.to_wire()).unwrap();
        prop_assert_eq!(parsed, req);
    }

    #[test]
    fn responses_roundtrip_wire_format(body in "[ -~&&[^\r]]{0,300}") {
        let resp = Response::ok(body).with_set_cookie("sid=1");
        let parsed = Response::from_wire(&resp.to_wire()).unwrap();
        prop_assert_eq!(parsed, resp);
    }

    // ---- address ------------------------------------------------------

    #[test]
    fn normalization_is_idempotent(line in "[A-Za-z0-9 ,.#]{0,80}") {
        let once = normalize_line(&line);
        let twice = normalize_line(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn normalization_is_case_insensitive(line in "[A-Za-z0-9 ,.]{0,60}") {
        prop_assert_eq!(normalize_line(&line.to_uppercase()), normalize_line(&line.to_lowercase()));
    }

    #[test]
    fn normalized_tokens_are_lowercase_alphanumeric(line in "[ -~]{0,80}") {
        for tok in normalize_tokens(&line) {
            prop_assert!(!tok.is_empty());
            prop_assert!(
                tok.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()),
                "token {tok:?}"
            );
        }
    }

    #[test]
    fn levenshtein_is_a_metric(a in "[a-z ]{0,24}", b in "[a-z ]{0,24}", c in "[a-z ]{0,24}") {
        // Symmetry, identity and the triangle inequality.
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn similarities_are_bounded(a in "[ -~]{0,40}", b in "[ -~]{0,40}") {
        let jw = jaro_winkler(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&jw), "jw {jw}");
        let ts = token_sort_similarity(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ts), "ts {ts}");
    }

    #[test]
    fn identical_strings_have_maximal_similarity(a in "[a-z0-9 ]{1,40}") {
        prop_assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-12);
    }

    // ---- stats --------------------------------------------------------

    #[test]
    fn quantile_is_monotone_and_bounded(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        xs.iter_mut().for_each(|x| *x = x.trunc()); // avoid float-compare noise
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        prop_assert!(a <= b);
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(a >= min && b <= max);
    }

    #[test]
    fn mean_lies_between_extremes(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let m = mean(&xs).unwrap();
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
    }

    #[test]
    fn median_splits_the_sample(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let m = median(&xs).unwrap();
        let below = xs.iter().filter(|&&x| x <= m).count();
        let above = xs.iter().filter(|&&x| x >= m).count();
        prop_assert!(below * 2 >= xs.len());
        prop_assert!(above * 2 >= xs.len());
    }

    #[test]
    fn cov_is_scale_invariant(
        xs in proptest::collection::vec(1.0f64..1e4, 2..50),
        scale in 0.1f64..100.0,
    ) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        let a = coefficient_of_variation(&xs).unwrap();
        let b = coefficient_of_variation(&scaled).unwrap();
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn ks_statistic_is_bounded_and_symmetric(
        a in proptest::collection::vec(-100f64..100.0, 2..80),
        b in proptest::collection::vec(-100f64..100.0, 2..80),
    ) {
        let ab = ks_two_sample(&a, &b);
        let ba = ks_two_sample(&b, &a);
        prop_assert!((0.0..=1.0).contains(&ab.statistic));
        prop_assert!((ab.statistic - ba.statistic).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab.p_value));
    }

    #[test]
    fn ks_of_identical_samples_never_rejects(a in proptest::collection::vec(-100f64..100.0, 2..100)) {
        let out = ks_two_sample(&a, &a);
        prop_assert_eq!(out.statistic, 0.0);
        prop_assert!(out.p_value > 0.99);
    }

    #[test]
    fn ecdf_is_monotone_from_zero_to_one(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
        probe in proptest::collection::vec(-2e3f64..2e3, 1..20),
    ) {
        let e = Ecdf::new(xs.clone());
        let mut probes = probe;
        probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for p in probes {
            let v = e.eval(p);
            prop_assert!(v >= prev);
            prop_assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(e.eval(max), 1.0);
    }

    #[test]
    fn plan_vector_weights_always_sum_to_one(cvs in proptest::collection::vec(0.0f64..40.0, 1..200)) {
        let v = PlanVector::from_carriage_values(&cvs).unwrap();
        let total: f64 = v.weights().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn l1_distance_is_a_bounded_metric(
        a in proptest::collection::vec(0.0f64..40.0, 1..100),
        b in proptest::collection::vec(0.0f64..40.0, 1..100),
        c in proptest::collection::vec(0.0f64..40.0, 1..100),
    ) {
        use decoding_divide::stats::l1_distance;
        let va = PlanVector::from_carriage_values(&a).unwrap();
        let vb = PlanVector::from_carriage_values(&b).unwrap();
        let vc = PlanVector::from_carriage_values(&c).unwrap();
        let dab = l1_distance(&va, &vb);
        prop_assert!((0.0..=2.0 + 1e-12).contains(&dab));
        prop_assert!((dab - l1_distance(&vb, &va)).abs() < 1e-12);
        prop_assert!(l1_distance(&va, &vc) <= dab + l1_distance(&vb, &vc) + 1e-9);
        prop_assert_eq!(l1_distance(&va, &va), 0.0);
    }
}

// ---- retry/backoff ----------------------------------------------------

proptest! {
    #[test]
    fn backoff_schedule_is_monotone_capped_and_seed_stable(
        base_s in 1u64..=30,
        cap_mult in 1u64..=64,
        jitter in 0.0f64..=0.5,
        seed in any::<u64>(),
        tag in any::<u64>(),
    ) {
        use decoding_divide::bqt::BackoffPolicy;
        use decoding_divide::net::SimDuration;

        let policy = BackoffPolicy {
            base: SimDuration::from_secs(base_s),
            cap: SimDuration::from_secs(base_s * cap_mult),
            jitter,
            seed,
        };
        let schedule: Vec<SimDuration> = (1..=12).map(|n| policy.delay(tag, n)).collect();

        // Monotone non-decreasing, and never past the cap.
        for w in schedule.windows(2) {
            prop_assert!(w[0] <= w[1], "schedule not monotone: {:?}", schedule);
        }
        for d in &schedule {
            prop_assert!(*d <= policy.cap, "{d:?} exceeds cap {:?}", policy.cap);
            prop_assert!(*d > SimDuration::ZERO);
        }

        // Identical seeds reproduce the schedule byte for byte.
        let again: Vec<SimDuration> = (1..=12).map(|n| policy.delay(tag, n)).collect();
        prop_assert_eq!(&schedule, &again);

        // A different seed perturbs the jittered schedule (jitter 0 makes
        // the schedule seed-independent by construction, so skip there).
        if jitter > 0.01 {
            let other = BackoffPolicy { seed: seed ^ 0x9E37_79B9, ..policy };
            let differs = (1..=12).any(|n| other.delay(tag, n) != policy.delay(tag, n));
            prop_assert!(differs, "seed change left the schedule untouched");
        }
    }
}

proptest! {
    // Each case drives a real orchestrator run, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn retry_attempts_never_exceed_the_budget(seed in any::<u64>(), max_attempts in 1u32..=5) {
        use decoding_divide::bat::{templates, BatServer};
        use decoding_divide::bqt::{BqtConfig, Campaign, Orchestrator, QueryJob, RetryPolicy};
        use decoding_divide::census::city_by_name;
        use decoding_divide::isp::{CityWorld, Isp};
        use decoding_divide::net::{
            Endpoint, FaultPlan, IpPool, RotationPolicy, SimDuration, SimTime, Transport,
        };
        use std::sync::{Arc, OnceLock};

        static WORLD: OnceLock<Arc<CityWorld>> = OnceLock::new();
        let world = WORLD
            .get_or_init(|| Arc::new(CityWorld::build(city_by_name("Billings").unwrap())))
            .clone();

        let mut t = Transport::new(7);
        let server = BatServer::new(Isp::CenturyLink, world.clone());
        let net = server.profile().network_latency;
        t.register("centurylink/billings", Endpoint::new(Box::new(server), net));
        // Every request times out forever: all jobs must dead-letter after
        // exactly `max_attempts` tries, regardless of seed.
        let horizon = SimTime::ZERO + SimDuration::from_secs(1_000_000);
        t.set_fault_plan(FaultPlan::new(seed).lossy_network(SimTime::ZERO, horizon, 1.0));

        let jobs: Vec<QueryJob> = world
            .addresses()
            .records()
            .iter()
            .take(8)
            .map(|r| QueryJob {
                endpoint: "centurylink/billings".to_string(),
                dialect: templates::dialect_of(Isp::CenturyLink),
                input_line: r.listing_line.clone(),
                tag: r.id as u64,
            })
            .collect();

        let mut policy = RetryPolicy::paper_default(seed);
        policy.max_attempts = max_attempts;
        let orch = Orchestrator {
            n_workers: 2,
            seed,
            retry: Some(policy),
            ..Orchestrator::paper_default(seed)
        };
        let mut pool = IpPool::residential(8, RotationPolicy::RoundRobin, seed);
        let report = Campaign::from_orchestrator(orch)
            .config(BqtConfig::paper_default(SimDuration::from_secs(45)))
            .run(&mut t, &jobs, &mut pool)
            .expect("journal-less runs cannot hit journal errors")
            .report();

        prop_assert_eq!(report.records.len(), jobs.len());
        prop_assert_eq!(report.dead_letters.len(), jobs.len());
        for dl in &report.dead_letters {
            prop_assert_eq!(dl.attempts, max_attempts);
        }
        prop_assert_eq!(
            report.metrics.retries,
            (max_attempts as u64 - 1) * jobs.len() as u64
        );
    }
}

proptest! {
    // Each case drives a real traced campaign; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Telemetry's span discipline: under any seed, worker count and fault
    /// rate, every span-opening event (campaign, worker, job, attempt,
    /// page fetch) is closed exactly once, never reopened, and never ends
    /// before it begins on the virtual clock.
    #[test]
    fn every_span_begin_has_exactly_one_end(
        seed in any::<u64>(),
        workers in 1usize..=8,
        flake in 0u32..=5,
    ) {
        use decoding_divide::bat::{templates, BatServer};
        use decoding_divide::bqt::{
            BqtConfig, Campaign, EventKind, Orchestrator, QueryJob, RetryPolicy, RingRecorder,
        };
        use decoding_divide::census::city_by_name;
        use decoding_divide::isp::{CityWorld, Isp};
        use decoding_divide::net::{
            Endpoint, FaultPlan, IpPool, RotationPolicy, SimDuration, SimTime, Transport,
        };
        use std::collections::{HashMap, HashSet};
        use std::sync::{Arc, OnceLock};

        static WORLD: OnceLock<Arc<CityWorld>> = OnceLock::new();
        let world = WORLD
            .get_or_init(|| Arc::new(CityWorld::build(city_by_name("Billings").unwrap())))
            .clone();

        let mut t = Transport::hermetic(seed);
        let server = BatServer::new(Isp::CenturyLink, world.clone());
        let net = server.profile().network_latency;
        t.register("centurylink/billings", Endpoint::new(Box::new(server), net));
        if flake > 0 {
            let horizon = SimTime::ZERO + SimDuration::from_secs(1_000_000);
            t.set_fault_plan(
                FaultPlan::new(seed)
                    .flaky_endpoint("centurylink/billings", SimTime::ZERO, horizon, flake as f64 / 10.0)
                    .hermetic(),
            );
        }
        let jobs: Vec<QueryJob> = world
            .addresses()
            .records()
            .iter()
            .take(12)
            .map(|r| QueryJob {
                endpoint: "centurylink/billings".to_string(),
                dialect: templates::dialect_of(Isp::CenturyLink),
                input_line: r.listing_line.clone(),
                tag: r.id as u64,
            })
            .collect();

        let orch = Orchestrator {
            n_workers: workers,
            seed,
            retry: Some(RetryPolicy::paper_default(seed)),
            ..Orchestrator::paper_default(seed)
        };
        let mut pool = IpPool::residential(16, RotationPolicy::RoundRobin, seed);
        let mut ring = RingRecorder::new(1_000_000);
        let report = Campaign::from_orchestrator(orch)
            .config(BqtConfig::paper_default(SimDuration::from_secs(45)))
            .recorder(&mut ring)
            .run(&mut t, &jobs, &mut pool)
            .expect("journal-less runs cannot hit journal errors")
            .report();
        prop_assert_eq!(report.records.len(), jobs.len());

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Key {
            Campaign,
            Worker(u32),
            Job(u64),
            Attempt(u64, u32),
            Fetch(u64, u32, u32),
        }
        let mut open: HashMap<Key, SimTime> = HashMap::new();
        let mut closed: HashSet<Key> = HashSet::new();
        for e in ring.events() {
            let (key, is_begin) = match e.kind {
                EventKind::CampaignBegin { .. } => (Key::Campaign, true),
                EventKind::CampaignEnd { .. } => (Key::Campaign, false),
                EventKind::WorkerBegin { worker } => (Key::Worker(worker), true),
                EventKind::WorkerEnd { worker } => (Key::Worker(worker), false),
                EventKind::JobBegin { tag, .. } => (Key::Job(tag), true),
                EventKind::JobEnd { tag, .. } => (Key::Job(tag), false),
                EventKind::AttemptBegin { tag, attempt, .. } => (Key::Attempt(tag, attempt), true),
                EventKind::AttemptEnd { tag, attempt, .. } => (Key::Attempt(tag, attempt), false),
                EventKind::PageFetchBegin { tag, attempt, fetch } => {
                    (Key::Fetch(tag, attempt, fetch), true)
                }
                EventKind::PageFetchEnd { tag, attempt, fetch, .. } => {
                    (Key::Fetch(tag, attempt, fetch), false)
                }
                _ => continue,
            };
            if is_begin {
                prop_assert!(!closed.contains(&key), "span reopened: {key:?}");
                prop_assert!(open.insert(key, e.at).is_none(), "double begin: {key:?}");
            } else {
                let begun = open.remove(&key);
                prop_assert!(begun.is_some(), "end without begin: {key:?}");
                prop_assert!(
                    e.at >= begun.unwrap(),
                    "span {key:?} ends at {:?}, before its begin at {:?}",
                    e.at,
                    begun.unwrap()
                );
                prop_assert!(closed.insert(key), "double end: {key:?}");
            }
        }
        prop_assert!(open.is_empty(), "unclosed spans: {:?}", open.keys());
        prop_assert!(closed.contains(&Key::Campaign), "the campaign span closed");
    }
}

proptest! {
    // ---- telemetry schema codes --------------------------------------

    #[test]
    fn outcome_codes_roundtrip_through_their_wire_strings(i in 0usize..6) {
        use decoding_divide::bqt::telemetry::OutcomeCode;
        const ALL: [OutcomeCode; 6] = [
            OutcomeCode::Plans,
            OutcomeCode::NoService,
            OutcomeCode::Unserviceable,
            OutcomeCode::Blocked,
            OutcomeCode::Failed,
            OutcomeCode::Stalled,
        ];
        let code = ALL[i];
        prop_assert_eq!(OutcomeCode::parse(code.as_str()), Some(code));
    }

    #[test]
    fn fault_classes_roundtrip_through_their_wire_strings(i in 0usize..3) {
        use decoding_divide::bqt::telemetry::FaultClass;
        const ALL: [FaultClass; 3] = [FaultClass::Timeout, FaultClass::Reset, FaultClass::Stall];
        let class = ALL[i];
        prop_assert_eq!(FaultClass::parse(class.as_str()), Some(class));
    }

    #[test]
    fn junk_never_parses_as_a_schema_code(s in "[a-z_]{0,16}") {
        use decoding_divide::bqt::telemetry::{FaultClass, OutcomeCode};
        const OUTCOMES: [&str; 6] = [
            "plans", "no_service", "unserviceable", "blocked", "failed", "stalled",
        ];
        const FAULTS: [&str; 3] = ["timeout", "reset", "stall"];
        prop_assert_eq!(OutcomeCode::parse(&s).is_some(), OUTCOMES.contains(&s.as_str()));
        prop_assert_eq!(FaultClass::parse(&s).is_some(), FAULTS.contains(&s.as_str()));
    }
}

// ---- shard merge (differential determinism) ---------------------------
//
// The sharded-campaign contract reduces to one algebraic fact: the k-way
// merge of `(at, seq)`-stamped streams is a function of the event *set*
// alone — any partition into shards, each stream in any order, merges to
// the one canonical order.

mod shard_merge {
    use super::*;
    use decoding_divide::bqt::monitor::WatermarkHeap;
    use decoding_divide::bqt::{
        merge_seq_streams, shard_seq, sort_stream, Event, EventKind, SeqEvent,
    };
    use decoding_divide::net::SimTime;

    /// A synthetic recorded stream: `n` events with bounded timestamps
    /// (dense ties), assigned to shards by `assign`, with per-shard
    /// contiguous counters — exactly how `ShardRecorder` stamps them.
    fn stamped(at_ms: &[u64], assign: &[u8], n_shards: u8) -> Vec<Vec<SeqEvent>> {
        let mut streams: Vec<Vec<SeqEvent>> = vec![Vec::new(); n_shards as usize];
        for (i, (&at, &a)) in at_ms.iter().zip(assign).enumerate() {
            let shard = (a % n_shards) as usize;
            let counter = streams[shard].len() as u64;
            streams[shard].push(SeqEvent {
                seq: shard_seq(shard as u32, counter),
                event: Event {
                    at: SimTime::from_millis(at),
                    kind: EventKind::WorkerBegin { worker: i as u32 },
                },
            });
        }
        streams
    }

    fn workers(events: &[Event]) -> Vec<u32> {
        events
            .iter()
            .map(|e| match e.kind {
                EventKind::WorkerBegin { worker } => worker,
                _ => unreachable!("synthetic streams only hold WorkerBegin"),
            })
            .collect()
    }

    proptest! {
        /// Any partition of the same event set merges to the order given
        /// by sorting on `(at, seq)` — the canonical order.
        #[test]
        fn any_partition_reproduces_canonical_order(
            at_ms in proptest::collection::vec(0u64..50, 1..120),
            assign in proptest::collection::vec(any::<u8>(), 120),
            n_shards in 1u8..6,
        ) {
            let streams = stamped(&at_ms, &assign, n_shards);
            let mut expected: Vec<(u64, u64, u32)> = streams
                .iter()
                .flatten()
                .map(|se| {
                    let w = match se.event.kind {
                        EventKind::WorkerBegin { worker } => worker,
                        _ => unreachable!("synthetic streams only hold WorkerBegin"),
                    };
                    (se.event.at.as_millis(), se.seq, w)
                })
                .collect();
            expected.sort();
            let merged: Vec<Event> = merge_seq_streams(streams.clone()).collect();
            prop_assert_eq!(
                workers(&merged),
                expected.into_iter().map(|(_, _, w)| w).collect::<Vec<_>>()
            );
        }

        /// Two different partitions (and stream orders) of the same events
        /// merge identically: thread count and scheduling cannot matter.
        #[test]
        fn merge_is_partition_invariant(
            at_ms in proptest::collection::vec(0u64..40, 1..100),
            assign_a in proptest::collection::vec(any::<u8>(), 100),
            assign_b in proptest::collection::vec(any::<u8>(), 100),
            shards_a in 1u8..6,
            shards_b in 1u8..6,
        ) {
            // Both partitions must namespace by a *global* canonical seq —
            // per-partition counters would name different totals. Use the
            // event index as the canonical seq for both.
            let stamp = |assign: &[u8], n: u8| -> Vec<Vec<SeqEvent>> {
                let mut streams: Vec<Vec<SeqEvent>> = vec![Vec::new(); n as usize];
                for (i, (&at, &a)) in at_ms.iter().zip(assign).enumerate() {
                    streams[(a % n) as usize].push(SeqEvent {
                        seq: i as u64,
                        event: Event {
                            at: SimTime::from_millis(at),
                            kind: EventKind::WorkerBegin { worker: i as u32 },
                        },
                    });
                }
                streams
            };
            let a = stamp(&assign_a, shards_a);
            let b = stamp(&assign_b, shards_b);
            let merged_a: Vec<Event> = merge_seq_streams(a.clone()).collect();
            let merged_b: Vec<Event> = merge_seq_streams(b.iter().rev().cloned()).collect();
            prop_assert_eq!(workers(&merged_a), workers(&merged_b));
        }

        /// Pre-sorted runs, the same runs each reversed and in reverse
        /// stream order, and one concatenated run all merge to the same
        /// order; consuming the merge a few events at a time yields what
        /// collecting it does, with an exact length at every step.
        #[test]
        fn sorted_reversed_and_concatenated_runs_merge_alike(
            at_ms in proptest::collection::vec(0u64..50, 1..120),
            assign in proptest::collection::vec(any::<u8>(), 120),
            n_shards in 1u8..6,
            chunk in 1usize..8,
        ) {
            let streams = stamped(&at_ms, &assign, n_shards);
            let sorted: Vec<Vec<SeqEvent>> = streams
                .iter()
                .map(|s| {
                    let mut s = s.clone();
                    sort_stream(&mut s);
                    s
                })
                .collect();
            let reversed: Vec<Vec<SeqEvent>> = sorted
                .iter()
                .rev()
                .map(|s| s.iter().rev().cloned().collect())
                .collect();
            let concatenated = vec![streams.concat()];

            let collected: Vec<Event> = merge_seq_streams(sorted.clone()).collect();
            prop_assert_eq!(collected.len(), at_ms.len());
            let from_reversed: Vec<Event> = merge_seq_streams(reversed).collect();
            let from_concatenated: Vec<Event> = merge_seq_streams(concatenated).collect();
            prop_assert_eq!(workers(&from_reversed), workers(&collected));
            prop_assert_eq!(workers(&from_concatenated), workers(&collected));

            let mut merge = merge_seq_streams(sorted);
            let mut streamed: Vec<Event> = Vec::new();
            loop {
                prop_assert_eq!(merge.len(), collected.len() - streamed.len());
                let before = streamed.len();
                streamed.extend(merge.by_ref().take(chunk));
                if streamed.len() == before {
                    break;
                }
            }
            prop_assert_eq!(merge.next(), None);
            prop_assert_eq!(streamed, collected);
        }

        /// The watermark gate never releases an entry stamped beyond the
        /// watermark, and always drains ready entries in `(at, seq)` order
        /// no matter how pushes and advances interleave.
        #[test]
        fn watermark_heap_respects_gate_and_order(
            ops in proptest::collection::vec((0u64..100, any::<bool>()), 1..80),
        ) {
            let mut heap: WatermarkHeap<u64> = WatermarkHeap::new();
            let mut popped: Vec<(u64, u64)> = Vec::new();
            for (seq, &(at, advance)) in ops.iter().enumerate() {
                if advance {
                    heap.advance(at);
                } else {
                    heap.push(at, seq as u64, seq as u64);
                }
                while let Some((at_ms, seq, _)) = heap.pop_ready() {
                    prop_assert!(at_ms <= heap.watermark(), "gate violated");
                    popped.push((at_ms, seq));
                }
            }
            heap.advance(u64::MAX);
            while let Some((at_ms, seq, _)) = heap.pop_ready() {
                popped.push((at_ms, seq));
            }
            prop_assert!(heap.is_empty(), "flush drains everything");
            // Entries released in the same gate window come out sorted;
            // across windows, later releases may carry earlier stamps only
            // if they were pushed after the gate passed them — but a seq
            // released earlier with an equal stamp must precede.
            for w in popped.windows(2) {
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 != w[1].1, "seqs are unique");
                }
            }
            prop_assert_eq!(popped.len(), ops.iter().filter(|(_, a)| !a).count());
        }
    }
}

// ---- scrape: V2 detection totality (the drift premise) -----------------
//
// The self-healing drift machinery rests on two facts about the template
// generations: the detectors are total (no page, however mangled, panics
// them), and the generations are mutually invisible (a V2 page recognizes
// under no V1 template, which is exactly what the drift monitor counts).

mod v2_detect {
    use super::*;
    use decoding_divide::bat::{templates, Dialect, TemplateVersion};
    use decoding_divide::bqt::scrape::{detect, detect_with};
    use decoding_divide::bqt::{learn_template_set, DetectedPage, TemplateSet, GENERATIONS};
    use decoding_divide::isp::{catalog, Plan, Tech, ALL_ISPS};

    const DIALECTS: [Dialect; 3] = [Dialect::DataAttr, Dialect::TableRow, Dialect::ListItem];

    fn plan(down: u32, up: u32, cents: u32) -> Plan {
        Plan::new(
            f64::from(down),
            f64::from(up),
            f64::from(cents) / 100.0,
            Tech::Fiber,
        )
    }

    proptest! {
        /// Every bootstrapped generation's detector is total: arbitrary
        /// source-shaped text never panics any dialect's parser.
        #[test]
        fn detect_never_panics_on_arbitrary_text(text in "[ -~\\n]{0,512}") {
            for ts in GENERATIONS {
                for d in DIALECTS {
                    let _ = detect_with(ts, &text, d);
                }
            }
        }

        /// Splicing a real marker into garbage hits the deeper scanner
        /// paths (truncated spans, missing closers); still total, and a
        /// lone marker never fabricates plans.
        #[test]
        fn detect_never_panics_on_marker_spliced_garbage(
            prefix in "[ -~]{0,64}",
            suffix in "[ -~\\n]{0,256}",
            which in 0usize..10,
        ) {
            const MARKERS: [&str; 10] = [
                "class=\"oops\"",
                "class=\"error-page\"",
                "class=\"mdu-prompt\"",
                "class=\"unit-prompt\"",
                "class=\"address-error\"",
                "class=\"addr-missing\"",
                "data-down=\"",
                "data-dl=\"",
                "<td class=\"dl\">",
                "<span class=\"down\">",
            ];
            let page = format!("{prefix}{}{suffix}", MARKERS[which]);
            for ts in GENERATIONS {
                for d in DIALECTS {
                    if let DetectedPage::Plans(plans) = detect_with(ts, &page, d) {
                        prop_assert!(!plans.is_empty(), "Plans is never empty");
                    }
                }
            }
        }

        /// Redesigned plan pages roundtrip bit-exact under the V2 set in
        /// every ISP's dialect — and recognize under no V1 template, which
        /// is the sighting the drift monitor feeds on.
        #[test]
        fn v2_plan_pages_roundtrip_under_v2_and_hide_from_v1(
            specs in proptest::collection::vec(
                (1u32..=10_000, 1u32..=1_000, 100u32..=99_999),
                1..6,
            ),
        ) {
            let plans: Vec<Plan> = specs.iter().map(|&(d, u, c)| plan(d, u, c)).collect();
            for isp in ALL_ISPS {
                let dialect = templates::dialect_of(isp);
                let page = templates::render_plans_v(isp, &plans, TemplateVersion::V2);
                match detect_with(TemplateSet::v2(), &page, dialect) {
                    DetectedPage::Plans(scraped) => {
                        prop_assert_eq!(scraped.len(), plans.len());
                        for (s, p) in scraped.iter().zip(&plans) {
                            prop_assert_eq!(s.download_mbps, p.download_mbps);
                            prop_assert_eq!(s.upload_mbps, p.upload_mbps);
                            prop_assert_eq!(s.price_usd, p.price_usd);
                        }
                    }
                    other => panic!("{isp}: expected plans, got {other:?}"),
                }
                prop_assert_eq!(detect(&page, dialect), DetectedPage::Unrecognized);
            }
        }

        /// Every redesigned non-plan template classifies correctly under
        /// the V2 set — suggestions and units in page order — and stays
        /// invisible to the V1 bootstrap, for every ISP.
        #[test]
        fn v2_non_plan_pages_classify_under_v2_and_hide_from_v1(
            names in proptest::collection::vec("[A-Za-z0-9 ]{1,24}", 1..5),
        ) {
            let trimmed: Vec<String> = names.iter().map(|s| s.trim().to_string()).collect();
            let v2 = TemplateVersion::V2;
            for isp in ALL_ISPS {
                let dialect = templates::dialect_of(isp);
                let cases = [
                    (
                        templates::render_not_found_v(isp, &names, v2),
                        DetectedPage::AddressNotFound(trimmed.clone()),
                    ),
                    (
                        templates::render_mdu_v(isp, &names, v2),
                        DetectedPage::MultiDwellingUnit(trimmed.clone()),
                    ),
                    (
                        templates::render_existing_customer_v(isp, v2),
                        DetectedPage::ExistingCustomer,
                    ),
                    (templates::render_no_service_v(isp, v2), DetectedPage::NoService),
                    (
                        templates::render_technical_difficulty_v(isp, v2),
                        DetectedPage::TechnicalDifficulty,
                    ),
                ];
                for (page, expected) in cases {
                    prop_assert_eq!(detect_with(TemplateSet::v2(), &page, dialect), expected);
                    prop_assert_eq!(detect(&page, dialect), DetectedPage::Unrecognized);
                }
            }
        }

        /// Any probe burst holding at least one V2 page — at any junk
        /// dilution — learns generation 2, with confidence exactly the
        /// recognized fraction. This is the re-bootstrap's correctness on
        /// noisy bursts.
        #[test]
        fn learning_picks_generation_2_from_any_mixed_v2_burst(
            isp_i in 0usize..7,
            picks in proptest::collection::vec(0usize..3, 1..6),
            n_junk in 0usize..5,
        ) {
            let isp = ALL_ISPS[isp_i];
            let dialect = templates::dialect_of(isp);
            let v2 = TemplateVersion::V2;
            let pages: Vec<String> = picks
                .iter()
                .map(|&k| match k {
                    0 => templates::render_plans_v(isp, catalog(isp), v2),
                    1 => templates::render_no_service_v(isp, v2),
                    _ => templates::render_not_found_v(isp, &["1 Oak St".into()], v2),
                })
                .chain((0..n_junk).map(|i| format!("<html>junk {i}</html>")))
                .collect();
            let learned = learn_template_set(&pages, dialect).expect("non-empty burst");
            prop_assert_eq!(learned.generation, 2);
            prop_assert_eq!(learned.templates, TemplateSet::v2());
            let expected = picks.len() as f64 / pages.len() as f64;
            prop_assert!((learned.confidence - expected).abs() < 1e-12, "{isp}");
        }
    }
}

// Non-proptest cross-crate invariants that complete the suite.

#[test]
fn noisy_rendering_matches_back_to_its_own_canonical_form() {
    use decoding_divide::address::matching::{best_match, Measure};
    use decoding_divide::address::{render_noisy, NoiseProfile};
    use decoding_divide::census::city_by_name;
    use decoding_divide::isp::CityWorld;

    // For a sample of real inventory addresses, the noisy listing must match
    // its own canonical line better than any sibling on the same street.
    let world = CityWorld::build(city_by_name("Fargo").expect("study city"));
    let db = world.addresses();
    let mut correct = 0;
    let mut total = 0;
    for r in db.records().iter().take(300) {
        let noisy = render_noisy(&r.canonical, &NoiseProfile::zillow_like(), r.id as u64);
        // The record itself plus up to seven same-block siblings.
        let mut candidates: Vec<String> = db
            .in_block_group(r.bg_index)
            .iter()
            .filter(|&&i| db.records()[i].id != r.id)
            .take(7)
            .map(|&i| db.records()[i].canonical.canonical_line())
            .collect();
        candidates.push(r.canonical.canonical_line());
        let truth_idx = candidates.len() - 1;
        total += 1;
        if let Some((idx, _)) = best_match(Measure::TokenSort, &noisy, &candidates, 0.5) {
            if idx == truth_idx {
                correct += 1;
            }
        }
    }
    assert!(total > 200);
    assert!(
        correct as f64 / total as f64 > 0.9,
        "matcher picked the right sibling only {correct}/{total} times"
    );
}

// ---- trace: exemplar admission ----------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Offering only the traces the reservoir admits leaves it exactly as
    /// offering every trace does — at every step, for any capacity, under
    /// heavy duration and end-time ties.
    #[test]
    fn offering_only_admitted_traces_matches_offering_all(
        offers in proptest::collection::vec((0usize..3, 0u64..6, 0u64..8), 0..60),
    ) {
        use decoding_divide::bqt::trace::{ExemplarReservoir, Span, SpanKind, Trace};
        for k in [0usize, 1, 3] {
            let mut all = ExemplarReservoir::new(k);
            let mut gated = ExemplarReservoir::new(k);
            for (seq, &(endpoint, duration_ms, start_ms)) in offers.iter().enumerate() {
                let endpoint = ["isp/a", "isp/b", "isp/c"][endpoint];
                let end_ms = start_ms + duration_ms;
                let seq = seq as u64 + 1;
                let trace = Trace {
                    tag: seq,
                    endpoint: endpoint.to_string(),
                    root: Span {
                        kind: SpanKind::Serve,
                        label: String::new(),
                        start_ms,
                        end_ms,
                        children: Vec::new(),
                    },
                };
                if gated.admits(endpoint, duration_ms, end_ms, seq) {
                    gated.offer(trace.clone(), end_ms, seq);
                }
                all.offer(trace, end_ms, seq);
                prop_assert_eq!(gated.csv(), all.csv());
            }
            prop_assert_eq!(gated.into_set(), all.into_set());
        }
    }
}
