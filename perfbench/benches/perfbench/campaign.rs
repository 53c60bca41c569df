//! `campaign_journaled`: one journaled Chicago curation at the paper's
//! sampling on two threads, into a fresh directory. The first pass is
//! the write path — every query live, with the journal, `events.jsonl`,
//! `health.prom`, `profile.folded` and `trace.json` written. A second
//! call on the same directory is the read path: it replays the whole
//! journal with no live attempt. This is the sharded path, so per-query
//! cost, the per-shard fleet rebuild, and the journal and telemetry
//! writes all show here. It runs no analysis.

use crate::ledger::{span_opt, Ledger};
use crate::{
    digest, digest_all, micro, records_digest, repeat_for, scrape_counts, timed, work_dir, Config,
    Outcome, Samples,
};
use bbsim_bat::{AddressIndex, BatServer};
use bbsim_census::{city_by_name, CityProfile};
use bbsim_dataset::{curate_city_journaled, CityDataset, CurationOptions};
use bbsim_isp::CityWorld;
use bqt::ResumeStats;
use std::path::Path;
use std::sync::Arc;

const THREADS: usize = 2;
/// The artifacts a journaled curation writes beside its journals.
const ARTIFACTS: [&str; 4] = [
    "events.jsonl",
    "health.prom",
    "profile.folded",
    "trace.json",
];
/// Set-up curates this small city the same way, warming the process and
/// checking the path end to end before anything is timed.
const SETUP_CITY: &str = "Fargo";
const SETUP_REPEATS: usize = 9;

fn city(cfg: &Config) -> &'static CityProfile {
    city_by_name(if cfg.tiny { "Fargo" } else { "Chicago" }).expect("study city")
}

fn options(cfg: &Config) -> CurationOptions {
    if cfg.tiny {
        CurationOptions::quick(cfg.seed).threads(THREADS)
    } else {
        CurationOptions::paper_default(cfg.seed).threads(THREADS)
    }
}

/// The records and the four artifacts, as digests.
fn snapshot(ds: &CityDataset, dir: &Path) -> Vec<u64> {
    let mut out = vec![records_digest(ds)];
    for name in ARTIFACTS {
        let bytes =
            std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("cannot read {name}: {e}"));
        out.push(digest(&bytes));
    }
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("campaign dir")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum()
}

/// One fresh pass and one replay pass into a new directory.
struct Pass {
    fresh: crate::Phase,
    replay: crate::Phase,
    queried: u64,
    answered: u64,
    fresh_snapshot: Vec<u64>,
    artifact_bytes: u64,
}

fn curate(
    city: &'static CityProfile,
    opts: &CurationOptions,
    dir: &Path,
) -> (CityDataset, ResumeStats) {
    curate_city_journaled(city, opts, None, dir)
        .unwrap_or_else(|e| panic!("journaled curation of {} failed: {e:?}", city.name))
}

/// Runs both passes, optionally inside ledger spans, and checks that the
/// replay scraped nothing and rewrote identical records and artifacts.
fn pass(cfg: &Config, out: &mut Outcome, mut ledger: Option<&mut Ledger>) -> Pass {
    let (city, opts) = (city(cfg), options(cfg));
    let dir = work_dir("campaign");
    let curate_timed = || timed(|| curate(city, &opts, &dir));
    let ((fresh_ds, fresh_stats), fresh) = span_opt(
        ledger.as_deref_mut(),
        "dataset.curate_city_journaled",
        curate_timed,
    );
    // Reading the artifacts back is the benchmark's own work; in the
    // ledger it is a named span, not an unexplained gap.
    let (fresh_snapshot, artifact_bytes) =
        span_opt(ledger.as_deref_mut(), "perfbench.verify", || {
            (snapshot(&fresh_ds, &dir), dir_bytes(&dir))
        });
    let (queried, answered) = scrape_counts([&fresh_ds]);
    drop(fresh_ds);
    let ((replay_ds, replay_stats), replay) = span_opt(
        ledger.as_deref_mut(),
        "dataset.curate_city_journaled.replay",
        curate_timed,
    );
    let replay_snapshot = span_opt(ledger, "perfbench.verify", || {
        let snapshot = snapshot(&replay_ds, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        snapshot
    });
    out.check(fresh_stats.live_attempts > 0, || {
        "fresh pass made no live attempt".to_string()
    });
    out.check(replay_stats.live_attempts == 0, || {
        format!("replay made {} live attempts", replay_stats.live_attempts)
    });
    out.check(replay_stats.replayed_attempts >= queried, || {
        format!(
            "replay answered {} attempts from the journal for {queried} queries",
            replay_stats.replayed_attempts
        )
    });
    for (i, what) in ["records"].into_iter().chain(ARTIFACTS).enumerate() {
        out.check(fresh_snapshot[i] == replay_snapshot[i], || {
            format!("replay rewrote different {what}")
        });
    }
    Pass {
        fresh,
        replay,
        queried,
        answered,
        fresh_snapshot,
        artifact_bytes,
    }
}

fn setup(cfg: &Config, out: &mut Outcome) -> Vec<f64> {
    let city = city_by_name(SETUP_CITY).expect("study city");
    let opts = options(cfg);
    let mut times = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let dir = work_dir("campaign-setup");
        let ((ds, _), phase) = timed(|| curate(city, &opts, &dir));
        times.push(phase.wall_s);
        digests.push(snapshot(&ds, &dir));
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.check(digests.iter().all(|d| *d == digests[0]), || {
        format!("set-up curations of {SETUP_CITY} differ")
    });
    times
}

pub fn run(cfg: &Config) -> Outcome {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut out = Outcome::default();
    let mut samples = Samples {
        setup_s: setup(cfg, &mut out),
        ..Samples::default()
    };
    let mut digests = Vec::new();
    repeat_for(cfg.seconds, || {
        let before = out.failures.len();
        let p = pass(cfg, &mut out, None);
        out.count_ops(p.queried, before);
        samples.iteration(p.fresh, p.queried, p.answered, p.queried - p.answered);
        samples.resume_s.push(p.replay.wall_s);
        digests.push(digest_all(&p.fresh_snapshot));
    });
    out.check_digests(cfg, "records and artifacts", &digests);
    samples.report(&mut out);
    out
}

/// The traced run: an untraced pass for reference, probes of the world,
/// index and fleet the pipeline builds internally, a traced pass, then
/// the per-operation costs of the campaign's layers.
fn run_traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let plain = pass(cfg, &mut out, None);

    let mut ledger = Ledger::new();
    let city = city(cfg);
    let isps = ledger.probe("probe.campaign", |l| {
        let world = l.probe("isp.world_build", |_| {
            Arc::new(CityWorld::build_at(city, 0))
        });
        let isps = world.isps().len();
        l.probe("bat.fleet_setup", |_| {
            world
                .isps()
                .into_iter()
                .map(|isp| BatServer::new(isp, world.clone()))
                .collect::<Vec<_>>()
        });
        // The fleet's address indexes alone, one per ISP and kept alive
        // together as the fleet keeps them; timed after the fleet, so
        // they reuse memory the way the fleet's own builds do.
        l.probe("bat.index_build", |_| {
            (0..isps)
                .map(|_| AddressIndex::build(world.addresses()))
                .collect::<Vec<_>>()
        });
        isps
    });
    let traced = ledger.span("campaign_journaled", |l| pass(cfg, &mut out, Some(l)));
    out.check(traced.fresh_snapshot == plain.fresh_snapshot, || {
        "traced pass differs from the untraced pass".to_string()
    });
    out.check_across_runs(
        cfg,
        "records and artifacts",
        digest_all(&plain.fresh_snapshot),
    );
    out.attempted = traced.queried;

    // Each pass builds the world once and the whole fleet 1 + #ISPs
    // times: once for calibration, then once inside every ISP's shard.
    let fleets = (1 + isps) as f64;
    let world_s = ledger.total("isp.world_build");
    let fleet_s = ledger.total("bat.fleet_setup") * fleets;
    let campaign_s = traced.fresh.wall_s - world_s - fleet_s;

    let c = micro::corpus(cfg.seed);
    let sample_s = cfg.micro_sample_s();
    let micros = [
        (
            "core.journal_append_ns",
            micro::journal_append(&c, sample_s),
        ),
        ("core.jsonl_encode_ns", micro::jsonl_encode(&c, sample_s)),
        (
            "core.aggregator_observe_ns",
            micro::aggregator_observe(&c, sample_s),
        ),
        (
            "core.trace_assemble_ns",
            micro::trace_assemble(&c, sample_s),
        ),
        (
            "core.critical_path_ns",
            micro::critical_path_walk(&c, sample_s),
        ),
        ("bat.page_step_ns", micro::page_step(&c, cfg.seed, sample_s)),
        (
            "address.best_match_ns",
            micro::best_match_call(&c, sample_s),
        ),
    ];

    out.put("isp.world_build_s", "s", world_s, 1);
    out.put("bat.fleet_setup_s", "s", fleet_s, 1);
    out.put(
        "bat.index_build_s",
        "s",
        ledger.total("bat.index_build") * fleets,
        1,
    );
    out.put("core.campaign_s", "s", campaign_s, 1);
    out.put(
        "core.query_us",
        "us",
        campaign_s / traced.queried.max(1) as f64 * 1e6,
        1,
    );
    out.put(
        "core.artifact_bytes",
        "bytes",
        traced.artifact_bytes as f64,
        1,
    );
    for (name, m) in micros {
        out.put(name, "ns", m.ns_per_op, m.samples);
    }
    out.put(
        "ledger.unexplained_ratio",
        "ratio",
        ledger.unexplained("campaign_journaled"),
        1,
    );
    out.put(
        "ledger.trace_overhead_ratio",
        "ratio",
        (traced.fresh.wall_s + traced.replay.wall_s) / (plain.fresh.wall_s + plain.replay.wall_s),
        1,
    );
    out.put("ledger.probe_s", "s", ledger.probe_seconds(), 1);
    out.ledger = Some(ledger);
    out
}
