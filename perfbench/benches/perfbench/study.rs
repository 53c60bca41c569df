//! `study_quick`: `bench::run_study` over all 30 cities at quick scale
//! on one thread, then every study-backed report — the `repro --scale
//! quick all` path. World build and fleet set-up dominate it, and it is
//! the only workload with analysis in it. One thread, because at two the
//! same run swings by nearly 2x on a shared two-core machine.

use crate::ledger::Ledger;
use crate::{
    digest, digest_all, micro, records_digest, repeat_for, scrape_counts, timed, Config, Outcome,
    Samples,
};
use bbsim_bat::{AddressIndex, BatServer};
use bbsim_census::{city_by_name, CityProfile};
use bbsim_dataset::{aggregate_block_groups, curate_city, CityArtifact, CityDataset};
use bbsim_isp::CityWorld;
use bench::experiments as exp;
use bench::experiments_ext as ext;
use bench::study::{resolve_cities, run_study, CityStudy, Scale, StudyDataset};
use std::sync::Arc;

/// A study-backed report renderer.
pub type Render = fn(&StudyDataset) -> String;

/// Every study-backed report `repro all` prints, in its order.
pub const REPORTS: [(&str, Render); 16] = [
    ("fig2a", exp::fig2a),
    ("fig2b", exp::fig2b),
    ("table2", exp::table2),
    ("fig4", exp::fig4),
    ("fig5", exp::fig5),
    ("fig6", exp::fig6),
    ("fig7", exp::fig7),
    ("table3", exp::table3),
    ("fig8", exp::fig8),
    ("fig9a", exp::fig9a),
    ("fig9b", exp::fig9b),
    ("tier-flattening", ext::tier_flattening_report),
    ("markup-baseline", ext::markup_baseline),
    ("upload-consistency", ext::upload_consistency_report),
    ("robustness", ext::robustness),
    ("policy", ext::policy),
];

/// The set-up curation: a small study city, curated alone. It warms the
/// process and is the reference the study's own copy of that city must
/// match.
const REFERENCE_CITY: &str = "Fort Wayne";
const SETUP_REPEATS: usize = 9;
const RESUME_REPEATS: usize = 5;
/// Renders of one study behind `analysis.unstable_reports`.
const RENDERS: usize = 3;

fn cities(cfg: &Config) -> Vec<&'static CityProfile> {
    resolve_cities(cfg.tiny.then_some("Fargo, Fort Wayne"))
}

fn study_digest(study: &StudyDataset) -> u64 {
    let per_city: Vec<u64> = study
        .cities
        .iter()
        .map(|c| records_digest(&c.dataset))
        .collect();
    digest_all(&per_city)
}

/// `(queried, answered)` summed over every city.
fn study_counts(study: &StudyDataset) -> (u64, u64) {
    scrape_counts(study.cities.iter().map(|c| &c.dataset))
}

fn render_all(study: &StudyDataset) -> Vec<String> {
    REPORTS.iter().map(|(_, render)| render(study)).collect()
}

/// One measured iteration: the study, then every report.
fn iteration(
    cities: &[&'static CityProfile],
    seed: u64,
) -> ((StudyDataset, Vec<String>), crate::Phase) {
    timed(|| {
        let study = run_study(cities, Scale::Quick, seed, 1);
        let reports = render_all(&study);
        (study, reports)
    })
}

fn check_study(
    out: &mut Outcome,
    cities: &[&'static CityProfile],
    study: &StudyDataset,
    reports: &[String],
    reference: u64,
) {
    out.check(study.cities.len() == cities.len(), || {
        format!(
            "study curated {} of {} cities",
            study.cities.len(),
            cities.len()
        )
    });
    for c in &study.cities {
        out.check(!c.dataset.records.is_empty() && !c.rows.is_empty(), || {
            format!("{} has no records", c.dataset.city.name)
        });
        for (isp, m) in &c.dataset.per_isp_metrics {
            out.check(m.hit_rate() > 0.5, || {
                format!(
                    "{} {isp}: hit rate {:.3}",
                    c.dataset.city.name,
                    m.hit_rate()
                )
            });
        }
    }
    for ((name, _), text) in REPORTS.iter().zip(reports) {
        out.check(!text.trim().is_empty(), || {
            format!("report {name} is empty")
        });
    }
    let copy = study
        .city(REFERENCE_CITY)
        .map(|c| records_digest(&c.dataset));
    out.check(copy == Some(reference), || {
        format!("{REFERENCE_CITY} in the study differs from its set-up curation")
    });
}

/// The study's restart path, with no scraping: reload every city's
/// records from its persisted artifact text, re-aggregate the block
/// groups and render every report again. The per-ISP campaign counters
/// are carried over, as the artifact format holds records only.
fn resume(study: &StudyDataset) -> (f64, bool) {
    let texts: Vec<String> = study
        .cities
        .iter()
        .map(|c| CityArtifact::from_dataset(&c.dataset).to_text())
        .collect();
    let ((restored, reports), phase) = timed(|| {
        let cities = texts
            .iter()
            .zip(&study.cities)
            .map(|(t, c)| {
                let art = CityArtifact::from_text(t).expect("artifact round-trip");
                let rows = aggregate_block_groups(&art.records);
                let dataset = CityDataset {
                    city: c.dataset.city,
                    records: art.records,
                    per_isp_metrics: c.dataset.per_isp_metrics.clone(),
                    per_isp_pause: c.dataset.per_isp_pause.clone(),
                };
                CityStudy { dataset, rows }
            })
            .collect();
        let restored = StudyDataset {
            scale: study.scale,
            cities,
        };
        let reports = render_all(&restored);
        (restored, reports)
    });
    let same = study_digest(&restored) == study_digest(study)
        && reports.iter().all(|r| !r.trim().is_empty());
    (phase.wall_s, same)
}

/// Set-up: curates the reference city [`SETUP_REPEATS`] times; returns
/// the set-up times and the reference digest.
fn setup(cfg: &Config, out: &mut Outcome) -> (Vec<f64>, u64) {
    let city = city_by_name(REFERENCE_CITY).expect("study city");
    let mut times = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (ds, phase) = timed(|| curate_city(city, &Scale::Quick.options(cfg.seed)));
        times.push(phase.wall_s);
        digests.push(records_digest(&ds));
    }
    out.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("set-up curations of {REFERENCE_CITY} differ: {digests:x?}")
    });
    (times, digests[0])
}

pub fn run(cfg: &Config) -> Outcome {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut out = Outcome::default();
    let cities = cities(cfg);
    let mut samples = Samples::default();
    let reference;
    (samples.setup_s, reference) = setup(cfg, &mut out);
    let mut digests = Vec::new();
    repeat_for(cfg.seconds, || {
        let ((study, reports), phase) = iteration(&cities, cfg.seed);
        let before = out.failures.len();
        check_study(&mut out, &cities, &study, &reports, reference);
        let (queried, answered) = study_counts(&study);
        out.count_ops(queried, before);
        samples.iteration(phase, queried, answered, queried - answered);
        digests.push(study_digest(&study));
        for _ in 0..RESUME_REPEATS {
            let (s, same) = resume(&study);
            out.check(same, || "study restored from artifacts differs".to_string());
            samples.resume_s.push(s);
        }
    });
    out.check_digests(cfg, "study records", &digests);
    samples.report(&mut out);
    out
}

/// The traced run: an untraced iteration for reference, probes of the
/// calls `curate_city` makes internally, then the same study rebuilt
/// from spans around its public calls.
fn run_traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let cities = cities(cfg);
    let (_, reference) = setup(cfg, &mut out);
    let ((plain, plain_reports), plain_phase) = iteration(&cities, cfg.seed);
    check_study(&mut out, &cities, &plain, &plain_reports, reference);
    let plain_digest = study_digest(&plain);
    drop((plain, plain_reports));

    // run_study's order: largest city first.
    let mut order = cities.clone();
    order.sort_by_key(|c| std::cmp::Reverse(c.block_groups));
    let opts = Scale::Quick.options(cfg.seed);
    let mut ledger = Ledger::new();

    // Probes: the world build, the address index and the BAT fleet that
    // curate_city stands up for each city, re-executed one by one.
    ledger.probe("probe.study", |l| {
        for &city in &order {
            let world = l.probe("isp.world_build", |_| {
                Arc::new(CityWorld::build_at(city, opts.epoch))
            });
            let isps = world.isps();
            l.probe("bat.fleet_setup", |_| {
                isps.iter()
                    .map(|&isp| BatServer::new(isp, world.clone()))
                    .collect::<Vec<_>>()
            });
            // The fleet's address indexes alone, one per ISP and kept
            // alive together as the fleet keeps them; timed after the
            // fleet, so they reuse memory the way its own builds do.
            l.probe("bat.index_build", |_| {
                isps.iter()
                    .map(|_| AddressIndex::build(world.addresses()))
                    .collect::<Vec<_>>()
            });
        }
    });

    let (reports, traced_phase) = timed(|| {
        ledger.span("study_quick", |l| {
            let mut done = Vec::new();
            for &city in &order {
                let dataset = l.span("dataset.curate_city", |_| curate_city(city, &opts));
                let rows = l.span("dataset.aggregate", |_| {
                    aggregate_block_groups(&dataset.records)
                });
                done.push(CityStudy { dataset, rows });
            }
            done.sort_by_key(|c| c.dataset.city.name);
            let study = StudyDataset {
                scale: Scale::Quick,
                cities: done,
            };
            let reports: Vec<String> = REPORTS
                .iter()
                .map(|(name, render)| l.span(&format!("analysis.{name}"), |_| render(&study)))
                .collect();
            (study, reports)
        })
    });
    let (study, reports) = reports;
    out.check(study_digest(&study) == plain_digest, || {
        "traced study records differ from the untraced study".to_string()
    });
    out.check_across_runs(cfg, "study records", plain_digest);
    let (queried, _) = study_counts(&study);
    out.attempted = queried;

    // The tier-flattening defect, surfaced: a report whose digest moves
    // between renders of one study is unstable.
    let mut render_digests: Vec<Vec<u64>> =
        reports.iter().map(|r| vec![digest(r.as_bytes())]).collect();
    for _ in 1..RENDERS {
        for (d, text) in render_digests.iter_mut().zip(render_all(&study)) {
            d.push(digest(text.as_bytes()));
        }
    }
    let unstable: Vec<&str> = REPORTS
        .iter()
        .zip(&render_digests)
        .filter(|(_, d)| d.iter().any(|&x| x != d[0]))
        .map(|((name, _), _)| *name)
        .collect();
    eprintln!("[perfbench] reports unstable over {RENDERS} renders: {unstable:?}");

    let c = micro::corpus(cfg.seed);
    let sample_s = cfg.micro_sample_s();
    let page = micro::page_step(&c, cfg.seed, sample_s);
    let matching = micro::best_match_call(&c, sample_s);

    let world_s = ledger.total("isp.world_build");
    let fleet_s = ledger.total("bat.fleet_setup");
    let curate_s = ledger.total("dataset.curate_city");
    let campaign_s = curate_s - world_s - fleet_s;
    let n = order.len();
    out.put("isp.world_build_s", "s", world_s, n);
    out.put("bat.fleet_setup_s", "s", fleet_s, n);
    out.put("bat.index_build_s", "s", ledger.total("bat.index_build"), n);
    out.put("core.campaign_s", "s", campaign_s, n);
    out.put(
        "core.query_us",
        "us",
        campaign_s / queried.max(1) as f64 * 1e6,
        n,
    );
    out.put(
        "dataset.aggregate_s",
        "s",
        ledger.total("dataset.aggregate"),
        n,
    );
    for (name, _) in REPORTS {
        let key = format!("analysis.{name}");
        out.put(&format!("{key}_s"), "s", ledger.total(&key), 1);
    }
    out.put(
        "analysis.unstable_reports",
        "count",
        unstable.len() as f64,
        RENDERS,
    );
    out.put("bat.page_step_ns", "ns", page.ns_per_op, page.samples);
    out.put(
        "address.best_match_ns",
        "ns",
        matching.ns_per_op,
        matching.samples,
    );
    out.put(
        "ledger.unexplained_ratio",
        "ratio",
        ledger.unexplained("study_quick"),
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
