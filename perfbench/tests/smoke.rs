//! Smoke test of the benchmark itself: every workload at a tiny size,
//! untraced and traced, must pass its correctness checks and emit every
//! metric `BENCHMARK.json` declares, with the declared unit.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{per_layer, result_json, run, Config, Workload, END_TO_END};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// `(name, unit)` of every metric in the `key` array of BENCHMARK.json.
fn declared(key: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    let field = |obj: &str, name: &str| -> String {
        let tag = format!("\"{name}\": \"");
        let at = obj
            .find(&tag)
            .unwrap_or_else(|| panic!("{key} entry without {name}"))
            + tag.len();
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 0.1,
        trace,
        tiny: true,
    }
}

fn check_run(workload: Workload, trace: bool) {
    let out = run(&tiny(workload, trace));
    assert!(out.correct(), "{}: {:?}", workload.name(), out.failures);
    assert!(out.attempted >= 1 && out.failed == 0, "{}", workload.name());
    let key = if trace { "per_layer" } else { "end_to_end" };
    for (name, unit) in declared(key) {
        let m = out
            .get(&name)
            .unwrap_or_else(|| panic!("{} does not emit {name}", workload.name()));
        assert_eq!(m.unit, unit, "{}: unit of {name}", workload.name());
        assert!(
            m.value.is_finite(),
            "{}: {name} = {}",
            workload.name(),
            m.value
        );
        if !trace {
            assert!(m.value > 0.0, "{}: end-to-end {name} is 0", workload.name());
        }
    }
    assert_eq!(
        out.metrics.len(),
        declared(key).len(),
        "{}: extra metrics",
        workload.name()
    );
    let line = result_json(&out);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains(", \"failed\": 0, \"metrics\": {"), "{line}");
    assert_eq!(out.ledger.is_some(), trace);
}

#[test]
fn study_quick_tiny() {
    check_run(Workload::StudyQuick, false);
    check_run(Workload::StudyQuick, true);
}

#[test]
fn campaign_journaled_tiny() {
    check_run(Workload::CampaignJournaled, false);
    check_run(Workload::CampaignJournaled, true);
}

#[test]
fn serve_paper_tiny() {
    check_run(Workload::ServePaper, false);
    check_run(Workload::ServePaper, true);
}

#[test]
fn benchmark_json_matches_the_emitted_metric_sets() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
    let json = benchmark_json();
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

#[test]
fn arguments_parse_as_cargo_bench_passes_them() {
    let args = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
    let cfg = Config::parse(args(
        "--workload serve_paper --seed 7 --seconds 10 --trace 1 --bench",
    ))
    .expect("benchmark arguments parse");
    assert_eq!(cfg.workload, Workload::ServePaper);
    assert_eq!(
        (cfg.seed, cfg.seconds, cfg.trace, cfg.tiny),
        (7, 10.0, true, false)
    );
    assert!(Config::parse(args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
    assert!(Config::parse(args(
        "--workload study_quick --seed 1 --seconds 1 --trace 2"
    ))
    .is_err());
    assert!(Config::parse(args("--workload study_quick --seconds 1 --trace 0")).is_err());
}
