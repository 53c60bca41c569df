//! The repository benchmark: three end-to-end workloads over the public
//! API of the workspace crates, each timed from outside, plus a traced
//! mode that builds a layer ledger from spans around the same public
//! calls. Nothing inside the crates is instrumented.
//!
//! * [`study`] — `study_quick`: the 30-city quick study and every
//!   study-backed report (the `repro --scale quick all` path);
//! * [`campaign`] — `campaign_journaled`: one journaled, sharded Chicago
//!   curation (the write path) and its replay (the read path);
//! * [`serve`] — `serve_paper`: the paper-scale serve campaign on a store
//!   built in set-up;
//! * [`micro`] — per-operation costs of single layers, for the ledger;
//! * [`ledger`] — spans kept in memory and written once at the end;
//! * [`sys`] — process clocks, memory and the machine stamp.
//!
//! `README.md` beside this crate maps every metric to its layer and
//! workload.

pub mod campaign;
pub mod ledger;
pub mod micro;
pub mod serve;
pub mod study;
pub mod sys;

use bbsim_dataset::{csvio, CityDataset};
use ledger::Ledger;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("lookups_per_s", "1/s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fail_ratio", "ratio"),
];

/// Per-layer metrics other than the per-report analysis timings, in
/// ledger order. Every workload reports all of them with `--trace 1`.
const LAYERS: [(&str, &str); 23] = [
    ("isp.world_build_s", "s"),
    ("bat.fleet_setup_s", "s"),
    ("bat.index_build_s", "s"),
    ("bat.page_step_ns", "ns"),
    ("address.best_match_ns", "ns"),
    ("core.campaign_s", "s"),
    ("core.query_us", "us"),
    ("core.journal_append_ns", "ns"),
    ("core.jsonl_encode_ns", "ns"),
    ("core.aggregator_observe_ns", "ns"),
    ("core.trace_assemble_ns", "ns"),
    ("core.critical_path_ns", "ns"),
    ("core.artifact_bytes", "bytes"),
    ("dataset.aggregate_s", "s"),
    ("analysis.unstable_reports", "count"),
    ("serve.store_load_s", "s"),
    ("serve.route_ns", "ns"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("serve.virtual_p99_ms", "ms"),
    ("ledger.unexplained_ratio", "ratio"),
    ("ledger.trace_overhead_ratio", "ratio"),
    ("ledger.probe_s", "s"),
];

/// Every per-layer metric name with its unit: the fixed layers plus one
/// `analysis.<report>_s` per study-backed report.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYERS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for (report, _) in study::REPORTS {
        out.push((format!("analysis.{report}_s"), "s"));
    }
    out
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StudyQuick,
    CampaignJournaled,
    ServePaper,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StudyQuick,
        Workload::CampaignJournaled,
        Workload::ServePaper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyQuick => "study_quick",
            Workload::CampaignJournaled => "campaign_journaled",
            Workload::ServePaper => "serve_paper",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured phase repeats its iteration.
    pub seconds: f64,
    /// Traced run: per-layer metrics and the ledger instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Smoke-test inputs: small cities and the quick serve campaign,
    /// so every code path runs in seconds.
    pub tiny: bool,
}

impl Config {
    /// Minimum length of one per-operation sample (see [`micro::per_op`]).
    pub fn micro_sample_s(&self) -> f64 {
        if self.tiny {
            0.02
        } else {
            0.5
        }
    }

    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--tiny]`.
    /// `--bench`, which `cargo bench` appends, is accepted and ignored.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Config, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut tiny = false;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let v = value("--workload")?;
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
                }
                "--seed" => {
                    let v = value("--seed")?;
                    seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
                }
                "--seconds" => {
                    let v = value("--seconds")?;
                    let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {v}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                    }
                }
                "--tiny" => tiny = true,
                "--bench" => {}
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            tiny,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was taken over (0: the workload never runs
    /// that layer, so the value is 0 by definition).
    pub samples: usize,
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued in the measured phase.
    pub attempted: u64,
    /// Operations the program failed to carry out (errors, or an
    /// iteration whose outputs failed a check).
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The traced run's spans.
    pub ledger: Option<Ledger>,
}

impl Outcome {
    /// Records a correctness check; a failure is kept, never hidden.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a metric as the median of its samples.
    pub fn median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        eprintln!("[perfbench] {name} [{unit}] samples: {samples:?}");
        self.put(name, unit, median(samples), samples.len());
    }

    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Counts one iteration's operations as attempted, and as failed when
    /// a check has failed since `failures_before`.
    pub fn count_ops(&mut self, ops: u64, failures_before: usize) {
        self.attempted += ops;
        if self.failures.len() > failures_before {
            self.failed += ops;
        }
    }

    /// Checks that every iteration's digest of `what` agrees, and that
    /// it agrees with earlier runs (see [`Outcome::check_across_runs`]).
    pub fn check_digests(&mut self, cfg: &Config, what: &str, digests: &[u64]) {
        self.check(digests.iter().all(|&d| d == digests[0]), || {
            format!("{what} differ across iterations: {digests:x?}")
        });
        self.check_across_runs(cfg, what, digests[0]);
    }

    /// Checks `value` against the digest earlier runs of this workload
    /// and seed recorded in this checkout, or records it for later runs.
    pub fn check_across_runs(&mut self, cfg: &Config, what: &str, value: u64) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join("digests");
        let path = dir.join(format!(
            "{}-seed{}{}.txt",
            cfg.workload.name(),
            cfg.seed,
            if cfg.tiny { "-tiny" } else { "" }
        ));
        let line = format!("{value:016x}");
        match std::fs::read_to_string(&path) {
            Ok(earlier) => self.check(earlier.trim() == line, || {
                format!(
                    "{what} digest {line} differs from an earlier run's {}",
                    earlier.trim()
                )
            }),
            Err(_) => {
                std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, &line))
                    .unwrap_or_else(|e| panic!("cannot record {}: {e}", path.display()));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The samples behind one untraced run's end-to-end metrics.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub resume_s: Vec<f64>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    queries_per_s: Vec<f64>,
    lookups_per_s: Vec<f64>,
    fail_ratio: Vec<f64>,
}

impl Samples {
    /// Records one measured iteration: its phase, the queries it issued,
    /// the lookups it answered, and the queries that ended in a modelled
    /// failure (a scrape miss or a shed).
    pub fn iteration(&mut self, phase: Phase, queries: u64, lookups: u64, failures: u64) {
        self.wall_s.push(phase.wall_s);
        self.cpu_s.push(phase.cpu_s);
        self.queries_per_s.push(queries as f64 / phase.wall_s);
        self.lookups_per_s.push(lookups as f64 / phase.wall_s);
        self.fail_ratio
            .push(failures as f64 / queries.max(1) as f64);
    }

    /// Reports every end-to-end metric: the median of each one's
    /// samples, and the process's peak resident set.
    pub fn report(&self, out: &mut Outcome) {
        out.median("wall_s", "s", &self.wall_s);
        out.median("cpu_s", "s", &self.cpu_s);
        out.median("setup_s", "s", &self.setup_s);
        out.median("queries_per_s", "1/s", &self.queries_per_s);
        out.median("lookups_per_s", "1/s", &self.lookups_per_s);
        out.median("resume_s", "s", &self.resume_s);
        out.put("peak_rss_mb", "MB", sys::peak_rss_mb(), 1);
        out.median("fail_ratio", "ratio", &self.fail_ratio);
    }
}

/// Runs one workload and completes its metric set: every end-to-end
/// metric untraced, every per-layer metric traced (a layer the workload
/// never enters reads 0 over 0 samples).
pub fn run(cfg: &Config) -> Outcome {
    let mut out = match cfg.workload {
        Workload::StudyQuick => study::run(cfg),
        Workload::CampaignJournaled => campaign::run(cfg),
        Workload::ServePaper => serve::run(cfg),
    };
    let expected: Vec<(String, &'static str)> = if cfg.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for m in &out.metrics {
        assert!(
            expected.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "workload reported undeclared metric {} [{}]",
            m.name,
            m.unit
        );
    }
    for (name, unit) in expected {
        if out.get(&name).is_none() {
            assert!(cfg.trace, "workload did not report {name}");
            out.put(&name, unit, 0.0, 0);
        }
    }
    out.check(out.attempted > 0, || {
        "the measured phase attempted nothing".to_string()
    });
    let bad: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite ({})", m.name, m.value))
        .collect();
    out.failures.extend(bad);
    out
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Wall and CPU seconds of one timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f`, timing it on the wall clock and the process CPU clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Phase) {
    let cpu0 = sys::cpu_seconds();
    let started = Instant::now();
    let value = f();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    (value, Phase { wall_s, cpu_s })
}

/// Repeats `iteration` until one more would overrun `seconds`; runs it
/// at least once.
pub fn repeat_for(seconds: f64, mut iteration: impl FnMut()) {
    let started = Instant::now();
    loop {
        let t = Instant::now();
        iteration();
        let last = t.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + last > seconds {
            return;
        }
    }
}

/// Digest of a curated dataset's records in their release CSV form.
pub fn records_digest(ds: &CityDataset) -> u64 {
    digest(csvio::records_to_csv(&ds.records, None).as_bytes())
}

/// `(queried, answered)` over every ISP of the given datasets: BQT
/// queries, and those that resolved to plans or to no service.
pub fn scrape_counts<'a>(datasets: impl IntoIterator<Item = &'a CityDataset>) -> (u64, u64) {
    datasets
        .into_iter()
        .flat_map(|ds| &ds.per_isp_metrics)
        .fold((0, 0), |(q, a), (_, m)| {
            (q + m.queried, a + m.plans + m.no_service)
        })
}

/// FNV-1a 64 of `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    bbsim_net::fnv1a(bytes)
}

/// One digest over several.
pub fn digest_all(values: &[u64]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    digest(&bytes)
}

/// A directory under the benchmark's own `work/`, unique to this
/// process and call, created empty.
pub fn work_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{label}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// `attempted` prints as at least 1; a run that attempted nothing has
/// already failed its checks.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// The machine and run stamp printed before the result line (and kept
/// in the ledger): every number names its machine.
pub fn stamp_json(cfg: &Config, out: &Outcome) -> String {
    let samples: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("{}: {}", json_str(&m.name), m.samples))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tiny\": {}, \
         \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"failures\": [{}], \"samples\": {{{}}}}}",
        json_str(cfg.workload.name()),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.tiny,
        sys::nproc(),
        json_str(&sys::cpu_model()),
        json_str(&sys::rustc_version()),
        json_str(&sys::git_commit()),
        out.failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
        samples.join(", ")
    )
}

/// Where a traced run writes its ledger.
pub fn ledger_path(cfg: &Config) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "ledger-{}-seed{}{}.json",
            cfg.workload.name(),
            cfg.seed,
            if cfg.tiny { "-tiny" } else { "" }
        ))
}
