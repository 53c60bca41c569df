//! Benchmark entry point.
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench run -- \
//!     --workload study_quick|campaign_journaled|serve_paper \
//!     --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! Prints the machine stamp, then as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes the layer ledger to `perfbench/out/`. Exits 1 when a
//! correctness check fails, 2 on bad arguments.

use perfbench::{ledger_path, result_json, run, stamp_json, Config};

fn main() {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: run --workload study_quick|campaign_journaled|serve_paper \
                 --seed N --seconds S --trace 0|1 [--tiny]"
            );
            std::process::exit(2);
        }
    };
    let out = run(&cfg);
    let stamp = stamp_json(&cfg, &out);
    if let Some(ledger) = &out.ledger {
        let path = ledger_path(&cfg);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        }
        std::fs::write(&path, ledger.to_json(&stamp, &out.metrics))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprint!("{}", ledger.summary());
        eprintln!("perfbench: ledger written to {}", path.display());
    }
    for failure in &out.failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    println!("{{\"stamp\": {stamp}}}");
    println!("{}", result_json(&out));
    if !out.correct() {
        std::process::exit(1);
    }
}
