//! `ivl-benchmark`: the repo's benchmark.
//!
//! ```text
//! ivl-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--backend B]
//!     one run of one workload in this process; the last line of
//!     standard output is {"correct", "attempted", "failed", "metrics"}
//! ivl-benchmark [--seed N] [--seconds S] [--backend B] [--repeat K] [--out FILE]
//!     the whole set: every workload, untraced then traced, each in a
//!     fresh process; prints every metric and writes FILE
//! ivl-benchmark compare A.json B.json
//!     two set files side by side, judged by the bounds
//! ```
//!
//! `benchmark/README.md` defines the workloads and every metric.

// One foreign call, in `affinity.rs`; everything else is safe code.
#![deny(unsafe_code)]

mod affinity;
mod drive;
mod gate;
mod gen;
mod json;
mod layers;
mod metrics;
mod report;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Json;
use metrics::Metric;
use run::{RunConfig, RunOutput};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    backend: sut::BackendChoice,
    repeat: usize,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

const USAGE: &str =
    "usage: ivl-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--backend event-loop|threaded] [--repeat K] [--out FILE] [--out-dir DIR]\n       \
ivl-benchmark compare A.json B.json";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: report::DEFAULT_SECONDS,
        trace: false,
        backend: sut::BackendChoice::EventLoop,
        repeat: 1,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => args.trace = number(value()?)? != 0,
            "--backend" => {
                let v = value()?;
                args.backend = sut::BackendChoice::parse(&v)
                    .ok_or_else(|| format!("unknown backend {v:?}"))?;
            }
            "--repeat" => args.repeat = number(value()?)?.max(1) as usize,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The contract's result line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.json()))
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// One workload, in this process, under a watchdog: a run that hangs
/// reports every attempt failed instead of hanging its caller.
fn single_run(args: &Args, workload: String) -> ExitCode {
    // Before any thread exists, so that servers and clients inherit it.
    let pinned = affinity::pin_to_one_cpu();
    if let Err(e) = &pinned {
        eprintln!("ivl-benchmark: running unpinned ({e}); expect bimodal round trips");
    }
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        backend: args.backend,
        out_dir: args.out_dir.clone(),
    };
    // Set-up, warm-up, windows, gate, probe and replay fit several
    // times over; the contract's limit is 180 s.
    let limit = Duration::from_secs((3 * cfg.seconds + 45).min(170));
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if finished.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("ivl-benchmark: no result after {limit:?}; giving up (fail_share = 1)");
            println!("{}", result_line(false, 1, 1, &[]));
            std::process::exit(3);
        }
    });
    let outcome = run::run(&cfg);
    drop(done);
    watchdog.join().expect("the watchdog does not panic");
    match outcome {
        Ok(RunOutput {
            attempted,
            failed,
            metrics,
            detail,
        }) => {
            let mut detail = detail;
            if let Json::Obj(pairs) = &mut detail {
                pairs.insert(0, ("workload".into(), Json::str(cfg.workload.clone())));
                pairs.insert(1, ("seed".into(), Json::Num(cfg.seed as f64)));
                pairs.insert(2, ("backend".into(), Json::str(cfg.backend.name())));
                pairs.insert(
                    3,
                    (
                        "client_threads".into(),
                        Json::Num(run::client_threads() as f64),
                    ),
                );
                pairs.insert(
                    4,
                    (
                        "pinned_cpu".into(),
                        pinned.map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
                    ),
                );
            }
            println!("{}", Json::obj([("detail", detail)]).render());
            println!("{}", result_line(true, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            // The gate (or the system) failed: no metrics are printed.
            eprintln!("ivl-benchmark: {}: {e}", cfg.workload);
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        return match files.as_slice() {
            [a, b] => report::compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(64)
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ivl-benchmark: {e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    match args.workload.clone() {
        Some(workload) => single_run(&args, workload),
        None => report::run_set(
            args.seed,
            args.seconds,
            args.backend,
            args.repeat,
            args.out,
            &args.out_dir,
        ),
    }
}

#[cfg(test)]
mod tests {
    /// The repo is touched through `sut.rs` and `layers.rs` only.
    #[test]
    fn only_the_adapter_files_name_the_repo_crates() {
        for (file, text) in [
            ("drive.rs", include_str!("drive.rs")),
            ("gate.rs", include_str!("gate.rs")),
            ("gen.rs", include_str!("gen.rs")),
            ("json.rs", include_str!("json.rs")),
            ("metrics.rs", include_str!("metrics.rs")),
            ("report.rs", include_str!("report.rs")),
            ("run.rs", include_str!("run.rs")),
            ("stats.rs", include_str!("stats.rs")),
            ("trace.rs", include_str!("trace.rs")),
            ("workloads.rs", include_str!("workloads.rs")),
        ] {
            assert!(
                !text.contains("ivl_"),
                "{file} names a repo crate; go through sut.rs"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = super::result_line(
            true,
            10,
            0,
            &[super::Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
                samples: 3,
            }],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }
}
