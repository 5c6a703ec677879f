//! The whole set in one command, and the comparison of two sets.

use crate::json::{parse, Json};
use crate::metrics::{MetricDef, END_TO_END};
use crate::stats::{median, quartile_spread};
use crate::sut::BackendChoice;
use crate::workloads::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Length of a measured window when `--seconds` is not given; equals
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 24;

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The box the numbers come from.
fn box_stamp(seed: u64, seconds: u64, backend: BackendChoice) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "rev",
            Json::str(tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("backend", Json::str(backend.name())),
    ])
}

fn def_json(d: &MetricDef) -> Json {
    Json::obj([
        ("name", Json::str(d.name)),
        ("unit", Json::str(d.unit)),
        (
            "better",
            Json::str(if d.higher_is_better {
                "higher"
            } else {
                "lower"
            }),
        ),
        ("bound", d.bound.map_or(Json::Null, Json::Num)),
    ])
}

/// Runs one workload in a fresh process and returns its result line and
/// detail line, parsed.
fn child_run(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    backend: BackendChoice,
    trace: bool,
    out_dir: &Path,
) -> Result<(Json, Json), String> {
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--backend", backend.name()])
        .arg("--out-dir")
        .arg(out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no output"))
        .and_then(parse)?;
    let detail = lines
        .next()
        .and_then(|l| parse(l).ok())
        .and_then(|d| d.get("detail").cloned())
        .unwrap_or(Json::Null);
    Ok((result, detail))
}

/// Runs every workload `repeat` times, untraced then traced, each in a
/// fresh process; prints every metric by name with its unit and sample
/// count, and writes the set as JSON.
pub fn run_set(
    seed: u64,
    seconds: u64,
    backend: BackendChoice,
    repeat: usize,
    out: Option<PathBuf>,
    out_dir: &Path,
) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ivl-benchmark: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stamp = box_stamp(seed, seconds, backend);
    println!("box {}", stamp.render());
    let mut runs = Vec::new();
    let mut clean = true;
    for rep in 0..repeat {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let (result, detail) =
                    match child_run(&exe, workload, seed, seconds, backend, trace, out_dir) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("ivl-benchmark: {e}");
                            clean = false;
                            continue;
                        }
                    };
                let correct = result.get("correct") == Some(&Json::Bool(true));
                let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
                let attempted = result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(1.0);
                clean &= correct && failed == 0.0;
                println!(
                    "{workload} repeat {rep} trace {}: correct {correct}, fail_share {}",
                    u8::from(trace),
                    failed / attempted
                );
                let samples = detail.get("samples");
                for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                    let n = samples.and_then(|s| s.get(name)).and_then(Json::as_f64);
                    println!(
                        "  {name:<44} {:>16.6} {:<7} n={}",
                        m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                        m.get("unit").and_then(Json::as_str).unwrap_or("?"),
                        n.map_or("?".to_string(), |n| n.to_string())
                    );
                }
                for (name, m) in detail
                    .get("informational")
                    .and_then(Json::as_obj)
                    .unwrap_or(&[])
                {
                    println!(
                        "  {name:<44} {:>16.6} {:<7} (informational)",
                        m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                        m.get("unit").and_then(Json::as_str).unwrap_or("?"),
                    );
                }
                if let Some(path) = detail.get("write_path_us") {
                    println!("  write_path_us {}", path.render());
                }
                let mut run = vec![
                    ("workload".to_string(), Json::str(workload)),
                    ("repeat".to_string(), Json::Num(rep as f64)),
                    ("trace".to_string(), Json::Num(f64::from(u8::from(trace)))),
                ];
                if let Json::Obj(pairs) = result {
                    run.extend(pairs);
                }
                run.push(("detail".to_string(), detail));
                runs.push(Json::Obj(run));
            }
        }
    }
    let set = Json::obj([
        ("box", stamp),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(def_json).collect()),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    let path = out.unwrap_or_else(|| out_dir.join(format!("set-seed{seed}.json")));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, set.render() + "\n"));
    match written {
        Ok(()) => println!("set written to {}", path.display()),
        Err(e) => {
            eprintln!("ivl-benchmark: cannot write {}: {e}", path.display());
            clean = false;
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One side of a comparison: per (workload, metric) the values of the
/// untraced repeats, and per workload the failure share.
struct Side {
    values: Vec<((String, String), Vec<f64>)>,
    fail_share: Vec<(String, f64)>,
}

fn load_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\""))?;
    let mut side = Side {
        values: Vec::new(),
        fail_share: Vec::new(),
    };
    for (workload, _) in WORKLOADS {
        let mine: Vec<&Json> = runs
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
            .collect();
        let sum = |key: &str| -> f64 {
            mine.iter()
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum()
        };
        let incorrect = mine
            .iter()
            .any(|r| r.get("correct") != Some(&Json::Bool(true)));
        let share = if incorrect {
            1.0
        } else {
            sum("failed") / sum("attempted").max(1.0)
        };
        side.fail_share.push((workload.to_string(), share));
        for def in &END_TO_END {
            let values: Vec<f64> = mine
                .iter()
                .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
                .filter_map(|r| r.get("metrics")?.get(def.name)?.get("value")?.as_f64())
                .collect();
            side.values
                .push(((workload.to_string(), def.name.to_string()), values));
        }
    }
    Ok(side)
}

/// How one (metric, workload) row of a comparison reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The spread between repeats of either side exceeds the bound, so
    /// the row shows neither a regression nor its absence.
    Unresolved,
}

/// Judges one row: `a` and `b` are the repeats' values.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Option<(f64, f64, Verdict)> {
    let (ma, mb) = (median(a)?, median(b)?);
    let bound = def.bound?;
    let worse_by = if def.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let noisy = [a, b]
        .iter()
        .filter_map(|v| quartile_spread(v))
        .any(|spread| spread > bound);
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some((ma, mb, verdict))
}

/// Prints, per (metric, workload), both medians, their ratio with its
/// base, the bound and the verdict. Fails when any row is worse or a
/// workload's failure share rose.
pub fn compare(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load_side(path_a), load_side(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ivl-benchmark compare: {e}");
            return ExitCode::from(64);
        }
    };
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>12} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A (base A)", "bound"
    );
    let mut bad = false;
    for (((workload, metric), va), (_, vb)) in a.values.iter().zip(&b.values) {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == metric)
            .expect("rows come from the table");
        match judge(def, va, vb) {
            Some((ma, mb, verdict)) => {
                bad |= verdict == Verdict::Worse;
                println!(
                    "{workload:<14} {metric:<20} {ma:>14.6} {mb:>14.6} {:>12.4} {:>6.2}  {}",
                    mb / ma,
                    def.bound.unwrap_or(f64::NAN),
                    match verdict {
                        Verdict::Ok => "ok",
                        Verdict::Worse => "worse",
                        Verdict::Unresolved => "unresolved",
                    }
                );
            }
            None => {
                bad = true;
                println!("{workload:<14} {metric:<20} missing on one side");
            }
        }
    }
    for ((workload, fa), (_, fb)) in a.fail_share.iter().zip(&b.fail_share) {
        let rose = fb > fa;
        bad |= rose;
        println!(
            "{workload:<14} {:<20} {fa:>14.6} {fb:>14.6} {:>12} {:>6}  {}",
            "fail_share",
            "",
            "",
            if rose { "worse" } else { "ok" }
        );
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let def = |higher_is_better| MetricDef {
            name: "m",
            unit: "u",
            higher_is_better,
            bound: Some(0.10),
        };
        let (lower, higher) = (&def(false), &def(true));
        let steady = |v: f64| vec![v, v * 1.01, v * 0.99];
        // 5 % slower is inside a 10 % bound, 20 % slower is not.
        assert_eq!(
            judge(lower, &steady(100.0), &steady(105.0)).unwrap().2,
            Verdict::Ok
        );
        assert_eq!(
            judge(lower, &steady(100.0), &steady(120.0)).unwrap().2,
            Verdict::Worse
        );
        // Faster is never worse; for a rate, lower is the bad direction.
        assert_eq!(
            judge(lower, &steady(100.0), &steady(50.0)).unwrap().2,
            Verdict::Ok
        );
        assert_eq!(
            judge(higher, &steady(10.0), &steady(8.0)).unwrap().2,
            Verdict::Worse
        );
        assert_eq!(
            judge(higher, &steady(10.0), &steady(12.0)).unwrap().2,
            Verdict::Ok
        );
        // Repeats that disagree by more than the bound resolve nothing.
        let noisy = vec![80.0, 100.0, 130.0];
        assert_eq!(
            judge(lower, &noisy, &steady(120.0)).unwrap().2,
            Verdict::Unresolved
        );
        // One run a side has no spread to judge by, only the medians.
        assert_eq!(judge(lower, &[100.0], &[120.0]).unwrap().2, Verdict::Worse);
        assert!(judge(lower, &[], &[1.0]).is_none());
    }
}
