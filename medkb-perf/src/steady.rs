//! The steadiness command: run one workload several times, each with its
//! own seed, and print for every end-to-end metric the median, the
//! quartiles, the quartile spread and the largest deviation, each as a
//! share of the median, next to the metric's bound in `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use medkb_serve::http::Json;

use crate::stats::{median, quartiles};
use crate::Scale;

/// `BENCHMARK.json`, looked up in the working directory first and then
/// beside this crate.
fn benchmark_json() -> Result<Json, String> {
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("BENCHMARK.json"),
    ];
    let path = candidates
        .iter()
        .find(|p| p.is_file())
        .ok_or("BENCHMARK.json not found")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

/// One run's result line, parsed.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn parse_result(line: &str) -> Result<RunResult, String> {
    let doc = Json::parse(line)?;
    let num = |v: Option<&Json>| match v {
        Some(Json::Num(x)) => Ok(*x),
        _ => Err(format!("result line lacks a number: {line}")),
    };
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| num(m.get("value")).map(|v| (name.clone(), v)))
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(format!("result line lacks metrics: {line}")),
    };
    Ok(RunResult {
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: num(doc.get("attempted"))?,
        failed: num(doc.get("failed"))?,
        metrics,
    })
}

/// Run `workload` `runs` times with seeds 1..=runs and print the spread
/// of every end-to-end metric.
pub fn run(workload: &str, runs: usize, seconds: Option<f64>, scale: Scale) -> Result<(), String> {
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let bench = benchmark_json()?;
    let seconds = match seconds {
        Some(s) => s,
        None => bench
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("run_seconds missing")? as f64,
    };
    let bounds: Vec<(String, f64)> = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("end_to_end missing")?
        .iter()
        .filter_map(
            |m| match (m.get("name").and_then(Json::as_str), m.get("bound")) {
                (Some(n), Some(Json::Num(b))) => Some((n.to_string(), *b)),
                _ => None,
            },
        )
        .collect();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::with_capacity(runs);
    for seed in 1..=runs {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"]);
        if scale == Scale::Small {
            cmd.arg("--small");
        }
        let out = cmd.output().map_err(|e| format!("run seed {seed}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let result = parse_result(line).map_err(|e| {
            format!(
                "seed {seed} ({}): {e}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
        println!("seed {seed}: {line}");
        results.push(result);
    }

    println!("\n{workload}: {runs} runs, {seconds} s each");
    let shares: Vec<f64> = results.iter().map(|r| r.failed / r.attempted).collect();
    println!(
        "correct in {}/{runs} runs; failed share per run {:?}",
        results.iter().filter(|r| r.correct).count(),
        shares
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7}",
        "metric", "median", "q1", "q3", "spread", "maxdev", "bound"
    );
    for (name, bound) in &bounds {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        if values.len() < runs {
            return Err(format!(
                "{name} is missing from {} of {runs} result lines",
                runs - values.len()
            ));
        }
        let m = median(&values);
        let (q1, q3) = quartiles(&values);
        let maxdev = values.iter().map(|v| (v - m).abs()).fold(0.0, f64::max);
        println!(
            "{name:<16} {m:>12.4} {q1:>12.4} {q3:>12.4} {:>8.4} {:>8.4} {bound:>7.3}",
            (q3 - q1) / m,
            maxdev / m
        );
    }
    Ok(())
}
