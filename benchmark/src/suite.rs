//! The multi-run modes: `suite` (what `run.sh` does by default) and the
//! off-contract `sweep`. Every run is a child process, so `peak_rss_mb`
//! is per workload and a crashed server's leaked threads end with it.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::bench::END_TO_END;
use crate::json::{self, Json};
use crate::workload::Kind;
use crate::{Flags, DEFAULT_SEED, QUICK_SECONDS, RUN_SECONDS};

/// The per-run record file a `run` leaves in the out directory.
pub fn run_file(kind: Kind, trace: bool) -> String {
    format!("run_{}_trace{}.json", kind.name(), trace as u8)
}

/// Spawn one `run` child; echo its metric lines; return its record
/// (`{trace, result, info}`).
fn run_child(kind: Kind, trace: bool, out: &Path, extra: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("run")
        .args([
            "--workload",
            kind.name(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(out)
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{} run failed ({})", kind.name(), output.status));
    }
    // The last line must be the contract's result object.
    let printed = json::parse(last).map_err(|e| format!("last line is not JSON: {e}: {last}"))?;
    let path = out.join(run_file(kind, trace));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let record = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if record.get("result") != Some(&printed) {
        return Err(format!(
            "{} differs from the printed result",
            path.display()
        ));
    }
    Ok(record)
}

fn metric(record: &Json, name: &str) -> Option<f64> {
    record
        .get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn is_correct(record: &Json) -> bool {
    record
        .get("result")
        .and_then(|r| r.get("correct"))
        .and_then(Json::as_bool)
        == Some(true)
}

/// The parts of a run's info that must repeat exactly on one commit.
fn result_digests(record: &Json) -> Vec<Json> {
    let info = record.get("info");
    let mut out: Vec<Json> = ["closed_results", "verify_results", "recovered_tuples"]
        .iter()
        .filter_map(|k| info?.get(k).cloned())
        .collect();
    if let Some(open) = info.and_then(|i| i.get("open")).and_then(Json::as_arr) {
        out.extend(open.iter().filter_map(|p| p.get("results").cloned()));
    }
    out
}

/// Regression bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
        })
        .collect()
}

pub fn suite_command(flags: &Flags) -> Result<i32, String> {
    flags.only(&[
        "workload",
        "seed",
        "quick",
        "repeat",
        "out",
        "benchmark-json",
    ])?;
    let out = flags.out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let kinds: Vec<Kind> = flags.workload()?.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let seed: u64 = flags.parsed("seed")?.unwrap_or(DEFAULT_SEED);
    let repeat: usize = flags.parsed("repeat")?.unwrap_or(1).max(1);
    let seconds = if flags.has("quick") {
        QUICK_SECONDS
    } else {
        RUN_SECONDS
    };
    let extra = [
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ];

    let mut ok = true;
    let mut sets: Vec<Vec<(Kind, Json, Json)>> = Vec::new();
    for set in 0..repeat {
        if repeat > 1 {
            println!("# set {} of {repeat}", set + 1);
        }
        // All workloads untraced, then the traced runs.
        let mut untraced = Vec::new();
        for &kind in &kinds {
            untraced.push(run_child(kind, false, &out, &extra)?);
        }
        let mut this = Vec::new();
        for (&kind, plain) in kinds.iter().zip(untraced) {
            let traced = run_child(kind, true, &out, &extra)?;
            for (record, what) in [(&plain, "untraced"), (&traced, "traced")] {
                if !is_correct(record) {
                    eprintln!("FAILED: the {what} run of {} is not correct", kind.name());
                    ok = false;
                }
            }
            this.push((kind, plain, traced));
        }
        sets.push(this);
    }

    // Repeated sets on one commit must agree: every end-to-end metric
    // within its bound, every result digest exactly.
    if repeat > 1 {
        let bounds = match flags.get("benchmark-json") {
            Some(path) => bounds(Path::new(path))?,
            None => return Err("--repeat needs --benchmark-json for the bounds".into()),
        };
        for set in &sets[1..] {
            for ((kind, first, _), (_, again, _)) in sets[0].iter().zip(set) {
                for (name, bound) in &bounds {
                    let (Some(a), Some(b)) = (metric(first, name), metric(again, name)) else {
                        eprintln!("FAILED: {} {name} is missing", kind.name());
                        ok = false;
                        continue;
                    };
                    let diff = (b - a).abs() / a.abs();
                    let verdict = if diff <= *bound { "ok" } else { "FAILED" };
                    println!(
                        "{} {name} repeat {a} vs {b}: {:.2}% (bound {:.0}%) {verdict}",
                        kind.name(),
                        diff * 100.0,
                        bound * 100.0
                    );
                    ok &= diff <= *bound;
                }
                if result_digests(first) != result_digests(again) {
                    eprintln!("FAILED: {} result digests differ between sets", kind.name());
                    ok = false;
                }
            }
        }
    }

    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "sets",
            Json::Arr(
                sets.iter()
                    .map(|set| {
                        Json::Arr(
                            set.iter()
                                .map(|(kind, plain, traced)| {
                                    Json::obj([
                                        ("workload", Json::str(kind.name())),
                                        ("end_to_end", plain.clone()),
                                        ("per_layer", traced.clone()),
                                    ])
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, results.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(if ok { 0 } else { 1 })
}

/// Off-contract: vary one dimension, everything else as in the
/// contract runs. Results go to their own file, never `results.json`.
pub fn sweep_command(flags: &Flags) -> Result<i32, String> {
    flags.only(&["sweep", "workload", "seed", "quick", "out"])?;
    let out = flags.out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let dimension = flags
        .get("sweep")
        .ok_or("sweep needs --sweep rate|queries|window")?;
    let seed: u64 = flags.parsed("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = if flags.has("quick") {
        QUICK_SECONDS
    } else {
        RUN_SECONDS
    };
    let chosen = flags.workload()?;
    // (workload, label of the varied value, extra arguments)
    let points: Vec<(Kind, String, Vec<String>)> = match dimension {
        "rate" => {
            let kind = chosen.unwrap_or(Kind::FanoutFilters);
            let nominal = kind.load().closed_tps as f64;
            [(0.2, 0.4), (0.5, 0.6), (0.7, 0.8), (0.9, 1.0)]
                .iter()
                .map(|(lo, hi)| {
                    let rates = format!("{},{}", nominal * lo, nominal * hi);
                    (kind, rates.clone(), vec!["--rates".to_string(), rates])
                })
                .collect()
        }
        "queries" => [32usize, 64, 128, 256, 512, 1024]
            .iter()
            .map(|n| {
                let args = vec!["--selections".to_string(), n.to_string()];
                (Kind::FanoutFilters, n.to_string(), args)
            })
            .collect(),
        "window" => {
            let kind = chosen.unwrap_or(Kind::SlidingAggregates);
            let load = kind.load();
            [1u64, 2, 4]
                .iter()
                .map(|k| {
                    // Wider windows cost proportionally more per tuple:
                    // offer proportionally less, so the load stays put.
                    let rates = format!("{},{}", load.rate_lo / k, load.rate_hi / k);
                    let args = vec![
                        "--window-scale".to_string(),
                        k.to_string(),
                        "--rates".to_string(),
                        rates,
                    ];
                    (kind, k.to_string(), args)
                })
                .collect()
        }
        other => return Err(format!("unknown sweep dimension {other:?}")),
    };
    let mut rows = Vec::new();
    for (kind, value, mut args) in points {
        println!("# sweep {dimension} = {value}");
        args.extend([
            "--seed".to_string(),
            seed.to_string(),
            "--seconds".to_string(),
            seconds.to_string(),
        ]);
        let record = run_child(kind, false, &out, &args)?;
        let metrics: Vec<(String, Json)> = END_TO_END
            .iter()
            .filter_map(|(name, _)| Some((name.to_string(), Json::Num(metric(&record, name)?))))
            .collect();
        rows.push(Json::obj([
            ("workload", Json::str(kind.name())),
            ("value", Json::str(value)),
            ("correct", Json::Bool(is_correct(&record))),
            ("metrics", Json::Obj(metrics)),
            (
                "open",
                record
                    .get("info")
                    .and_then(|i| i.get("open"))
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
        ]));
    }
    let doc = Json::obj([
        ("dimension", Json::str(dimension)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("points", Json::Arr(rows)),
    ]);
    let path = out.join(format!("sweep_{dimension}.json"));
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# sweep written to {}", path.display());
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{Metric, RunResult};

    /// What `run` writes, what `suite` reads: the record survives a
    /// write → parse round trip with every digit of every metric.
    #[test]
    fn result_record_round_trips() {
        let result = RunResult {
            workload: "fanout_filters",
            attempted: 1_234_567,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "throughput_tps".into(),
                    value: 127_337.123_456_789,
                    unit: "tuples/s",
                    n: 360_000,
                },
                Metric {
                    name: "latency_hi_p99_ms".into(),
                    value: 1.415_047,
                    unit: "ms",
                    n: 4_157_551,
                },
            ],
            problems: vec![],
            info: Json::obj([("closed_results", Json::obj([("rows", Json::Num(7.0))]))]),
        };
        let record = Json::obj([
            ("trace", Json::Bool(false)),
            ("result", result.to_json()),
            ("info", result.info.clone()),
        ]);
        let parsed = json::parse(&record.render()).unwrap();
        assert_eq!(parsed, record);
        assert!(is_correct(&parsed));
        assert_eq!(metric(&parsed, "throughput_tps"), Some(127_337.123_456_789));
        assert_eq!(metric(&parsed, "latency_hi_p99_ms"), Some(1.415_047));
        assert_eq!(metric(&parsed, "setup_s"), None);
        assert_eq!(result_digests(&parsed).len(), 1);
        let keys: Vec<&str> = parsed
            .get("result")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            result.lines()[0],
            "fanout_filters throughput_tps 127337.123456789 tuples/s n=360000"
        );
    }

    #[test]
    fn bounds_are_read_from_the_contract_file() {
        let dir = std::env::temp_dir().join(format!("tcq-bench-bounds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCHMARK.json");
        std::fs::write(
            &path,
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(bounds(&path).unwrap(), vec![("setup_s".to_string(), 0.25)]);
        std::fs::write(&path, r#"{"end_to_end": [{"name": "setup_s"}]}"#).unwrap();
        assert!(bounds(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
