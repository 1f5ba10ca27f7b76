//! The repo benchmark for telegraphcq-rs. See `README.md` beside
//! `Cargo.toml`; `run.sh` is the entry point.
//!
//! * `run`   — one workload, one process, one JSON result line (the
//!   `BENCHMARK.json` contract).
//! * `suite` — every workload untraced then traced, each in its own
//!   child process; prints every metric, writes `out/results.json`,
//!   and with `--repeat K` checks the sets agree.
//! * `sweep` — off-contract: one dimension varied at a time.

mod bench;
mod engine;
mod json;
mod reference;
mod replay;
mod seams;
mod source;
mod stats;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;

use bench::RunArgs;
use workload::{Kind, Shape};

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 20_030_105;
/// `run_seconds` of `BENCHMARK.json`; `--quick` runs use [`QUICK_SECONDS`].
pub const RUN_SECONDS: f64 = 24.0;
/// One-second open phases (`seconds × 5/12`).
pub const QUICK_SECONDS: f64 = 2.4;

/// Command-line flags: `--name value` pairs and bare `--name` switches.
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if switches.contains(&name) {
                out.push((name.to_string(), None));
            } else {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                out.push((name.to_string(), Some(value.clone())));
            }
        }
        Ok(Flags(out))
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }

    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or("benchmark/out"))
    }

    pub fn workload(&self) -> Result<Option<Kind>, String> {
        self.get("workload")
            .map(|name| Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}")))
            .transpose()
    }
}

fn run_command(flags: &Flags) -> Result<i32, String> {
    flags.only(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "out",
        "rates",
        "selections",
        "window-scale",
    ])?;
    let kind = flags.workload()?.ok_or("run needs --workload")?;
    let seconds: f64 = flags.parsed("seconds")?.unwrap_or(RUN_SECONDS);
    if !(0.5..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0.5..=60"));
    }
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let rates = flags
        .get("rates")
        .map(|v| {
            let (lo, hi) = v.split_once(',').ok_or("--rates takes lo,hi")?;
            let num = |s: &str| {
                s.parse::<f64>()
                    .map_err(|_| format!("--rates: cannot read {s:?}"))
            };
            Ok::<_, String>((num(lo)?, num(hi)?))
        })
        .transpose()?;
    let mut shape = Shape::default();
    if let Some(n) = flags.parsed("selections")? {
        shape.selections = n;
    }
    if let Some(k) = flags.parsed("window-scale")? {
        shape.window_scale = k;
    }
    let args = RunArgs {
        kind,
        seed: flags.parsed("seed")?.unwrap_or(DEFAULT_SEED),
        seconds,
        trace,
        out_dir: flags.out_dir(),
        shape,
        rates,
    };
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let result = bench::run(&args)?;
    for line in result.lines() {
        println!("{line}");
    }
    for p in &result.problems {
        eprintln!("PROBLEM {}: {p}", result.workload);
    }
    let record = json::Json::obj([
        ("trace", json::Json::Bool(trace)),
        ("result", result.to_json()),
        ("info", result.info.clone()),
    ]);
    let path = args.out_dir.join(suite::run_file(kind, trace));
    std::fs::write(&path, record.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    // The contract: the result object is the last line of stdout.
    println!("{}", result.to_json().render());
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => Flags::parse(rest, &[]).and_then(|f| run_command(&f)),
        Some((cmd, rest)) if cmd == "suite" => {
            Flags::parse(rest, &["quick"]).and_then(|f| suite::suite_command(&f))
        }
        Some((cmd, rest)) if cmd == "sweep" => {
            Flags::parse(rest, &["quick"]).and_then(|f| suite::sweep_command(&f))
        }
        _ => Err("usage: tcq-benchmark run|suite|sweep [options] (see benchmark/README.md)".into()),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("tcq-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
