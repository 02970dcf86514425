//! End-to-end and per-layer benchmark of the Swift-Sim simulator.
//!
//! ```sh
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4-1t --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Workloads (see `perfbench/CATALOG.md` for the full catalog):
//!
//! * `fig4-1t` — the paper's Fig. 4 experiment: 20 seeded apps × three
//!   presets at one thread, read from chunked binary trace files.
//! * `serve-sweep` — an in-process `serve` daemon driven closed-loop by two
//!   client connections submitting single-job specs over trace files.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics of
//! untraced runs; with `--trace 1` it carries the per-layer metrics of a
//! self-profiled run plus calls into each layer timed from outside. The
//! line before it is a `detail` object: seed, host, checks, per-(app,
//! preset) stat digests, and the layer metrics that exist on only one
//! workload. Every run works in a fresh scratch directory under
//! `.bench_tmp/` and deletes it on exit.

mod fig4;
mod inputs;
mod layers;
mod metrics;
mod serve;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use swiftsim_core::SimulatorPreset;
use swiftsim_metrics::Json;

/// The presets every workload runs, with their metric-name prefixes.
pub const PRESETS: [(SimulatorPreset, &str); 3] = [
    (SimulatorPreset::Detailed, "detailed"),
    (SimulatorPreset::SwiftBasic, "swift-basic"),
    (SimulatorPreset::SwiftMemory, "swift-memory"),
];

/// What every workload runner gets.
pub struct Ctx<'a> {
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub budget: Duration,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Fresh scratch directory of this run.
    pub scratch: &'a Path,
    /// When the run started.
    pub started: Instant,
}

impl Ctx<'_> {
    /// Print a progress line with the run's elapsed time to stderr.
    pub fn progress(&self, what: &str) {
        eprintln!(
            "perfbench: [{:6.1}s] {what}",
            self.started.elapsed().as_secs_f64()
        );
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory under the current directory, removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(".bench_tmp").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Output of a program run to completion, or `"unknown"`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_json() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::int(nproc as u64)),
        (
            "commit",
            Json::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = {
        let scratch = match Scratch::new() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: cannot create scratch directory: {e}");
                std::process::exit(1);
            }
        };
        let budget = Duration::from_secs(args.seconds);
        let ctx = Ctx {
            seed: args.seed,
            budget,
            traced: args.trace,
            scratch: scratch.path(),
            started: Instant::now(),
        };
        match args.workload.as_str() {
            "fig4-1t" => fig4::run(&ctx),
            "serve-sweep" => serve::run(&ctx),
            other => Err(format!("unknown workload {other:?}")),
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    match finish(&args, outcome) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Print the detail line and the result line.
fn finish(args: &Args, mut outcome: Outcome) -> Result<(), String> {
    let wanted: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let mut out = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in wanted {
        match outcome.take(name) {
            Some(value) => out.push((
                name.to_owned(),
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )),
            None => missing.push(name),
        }
    }
    let detail = Json::obj(vec![(
        "detail",
        Json::obj(vec![
            ("workload", Json::str(&args.workload)),
            ("seed", Json::int(args.seed)),
            ("seconds", Json::int(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("host", host_json()),
            ("failed_ratio", Json::Num(outcome.failed_ratio())),
            (
                "failures",
                Json::Arr(outcome.failures.iter().map(Json::str).collect()),
            ),
            ("checks", Json::Obj(outcome.checks.clone())),
            ("other_metrics", outcome.rest_json()),
            ("stat_digests", Json::Obj(outcome.digests.clone())),
        ]),
    )]);
    println!("{}", detail.dump());
    if !missing.is_empty() {
        return Err(format!("not measured: {}", missing.join(", ")));
    }
    let result = Json::obj(vec![
        (
            "correct",
            Json::Bool(outcome.failed == 0 && outcome.attempted > 0),
        ),
        ("attempted", Json::int(outcome.attempted)),
        ("failed", Json::int(outcome.failed)),
        ("metrics", Json::Obj(out)),
    ]);
    println!("{}", result.dump());
    Ok(())
}
