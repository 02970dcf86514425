//! Experiment harness shared by the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §2 for the index). This library holds the common sweep
//! logic: run a workload through the three simulator presets, compare
//! against the silicon oracle, and aggregate the error/speedup statistics
//! the paper reports.
//!
//! Environment knobs (all optional):
//!
//! * `SWIFTSIM_SCALE` — `tiny` / `small` / `paper` (default `small`;
//!   the committed EXPERIMENTS.md numbers use `paper`).
//! * `SWIFTSIM_APPS` — comma-separated subset of workload names.
//! * `SWIFTSIM_THREADS` — worker threads for the parallel runs
//!   (default `0` = auto: all cores, capped at the GPU's SM count by the
//!   simulator builder).

use std::time::Duration;
use swiftsim_config::GpuConfig;
use swiftsim_core::{run, RunOptions, SimulatorPreset};
use swiftsim_metrics::{geomean, mean};
use swiftsim_workloads::{silicon, Scale, Workload};

/// Scale/threads/app-subset configuration shared by all binaries.
#[derive(Debug, Clone)]
pub struct Knobs {
    /// Workload scale.
    pub scale: Scale,
    /// Threads for parallel hybrid runs.
    pub threads: usize,
    /// Workload subset (None = full suite).
    pub apps: Option<Vec<String>>,
}

impl Knobs {
    /// Read the environment knobs.
    pub fn from_env() -> Knobs {
        let scale = match std::env::var("SWIFTSIM_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("paper") => Scale::Paper,
            _ => Scale::Small,
        };
        let threads = std::env::var("SWIFTSIM_THREADS")
            .ok()
            .and_then(|t| t.parse().ok())
            .unwrap_or(0);
        let apps = std::env::var("SWIFTSIM_APPS").ok().map(|s| {
            s.split(',')
                .map(|a| a.trim().to_owned())
                .filter(|a| !a.is_empty())
                .collect()
        });
        Knobs {
            scale,
            threads,
            apps,
        }
    }

    /// The workloads this run covers.
    pub fn workloads(&self) -> Vec<Workload> {
        let all = swiftsim_workloads::suite();
        match &self.apps {
            Some(filter) => all
                .into_iter()
                .filter(|w| filter.iter().any(|f| f == w.name))
                .collect(),
            None => all,
        }
    }

    /// Human-readable description for report headers.
    pub fn describe(&self) -> String {
        format!(
            "scale={:?} threads={} apps={}",
            self.scale,
            self.threads,
            self.apps
                .as_ref()
                .map_or_else(|| "all".to_owned(), |a| a.join(","))
        )
    }
}

/// One preset's measurement on one application.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Predicted execution cycles.
    pub cycles: u64,
    /// Host wall-clock time of the simulation.
    pub wall: Duration,
}

/// All measurements for one application on one GPU.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Application name.
    pub app: &'static str,
    /// Detailed baseline (the Accel-Sim stand-in), single-threaded.
    pub detailed: Measurement,
    /// Swift-Sim-Basic, single-threaded.
    pub basic_1t: Measurement,
    /// Swift-Sim-Memory, single-threaded.
    pub memory_1t: Measurement,
    /// Swift-Sim-Basic, parallel.
    pub basic_mt: Measurement,
    /// Swift-Sim-Memory, parallel.
    pub memory_mt: Measurement,
    /// The silicon oracle's "measured hardware" cycles.
    pub hardware: u64,
}

impl AppResult {
    /// Relative prediction error of a measurement against the oracle.
    pub fn error(&self, m: Measurement) -> f64 {
        swiftsim_metrics::rel_error(m.cycles as f64, self.hardware as f64)
    }

    /// Wall-clock speedup of `m` over the detailed baseline.
    pub fn speedup(&self, m: Measurement) -> f64 {
        self.detailed.wall.as_secs_f64() / m.wall.as_secs_f64().max(1e-9)
    }
}

fn run_one(
    gpu: &GpuConfig,
    preset: SimulatorPreset,
    threads: usize,
    app: &swiftsim_trace::ApplicationTrace,
) -> Measurement {
    let options = RunOptions::default()
        .with_preset(preset)
        .with_threads(threads);
    let result = run(app, gpu, &options).expect("benchmark simulation completes");
    Measurement {
        cycles: result.cycles,
        wall: result.wall_time,
    }
}

/// Run the full three-simulator sweep for one workload on one GPU.
pub fn sweep_app(gpu: &GpuConfig, workload: &Workload, knobs: &Knobs) -> AppResult {
    let app = workload.generate(knobs.scale);
    let detailed = run_one(gpu, SimulatorPreset::Detailed, 1, &app);
    let basic_1t = run_one(gpu, SimulatorPreset::SwiftBasic, 1, &app);
    let memory_1t = run_one(gpu, SimulatorPreset::SwiftMemory, 1, &app);
    let (basic_mt, memory_mt) = if knobs.threads != 1 {
        (
            run_one(gpu, SimulatorPreset::SwiftBasic, knobs.threads, &app),
            run_one(gpu, SimulatorPreset::SwiftMemory, knobs.threads, &app),
        )
    } else {
        (basic_1t, memory_1t)
    };
    let hardware = silicon::hardware_cycles(workload.name, &gpu.name, detailed.cycles);
    AppResult {
        app: workload.name,
        detailed,
        basic_1t,
        memory_1t,
        basic_mt,
        memory_mt,
        hardware,
    }
}

/// Accuracy-only sweep (Fig. 6 does not need wall-clock numbers, so the
/// parallel runs are skipped).
pub fn sweep_app_accuracy(gpu: &GpuConfig, workload: &Workload, scale: Scale) -> AppResult {
    let app = workload.generate(scale);
    let detailed = run_one(gpu, SimulatorPreset::Detailed, 1, &app);
    let basic_1t = run_one(gpu, SimulatorPreset::SwiftBasic, 1, &app);
    let memory_1t = run_one(gpu, SimulatorPreset::SwiftMemory, 1, &app);
    let hardware = silicon::hardware_cycles(workload.name, &gpu.name, detailed.cycles);
    AppResult {
        app: workload.name,
        detailed,
        basic_1t,
        memory_1t,
        basic_mt: basic_1t,
        memory_mt: memory_1t,
        hardware,
    }
}

// ---------------------------------------------------------------------------
// Sweep cache
// ---------------------------------------------------------------------------
//
// Detailed-baseline simulations are expensive and four figure binaries need
// the same numbers, so finished sweeps are cached as tab-separated rows
// under `target/swiftsim-sweeps/`. Delete that directory after changing
// simulator code.
//
// Rows are tagged with a version; lookups ignore rows from other versions.
// v2: the event-driven cycle-skipping engine replaced the stat-free idle
// jump — predictions are unchanged, wall-clock columns are not.
const CACHE_TAG: &str = "v2";

fn cache_path(gpu: &GpuConfig, scale: Scale) -> std::path::PathBuf {
    let gpu_slug: String = gpu
        .name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    std::path::PathBuf::from(format!("target/swiftsim-sweeps/{gpu_slug}-{scale:?}.tsv"))
}

fn measurement_to_fields(m: Measurement) -> String {
    format!("{}\t{}", m.cycles, m.wall.as_micros())
}

fn fields_to_measurement(cycles: &str, wall_us: &str) -> Option<Measurement> {
    Some(Measurement {
        cycles: cycles.parse().ok()?,
        wall: Duration::from_micros(wall_us.parse().ok()?),
    })
}

fn cache_lookup(gpu: &GpuConfig, scale: Scale, app: &str, threads: usize) -> Option<AppResult> {
    let text = std::fs::read_to_string(cache_path(gpu, scale)).ok()?;
    let app_static = swiftsim_workloads::suite()
        .into_iter()
        .find(|w| w.name == app)?
        .name;
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() == 14 && f[13] == CACHE_TAG && f[0] == app && f[1] == threads.to_string() {
            return Some(AppResult {
                app: app_static,
                detailed: fields_to_measurement(f[2], f[3])?,
                basic_1t: fields_to_measurement(f[4], f[5])?,
                memory_1t: fields_to_measurement(f[6], f[7])?,
                basic_mt: fields_to_measurement(f[8], f[9])?,
                memory_mt: fields_to_measurement(f[10], f[11])?,
                hardware: f[12].parse().ok()?,
            });
        }
    }
    None
}

fn cache_store(gpu: &GpuConfig, scale: Scale, threads: usize, r: &AppResult) {
    let path = cache_path(gpu, scale);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let row = format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{CACHE_TAG}\n",
        r.app,
        threads,
        measurement_to_fields(r.detailed),
        measurement_to_fields(r.basic_1t),
        measurement_to_fields(r.memory_1t),
        measurement_to_fields(r.basic_mt),
        measurement_to_fields(r.memory_mt),
        r.hardware,
    );
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = f.write_all(row.as_bytes());
    }
}

/// [`sweep_app`] with a disk cache keyed by (GPU, scale, threads, app).
pub fn sweep_app_cached(gpu: &GpuConfig, workload: &Workload, knobs: &Knobs) -> AppResult {
    if let Some(hit) = cache_lookup(gpu, knobs.scale, workload.name, knobs.threads) {
        return hit;
    }
    let r = sweep_app(gpu, workload, knobs);
    cache_store(gpu, knobs.scale, knobs.threads, &r);
    r
}

/// [`sweep_app_accuracy`] with the same cache (any thread count's row has
/// the single-threaded accuracy fields).
pub fn sweep_app_accuracy_cached(gpu: &GpuConfig, workload: &Workload, scale: Scale) -> AppResult {
    for threads in [1usize, 0] {
        if let Some(hit) = cache_lookup(gpu, scale, workload.name, threads) {
            return hit;
        }
    }
    // Fall back to any cached thread count: the 1-thread fields match.
    if let Ok(text) = std::fs::read_to_string(cache_path(gpu, scale)) {
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() == 14 && f[13] == CACHE_TAG && f[0] == workload.name {
                if let Ok(threads) = f[1].parse::<usize>() {
                    if let Some(hit) = cache_lookup(gpu, scale, workload.name, threads) {
                        return hit;
                    }
                }
            }
        }
    }
    let r = sweep_app_accuracy(gpu, workload, scale);
    cache_store(gpu, scale, 0, &r);
    r
}

/// Mean of a per-app statistic.
pub fn mean_of(results: &[AppResult], f: impl Fn(&AppResult) -> f64) -> f64 {
    mean(&results.iter().map(f).collect::<Vec<_>>())
}

/// Geometric mean of a per-app statistic.
pub fn geomean_of(results: &[AppResult], f: impl Fn(&AppResult) -> f64) -> f64 {
    geomean(&results.iter().map(f).collect::<Vec<_>>())
}

/// The checked-out commit, marked `-dirty` when the tree has uncommitted
/// changes, or `"unknown"` outside a git checkout.
pub fn describe_commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn tiny_knobs() -> Knobs {
        Knobs {
            scale: Scale::Tiny,
            threads: 1,
            apps: Some(vec!["nw".to_owned()]),
        }
    }

    #[test]
    fn sweep_produces_consistent_result() {
        let knobs = tiny_knobs();
        let mut gpu = presets::rtx2080ti();
        gpu.num_sms = 4;
        gpu.memory.partitions = 4;
        let w = &knobs.workloads()[0];
        let r = sweep_app(&gpu, w, &knobs);
        assert_eq!(r.app, "nw");
        assert!(r.detailed.cycles > 0);
        assert!(r.hardware > 0);
        assert!(r.error(r.basic_1t) >= 0.0);
        assert!(r.speedup(r.memory_1t) > 0.0);
    }

    #[test]
    fn knobs_filter_workloads() {
        let knobs = tiny_knobs();
        let ws = knobs.workloads();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].name, "nw");
        assert!(knobs.describe().contains("nw"));
    }

    #[test]
    fn aggregates_work() {
        let m = Measurement {
            cycles: 100,
            wall: Duration::from_millis(10),
        };
        let r = AppResult {
            app: "x",
            detailed: Measurement {
                cycles: 100,
                wall: Duration::from_millis(100),
            },
            basic_1t: m,
            memory_1t: m,
            basic_mt: m,
            memory_mt: m,
            hardware: 80,
        };
        let rs = vec![r];
        assert!((mean_of(&rs, |r| r.error(r.basic_1t)) - 0.25).abs() < 1e-12);
        assert!((geomean_of(&rs, |r| r.speedup(r.basic_1t)) - 10.0).abs() < 1e-9);
    }
}
