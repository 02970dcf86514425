//! Core-speed benchmark: dense per-cycle ticking vs the event-driven
//! cycle-skipping engine, across the Fig. 4/5 workload suite and all three
//! presets. Each (workload, preset, clock) cell runs in its own child
//! process so the wall-clock measurements never share a warmed-up
//! allocator or page cache. The driver asserts that both clocks predict
//! bit-identical cycles and instruction counts (the differential suite in
//! `crates/core/tests/event_engine_equiv.rs` is the fine-grained gate on
//! the full statistics) and records the comparison in
//! `BENCH_core_speed.json`, together with the host's core count and the
//! measured commit (`git describe --always --dirty`).
//!
//! ```sh
//! cargo run --release -p swiftsim-bench --bin core_speed
//! SWIFTSIM_SCALE=tiny SWIFTSIM_APPS=nw,bfs \
//!   cargo run --release -p swiftsim-bench --bin core_speed
//! ```

use std::time::Instant;
use swiftsim_bench::{describe_commit, Knobs};
use swiftsim_core::{FidelityConfig, GpuSimulator, RunOptions, SimulatorPreset, SkipPolicy};
use swiftsim_metrics::geomean;
use swiftsim_trace::ApplicationTrace;

const MODE_ENV: &str = "SWIFTSIM_CORE_SPEED_MODE";
const TRACE_ENV: &str = "SWIFTSIM_CORE_SPEED_TRACE";
const PRESET_ENV: &str = "SWIFTSIM_CORE_SPEED_PRESET";

const PRESETS: [(SimulatorPreset, &str); 3] = [
    (SimulatorPreset::Detailed, "detailed"),
    (SimulatorPreset::SwiftBasic, "swift_basic"),
    (SimulatorPreset::SwiftMemory, "swift_memory"),
];

fn small_gpu() -> swiftsim_config::GpuConfig {
    let mut cfg = swiftsim_config::presets::rtx2080ti();
    cfg.num_sms = 8;
    cfg.memory.partitions = 4;
    cfg
}

fn preset_from_token(token: &str) -> SimulatorPreset {
    PRESETS
        .iter()
        .find(|(_, t)| *t == token)
        .map(|(p, _)| *p)
        .unwrap_or_else(|| panic!("unknown preset token {token:?}"))
}

/// Child process: load the trace eagerly, run it once under the requested
/// clock, report measurements as `key=value` stdout lines. The trace is
/// decoded before the clock starts so only the simulation core is timed.
fn run_child(mode: &str, preset: &str, path: &str) {
    let mut fidelity = FidelityConfig::for_preset(preset_from_token(preset));
    fidelity.skip_policy = match mode {
        "dense" => SkipPolicy::Dense,
        "event" => SkipPolicy::EventDriven,
        other => panic!("unknown clock mode {other:?}"),
    };
    let sim = GpuSimulator::try_new(small_gpu(), &RunOptions::default().with_fidelity(fidelity))
        .expect("valid config");
    let app = ApplicationTrace::read_binary_file(path).expect("read trace");

    let t0 = Instant::now();
    let result = sim.run(&app).expect("benchmark run");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!("cycles={}", result.cycles);
    println!("insts={}", result.instructions());
    println!("wall_ms={wall_ms:.3}");
}

#[derive(Debug, Clone, Copy)]
struct Measurement {
    cycles: u64,
    insts: u64,
    wall_ms: f64,
}

/// Spawn this binary again for one (clock, preset) cell and parse its report.
fn measure(mode: &str, preset: &str, path: &std::path::Path) -> Measurement {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .env(MODE_ENV, mode)
        .env(PRESET_ENV, preset)
        .env(TRACE_ENV, path)
        .output()
        .expect("spawn core-speed child");
    assert!(
        out.status.success(),
        "{mode}/{preset} child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| -> f64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("{mode}/{preset} child did not report {key}: {stdout}"))
            .parse()
            .expect("numeric field")
    };
    Measurement {
        cycles: field("cycles") as u64,
        insts: field("insts") as u64,
        wall_ms: field("wall_ms"),
    }
}

/// One finished (workload, preset) comparison.
struct Cell {
    app: &'static str,
    preset: &'static str,
    cycles: u64,
    dense_ms: f64,
    event_ms: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.dense_ms / self.event_ms.max(1e-6)
    }
}

fn main() {
    // Child mode: one measured run, then exit.
    if let Ok(mode) = std::env::var(MODE_ENV) {
        let preset = std::env::var(PRESET_ENV).expect("preset env");
        let path = std::env::var(TRACE_ENV).expect("trace path env");
        run_child(&mode, &preset, &path);
        return;
    }

    let knobs = Knobs::from_env();
    let workloads = knobs.workloads();
    assert!(!workloads.is_empty(), "no workloads selected");
    eprintln!(
        "core-speed sweep: dense vs event-driven clock [{}]",
        knobs.describe()
    );

    let dir = std::env::temp_dir().join(format!("swiftsim-core-speed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let mut cells: Vec<Cell> = Vec::new();
    for w in &workloads {
        let app = w.generate(knobs.scale);
        let path = dir.join(format!("{}.sstraceb", w.name));
        app.write_binary_file(&path).expect("write trace");
        drop(app); // the children load it themselves

        for (_, token) in PRESETS {
            let dense = measure("dense", token, &path);
            let event = measure("event", token, &path);
            assert_eq!(
                dense.cycles, event.cycles,
                "{}/{token}: the two clocks must predict identical cycles",
                w.name
            );
            assert_eq!(
                dense.insts, event.insts,
                "{}/{token}: the two clocks must retire identical instruction counts",
                w.name
            );
            eprintln!(
                "  {:<12} {:<12} {:>12} cycles  dense {:>9.1} ms  event {:>9.1} ms  {:>6.2}x",
                w.name,
                token,
                dense.cycles,
                dense.wall_ms,
                event.wall_ms,
                dense.wall_ms / event.wall_ms.max(1e-6),
            );
            cells.push(Cell {
                app: w.name,
                preset: token,
                cycles: dense.cycles,
                dense_ms: dense.wall_ms,
                event_ms: event.wall_ms,
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let geo: Vec<(&str, f64)> = PRESETS
        .iter()
        .map(|(_, token)| {
            let speedups: Vec<f64> = cells
                .iter()
                .filter(|c| c.preset == *token)
                .map(Cell::speedup)
                .collect();
            (*token, geomean(&speedups))
        })
        .collect();

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"core_speed\",\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"commit\": \"{}\",\n", describe_commit()));
    json.push_str(&format!("  \"scale\": \"{:?}\",\n", knobs.scale));
    json.push_str(&format!("  \"apps\": {},\n", workloads.len()));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"app\": \"{}\", \"preset\": \"{}\", \"cycles\": {}, \
             \"dense_wall_ms\": {:.3}, \"event_wall_ms\": {:.3}, \"speedup\": {:.3} }}{}\n",
            c.app,
            c.preset,
            c.cycles,
            c.dense_ms,
            c.event_ms,
            c.speedup(),
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"geomean_speedup\": {\n");
    for (i, (token, g)) in geo.iter().enumerate() {
        json.push_str(&format!(
            "    \"{token}\": {g:.3}{}\n",
            if i + 1 == geo.len() { "" } else { "," }
        ));
    }
    json.push_str("  }\n}\n");

    let out_path =
        std::env::var("SWIFTSIM_CORE_SPEED_OUT").unwrap_or_else(|_| "BENCH_core_speed.json".into());
    std::fs::write(&out_path, &json).expect("write bench json");

    println!("{json}");
    for (token, g) in &geo {
        println!("{token}: event-driven clock is {g:.2}x dense ({out_path})");
    }
    let detailed_geo = geo
        .iter()
        .find(|(t, _)| *t == "detailed")
        .map(|(_, g)| *g)
        .unwrap_or(0.0);
    if detailed_geo < 1.5 {
        eprintln!(
            "WARNING: detailed-preset geomean speedup {detailed_geo:.2}x below the 1.5x target"
        );
    }
}
