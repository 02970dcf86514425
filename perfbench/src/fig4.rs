//! The `fig4-1t` workload: the paper's Fig. 4 experiment. All 20 seeded
//! apps run under the three presets at one thread from chunked binary
//! trace files, pass after pass, until the time budget is spent.

use crate::layers::{self, ProfSum, TracedPass, TwoThreadInput};
use crate::metrics::{
    mape_pct, peak_rss_mb, record_end_to_end, reset_peak_rss, stats_digest, Outcome, PassTimes,
    RefCounts, TimedOp,
};
use crate::{inputs, Ctx, PRESETS};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use swiftsim_config::GpuConfig;
use swiftsim_core::{GpuSimulator, RunOptions, SimulatorPreset};
use swiftsim_metrics::Json;
use swiftsim_trace::open_trace;
use swiftsim_workloads::Scale;

struct App {
    name: &'static str,
    path: PathBuf,
    insts: u64,
    /// Cycles of the one-thread in-memory reference run, per preset.
    ref_cycles: [Option<u64>; 3],
}

/// One simulation call of a pass.
struct Op {
    preset: usize,
    secs: f64,
    insts: u64,
    cycles: u64,
    prof: Option<ProfSum>,
}

struct Pass {
    wall: f64,
    setup: f64,
    rss_mb: f64,
    traced: bool,
    ops: Vec<Op>,
}

fn options(preset: SimulatorPreset, profile: bool) -> RunOptions {
    RunOptions::default()
        .with_preset(preset)
        .with_profile(profile)
}

/// Generate the seeded apps, run the untimed in-memory reference of every
/// (app, preset) and write each app's trace file. Deterministic work
/// counts and the cycle error come from the reference runs.
fn prepare(ctx: &Ctx, gpu: &GpuConfig, outcome: &mut Outcome) -> Result<Vec<App>, String> {
    let dir = ctx.scratch.join("fig4");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut apps = Vec::new();
    let mut counts = RefCounts::default();
    for w in swiftsim_workloads::suite() {
        let trace = inputs::seeded_app(&w, Scale::Small, ctx.seed);
        let mut ref_cycles = [None; 3];
        for (p, (preset, label)) in PRESETS.iter().enumerate() {
            match swiftsim_core::run(&trace, gpu, &options(*preset, false)) {
                Ok(r) => {
                    ref_cycles[p] = Some(r.cycles);
                    counts.add(p, &r);
                    let digest = Json::str(stats_digest(&r));
                    outcome
                        .digests
                        .push((format!("{}/{label}", w.name), digest));
                }
                Err(e) => outcome.op(Some(format!("{}/{label} reference: {e}", w.name))),
            }
        }
        let path = dir.join(format!("{}.sstraceb", w.name));
        trace.write_binary_file(&path).map_err(|e| e.to_string())?;
        apps.push(App {
            name: w.name,
            path,
            insts: trace.num_insts(),
            ref_cycles,
        });
    }
    counts.record(outcome);
    for p in 1..PRESETS.len() {
        let pairs: Vec<(f64, f64)> = apps
            .iter()
            .filter_map(|a| Some((a.ref_cycles[p]? as f64, a.ref_cycles[0]? as f64)))
            .collect();
        outcome.set_cycles_err(p, mape_pct(&pairs));
    }
    Ok(apps)
}

/// One pass: build the three simulators, then open every trace file and
/// run it under each, checking instructions against the trace and cycles
/// against the in-memory reference.
fn run_pass(
    gpu: &GpuConfig,
    apps: &[App],
    traced: bool,
    outcome: &mut Outcome,
) -> Result<Pass, String> {
    reset_peak_rss()?;
    let started = Instant::now();
    let mut setup = Duration::ZERO;
    let mut sims = Vec::new();
    for (preset, _) in PRESETS {
        let cfg = gpu.clone();
        let opts = options(preset, traced);
        let t0 = Instant::now();
        let sim = GpuSimulator::try_new(cfg, &opts);
        setup += t0.elapsed();
        sims.push(sim);
    }
    let mut ops = Vec::new();
    for app in apps {
        let t0 = Instant::now();
        let source = open_trace(&app.path);
        setup += t0.elapsed();
        let source = match source {
            Ok(s) => s,
            Err(e) => {
                for (_, label) in PRESETS {
                    outcome.op(Some(format!("{}/{label}: open: {e}", app.name)));
                }
                continue;
            }
        };
        for (p, sim) in sims.iter().enumerate() {
            let label = PRESETS[p].1;
            let t0 = Instant::now();
            let result = match sim {
                Ok(sim) => sim.run(&*source),
                Err(e) => Err(e.clone()),
            };
            let secs = t0.elapsed().as_secs_f64();
            let op = match result {
                Ok(r) => {
                    let err = if r.instructions() != app.insts {
                        Some(format!(
                            "{}/{label}: simulated {} instructions of {}",
                            app.name,
                            r.instructions(),
                            app.insts
                        ))
                    } else if app.ref_cycles[p] != Some(r.cycles) {
                        Some(format!(
                            "{}/{label}: {} cycles from the file, {:?} in memory",
                            app.name, r.cycles, app.ref_cycles[p]
                        ))
                    } else {
                        None
                    };
                    outcome.op(err);
                    Op {
                        preset: p,
                        secs,
                        insts: r.instructions(),
                        cycles: r.cycles,
                        prof: r.profile.as_ref().map(ProfSum::of),
                    }
                }
                Err(e) => {
                    outcome.op(Some(format!("{}/{label}: {e}", app.name)));
                    Op {
                        preset: p,
                        secs: f64::INFINITY,
                        insts: 0,
                        cycles: 0,
                        prof: None,
                    }
                }
            };
            ops.push(op);
        }
    }
    Ok(Pass {
        wall: started.elapsed().as_secs_f64(),
        setup: setup.as_secs_f64(),
        rss_mb: peak_rss_mb()?,
        traced,
        ops,
    })
}

/// Run `fig4-1t` for the context's budget.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let gpu = swiftsim_config::presets::rtx2080ti();
    let mut outcome = Outcome::default();
    let apps = prepare(ctx, &gpu, &mut outcome)?;
    ctx.progress(&format!("fig4-1t: {} apps ready", apps.len()));

    // A first, unrecorded pass warms the host up; its outputs are still
    // checked. Traced runs then alternate untraced and traced passes so
    // both see the same host conditions; the difference is the profiler's
    // overhead.
    run_pass(&gpu, &apps, false, &mut outcome)?;
    let deadline = Instant::now() + ctx.budget;
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = ctx.traced && passes.len() % 2 == 1;
        passes.push(run_pass(&gpu, &apps, traced, &mut outcome)?);
        let enough = !ctx.traced || passes.len() >= 2;
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    ctx.progress(&format!("fig4-1t: {} passes", passes.len()));
    outcome.check("passes", Json::int(passes.len() as u64));

    let untraced: Vec<PassTimes> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| PassTimes {
            wall: p.wall,
            setup: p.setup,
            rss_mb: p.rss_mb,
            ops: p
                .ops
                .iter()
                .map(|o| TimedOp {
                    preset: o.preset,
                    secs: o.secs,
                    insts: o.insts,
                    cached: false,
                })
                .collect(),
        })
        .collect();
    record_end_to_end(&mut outcome, &untraced);

    if ctx.traced {
        let traced: Vec<TracedPass> = passes
            .iter()
            .filter(|p| p.traced)
            .map(|pass| {
                let mut t = TracedPass::default();
                for o in &pass.ops {
                    if let Some(prof) = &o.prof {
                        t.rows[o.preset].add(prof);
                    }
                    t.wall_ms[o.preset] += o.secs * 1e3;
                    t.sim_cycles[o.preset] += o.cycles;
                }
                t
            })
            .collect();
        layers::record_profile(&mut outcome, &traced);
        let walls: Vec<(bool, f64)> = passes.iter().map(|p| (p.traced, p.wall)).collect();
        layers::record_overhead(&mut outcome, &walls);
        let paths: Vec<PathBuf> = apps.iter().map(|a| a.path.clone()).collect();
        layers::probe(&mut outcome, &gpu, &paths)?;
        let two_thread: Vec<TwoThreadInput> = apps
            .iter()
            .map(|a| TwoThreadInput {
                app: a.name,
                path: a.path.clone(),
                ref_cycles: a.ref_cycles[0],
            })
            .collect();
        layers::two_thread_probe(&mut outcome, &gpu, &two_thread)?;
        ctx.progress("layer probes done");
    }
    Ok(outcome)
}
