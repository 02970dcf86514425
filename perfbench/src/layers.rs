//! Per-layer measurements: the self-profiler's module rows, summed per
//! preset, and calls into single layers timed from outside over the
//! workload's own trace files.

use crate::metrics::{mape_pct, median, Outcome};
use crate::PRESETS;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use swiftsim_config::GpuConfig;
use swiftsim_core::mem_system::{AnalyticalMemoryBuilder, CycleAccurateMemory};
use swiftsim_core::{GpuSimulator, MemorySystem, RunOptions, SimulatorPreset};
use swiftsim_mem::{coalesce_accesses, AddressMapping, FunctionalCacheSim, MemTxn};
use swiftsim_metrics::{Json, ProfModule, ProfileReport};
use swiftsim_trace::{open_trace, KernelTrace, MemSpace};

/// Repetitions of each outside-timed call; the median is reported.
const REPS: usize = 3;

/// One run's profiler rows: wall ms, events and cycles per module.
#[derive(Debug, Clone, Default)]
pub struct ProfSum {
    /// Wall milliseconds per module (index = `ProfModule::index`).
    pub ms: [f64; 13],
    /// Events per module.
    pub events: [u64; 13],
    /// Simulated cycles attributed per module.
    pub cycles: [u64; 13],
}

impl ProfSum {
    /// Rows of one profiled run.
    pub fn of(report: &ProfileReport) -> ProfSum {
        let mut s = ProfSum::default();
        for m in ProfModule::ALL {
            s.ms[m.index()] = report.total_wall(m).as_secs_f64() * 1e3;
            s.events[m.index()] = report.frames.iter().map(|f| f.events(m)).sum();
            s.cycles[m.index()] = report.total_cycles(m);
        }
        s
    }

    /// Add another run's rows.
    pub fn add(&mut self, other: &ProfSum) {
        for i in 0..13 {
            self.ms[i] += other.ms[i];
            self.events[i] += other.events[i];
            self.cycles[i] += other.cycles[i];
        }
    }

    /// Sum of every module's wall time.
    pub fn attributed_ms(&self) -> f64 {
        self.ms.iter().sum()
    }
}

/// One profiled pass over a workload, per preset: the profiler rows and
/// the wall time of the profiled calls as seen by their caller.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    /// Summed rows per preset (index into `PRESETS`).
    pub rows: [ProfSum; 3],
    /// Caller-side wall ms of the profiled calls, per preset.
    pub wall_ms: [f64; 3],
    /// Simulated cycles of the profiled calls, per preset.
    pub sim_cycles: [u64; 3],
}

/// Record the profiler metrics of `passes`: for each preset and module,
/// the median over passes of its wall ms and of its events, each only if
/// it was ever non-zero (a module that does no work is absent, and the
/// analytical memory model, timed inside the LD/ST span, reports events
/// only), plus the unattributed remainder and the cycle-skip share of
/// simulated cycles.
pub fn record_profile(outcome: &mut Outcome, passes: &[TracedPass]) {
    if passes.is_empty() {
        return;
    }
    // The profiler splits memory-side wall time between these rows in
    // proportion to their work, rather than timing each one directly.
    outcome.check(
        "pro_rated_estimate",
        Json::Arr(
            ["l1-cache", "noc", "l2-cache", "dram"]
                .map(Json::str)
                .to_vec(),
        ),
    );
    for (p, (_, preset)) in PRESETS.iter().enumerate() {
        for m in ProfModule::ALL {
            let i = m.index();
            let ms: Vec<f64> = passes.iter().map(|t| t.rows[p].ms[i]).collect();
            let ev: Vec<f64> = passes.iter().map(|t| t.rows[p].events[i] as f64).collect();
            for (values, suffix, unit) in [(ms, "ms", "ms"), (ev, "events", "count")] {
                if values.iter().any(|v| *v > 0.0) {
                    let name = format!("{preset}.core.{}.{suffix}", m.name());
                    outcome.set(&name, median(&values), unit);
                }
            }
        }
        let unattributed: Vec<f64> = passes
            .iter()
            .map(|t| t.wall_ms[p] - t.rows[p].attributed_ms())
            .collect();
        outcome.set(
            &format!("{preset}.core.unattributed.ms"),
            median(&unattributed),
            "ms",
        );
        // Work counts repeat exactly between passes; report the first.
        let first = &passes[0];
        let cycles = first.sim_cycles[p].max(1) as f64;
        let skip = first.rows[p].cycles[ProfModule::CycleSkip.index()] as f64;
        outcome.set(&format!("{preset}.sim.skip_ratio"), skip / cycles, "ratio");
    }
}

/// Record `trace_overhead_pct`: the median wall time of the profiled
/// passes over that of the unprofiled ones, from `(profiled, wall)` pairs.
pub fn record_overhead(outcome: &mut Outcome, walls: &[(bool, f64)]) {
    let median_of = |profiled: bool| {
        median(
            &walls
                .iter()
                .filter(|w| w.0 == profiled)
                .map(|w| w.1)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = median_of(true) / median_of(false) - 1.0;
    outcome.set("trace_overhead_pct", overhead * 100.0, "%");
}

/// One global/local memory instruction of a trace, lanes expanded.
struct MemInst {
    sm: usize,
    pc: u32,
    addrs: Vec<u64>,
    width: u8,
    write: bool,
}

fn mem_insts(kernels: &[KernelTrace], num_sms: usize) -> Vec<MemInst> {
    let mut out = Vec::new();
    for kernel in kernels {
        for (b, block) in kernel.blocks().iter().enumerate() {
            for warp in block.warps() {
                for inst in warp {
                    let Some(mem) = &inst.mem else { continue };
                    if !matches!(mem.space, MemSpace::Global | MemSpace::Local) {
                        continue;
                    }
                    out.push(MemInst {
                        sm: b % num_sms,
                        pc: inst.pc,
                        addrs: mem.addresses.expand(inst.active_lanes()),
                        width: mem.width,
                        write: inst.opcode.is_store(),
                    });
                }
            }
        }
    }
    out
}

/// Median seconds of `REPS` calls of `f`.
fn timed(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        f()?;
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

/// Drive a coalesced stream through a fresh cycle-accurate hierarchy, one
/// warp instruction per cycle, then drain it.
fn drive_cycle_accurate(
    gpu: &GpuConfig,
    stream: &[(usize, u32, Vec<MemTxn>)],
) -> Result<(), String> {
    const STALL_LIMIT: u32 = 1_000_000;
    let mut mem = CycleAccurateMemory::new(gpu);
    let mut done = Vec::new();
    let mut now: u64 = 0;
    for (sm, pc, txns) in stream {
        let mut stalled = 0;
        while !mem.can_accept(*sm) {
            now = mem.next_event().map_or(now + 1, |e| e.max(now + 1));
            mem.advance(now, &mut done);
            stalled += 1;
            if stalled > STALL_LIMIT {
                return Err(format!("cycle-accurate memory never accepted SM {sm}"));
            }
        }
        black_box(mem.access(*sm, *pc, txns, now));
        now += 1;
        mem.advance(now, &mut done);
        done.clear();
    }
    let mut steps = 0;
    while let Some(at) = mem.next_event() {
        now = at.max(now + 1);
        mem.advance(now, &mut done);
        steps += 1;
        if steps > STALL_LIMIT {
            return Err("cycle-accurate memory never drained".to_owned());
        }
    }
    black_box(done.len());
    Ok(())
}

/// Time single layers from outside over the trace files `paths`: trace
/// open and decode, coalescing, the functional cache simulator, the
/// analytical-memory build, the cycle-accurate hierarchy, and simulator
/// construction. Each app starts from empty modelled caches.
pub fn probe(outcome: &mut Outcome, gpu: &GpuConfig, paths: &[PathBuf]) -> Result<(), String> {
    let num_sms = gpu.num_sms.max(1) as usize;
    let mapping = AddressMapping::new(&gpu.sm.l1d);
    let (mut open_s, mut decode_s, mut bytes) = (0.0, 0.0, 0u64);
    let (mut coalesce_s, mut funcsim_s, mut build_s, mut ca_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut n_insts, mut n_txns) = (0u64, 0u64);
    for path in paths {
        let err = |e: swiftsim_trace::TraceError| format!("{}: {e}", path.display());
        bytes += std::fs::metadata(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        open_s += timed(|| open_trace(path).map(|s| drop(black_box(s))).map_err(err))?;
        let source = open_trace(path).map_err(err)?;
        decode_s += timed(|| {
            for k in 0..source.num_kernels() {
                black_box(source.decode_kernel(k).map_err(err)?);
            }
            Ok(())
        })?;
        let kernels: Vec<KernelTrace> = (0..source.num_kernels())
            .map(|k| source.decode_kernel(k).map(|c| c.into_owned()).map_err(err))
            .collect::<Result<_, _>>()?;
        drop(source);

        let insts = mem_insts(&kernels, num_sms);
        let stream: Vec<(usize, u32, Vec<MemTxn>)> = insts
            .iter()
            .map(|i| {
                (
                    i.sm,
                    i.pc,
                    coalesce_accesses(&mapping, &i.addrs, i.width, i.write),
                )
            })
            .filter(|(_, _, t)| !t.is_empty())
            .collect();
        n_insts += insts.len() as u64;
        n_txns += stream.iter().map(|(_, _, t)| t.len() as u64).sum::<u64>();
        coalesce_s += timed(|| {
            for i in &insts {
                black_box(coalesce_accesses(&mapping, &i.addrs, i.width, i.write));
            }
            Ok(())
        })?;
        funcsim_s += timed(|| {
            let mut sim = FunctionalCacheSim::new(gpu);
            for (sm, pc, txns) in &stream {
                for txn in txns {
                    sim.access(*sm, *pc, *txn);
                }
            }
            black_box(sim.accesses());
            Ok(())
        })?;
        build_s += timed(|| {
            let mut builder = AnalyticalMemoryBuilder::new(gpu);
            for kernel in &kernels {
                builder.feed_kernel(kernel);
            }
            black_box(builder.finish());
            Ok(())
        })?;
        ca_s += timed(|| drive_cycle_accurate(gpu, &stream))?;
    }
    // Construction takes microseconds: time batches and report per set-up
    // of all three presets.
    const BATCH: u32 = 100;
    let try_new_s = timed(|| {
        for _ in 0..BATCH {
            for (preset, _) in PRESETS {
                let options = RunOptions::default().with_preset(preset);
                let sim = GpuSimulator::try_new(gpu.clone(), &options);
                black_box(sim.map_err(|e| e.to_string())?);
            }
        }
        Ok(())
    })? / f64::from(BATCH);
    let per = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    outcome.set("trace.open_ms", open_s * 1e3, "ms");
    outcome.set("trace.decode_ms", decode_s * 1e3, "ms");
    outcome.set(
        "trace.decode_mb_s",
        bytes as f64 / 1e6 / decode_s.max(1e-9),
        "MB/s",
    );
    outcome.set("mem.coalesce_ns_per_inst", per(coalesce_s, n_insts), "ns");
    outcome.set("mem.funcsim_ns_per_txn", per(funcsim_s, n_txns), "ns");
    outcome.set("mem_system.analytical_build_ms", build_s * 1e3, "ms");
    outcome.set(
        "mem_system.cycle_accurate_ns_per_txn",
        per(ca_s, n_txns),
        "ns",
    );
    outcome.set("core.try_new_ms", try_new_s * 1e3, "ms");
    Ok(())
}

/// Apps of the two-thread probe: long, low-IPC, mostly memory-quiet ones
/// (adi, mvt, lu), which sync elision would help, and high-IPC ones (gemm,
/// alexnet), which it would not.
const TWO_THREAD_APPS: [&str; 5] = ["adi", "mvt", "lu", "gemm", "alexnet"];

/// A trace file of the workload and its one-thread detailed cycles.
pub struct TwoThreadInput {
    /// Suite app the trace was generated from.
    pub app: &'static str,
    /// The trace file.
    pub path: PathBuf,
    /// Cycles of a one-thread detailed run of the same input.
    pub ref_cycles: Option<u64>,
}

/// Run the detailed preset at two threads with per-cycle sync (the
/// bit-identical two-phase engine) under the profiler, once, over the
/// probe apps among `inputs`. Records the phase-sync row, syncs per
/// thousand simulated cycles and the probe's wall time, and checks that
/// two threads predict exactly the one-thread cycles.
///
/// On a 2-core virtual machine this engine's speed swings by several times
/// between runs, with the host's wake-up latency, so it is measured here as
/// a layer rather than as a workload with bounded end-to-end metrics.
pub fn two_thread_probe(
    outcome: &mut Outcome,
    gpu: &GpuConfig,
    inputs: &[TwoThreadInput],
) -> Result<(), String> {
    let options = RunOptions::default()
        .with_preset(SimulatorPreset::Detailed)
        .with_threads(2)
        .with_profile(true);
    let sim = GpuSimulator::try_new(gpu.clone(), &options).map_err(|e| e.to_string())?;
    let mut rows = ProfSum::default();
    let (mut wall_ms, mut cycles) = (0.0, 0u64);
    let mut dev = Vec::new();
    for input in inputs.iter().filter(|i| TWO_THREAD_APPS.contains(&i.app)) {
        let name = input.path.display();
        let source = open_trace(&input.path).map_err(|e| format!("{name}: {e}"))?;
        let t0 = Instant::now();
        let result = sim.run(&*source);
        wall_ms += t0.elapsed().as_secs_f64() * 1e3;
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                outcome.op(Some(format!("{name} at 2 threads: {e}")));
                continue;
            }
        };
        outcome.op((input.ref_cycles != Some(r.cycles)).then(|| {
            format!(
                "{name}: {} cycles at 2 threads, {:?} at 1",
                r.cycles, input.ref_cycles
            )
        }));
        if let Some(reference) = input.ref_cycles {
            dev.push((r.cycles as f64, reference as f64));
        }
        if let Some(profile) = &r.profile {
            rows.add(&ProfSum::of(profile));
        }
        cycles += r.cycles;
    }
    outcome.check("cycles_dev_2t_pct", Json::Num(mape_pct(&dev)));
    let sync = ProfModule::PhaseSync.index();
    outcome.set("detailed.2t.wall_ms", wall_ms, "ms");
    outcome.set("detailed.2t.core.phase-sync.ms", rows.ms[sync], "ms");
    outcome.set(
        "detailed.2t.core.phase-sync.events",
        rows.events[sync] as f64,
        "count",
    );
    outcome.set(
        "detailed.2t.sim.phase_syncs_per_kcycle",
        rows.events[sync] as f64 * 1e3 / cycles.max(1) as f64,
        "count",
    );
    Ok(())
}
