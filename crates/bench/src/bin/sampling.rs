//! Kernel-level sampling benchmark: a sampled run of an iterative
//! application vs the same run with every launch simulated in detail.
//!
//! The workload is the case sampling exists for — a training-loop-shaped
//! app that launches the *same* two kernels once per iteration. Under
//! `-sim_sampling cluster:N` the first N instances of each cluster run in
//! detail and the rest replay analytically, so wall time should drop
//! roughly by the repetition factor while the predicted cycles stay within
//! the error bound the `confidence` block reports. Both claims are checked
//! here and written to `BENCH_sampling.json`.
//!
//! ```sh
//! cargo run --release -p swiftsim-bench --bin sampling
//! SWIFTSIM_SAMPLING_ITERS=64 SWIFTSIM_SAMPLING_REPS=4 \
//!   cargo run --release -p swiftsim-bench --bin sampling
//! ```

use std::time::Instant;
use swiftsim_bench::describe_commit;
use swiftsim_core::{run, RunOptions, SamplingPolicy, SimulatorPreset};
use swiftsim_trace::ApplicationTrace;
use swiftsim_workloads::{MemPattern, Mix, PatternKernel, Scale};

fn bench_gpu() -> swiftsim_config::GpuConfig {
    let mut cfg = swiftsim_config::presets::rtx2080ti();
    cfg.num_sms = 8;
    cfg.memory.partitions = 4;
    cfg
}

/// An iterative app: `iters` repetitions of a compute step and a
/// memory-heavy reduce step. Two clusters, `iters` launches each.
fn iterative_app(iters: usize) -> ApplicationTrace {
    let step = PatternKernel {
        name: "train_step".to_owned(),
        blocks: 64,
        threads_per_block: 128,
        iters: 12,
        mix: Mix {
            loads: 2,
            stores: 1,
            fp: 6,
            int_ops: 3,
            ..Mix::default()
        },
        pattern: MemPattern::Streaming,
        shared_mem_bytes: 0,
        regs_per_thread: 32,
        barrier: false,
    }
    .generate(Scale::Small);
    let reduce = PatternKernel {
        name: "grad_reduce".to_owned(),
        blocks: 32,
        threads_per_block: 128,
        iters: 8,
        mix: Mix {
            loads: 3,
            stores: 1,
            int_ops: 2,
            ..Mix::default()
        },
        pattern: MemPattern::Strided { lane_stride: 128 },
        shared_mem_bytes: 0,
        regs_per_thread: 32,
        barrier: false,
    }
    .generate(Scale::Small);

    let mut kernels = Vec::with_capacity(iters * 2);
    for _ in 0..iters {
        kernels.push(step.clone());
        kernels.push(reduce.clone());
    }
    ApplicationTrace::new("train_loop", kernels)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let iters = env_usize("SWIFTSIM_SAMPLING_ITERS", 32);
    let reps = env_usize("SWIFTSIM_SAMPLING_REPS", 2) as u32;
    let preset = SimulatorPreset::SwiftBasic; // detailed memory: replay skips real work

    eprintln!("generating iterative app ({iters} iterations, 2 kernels each) ...");
    let app = iterative_app(iters);
    let launches = app.kernels().len();
    let insts = app.num_insts();
    let gpu = bench_gpu();
    eprintln!("trace: {launches} launches, {insts} instructions");

    eprintln!("measuring ground truth (every launch in detail) ...");
    let t0 = Instant::now();
    let exact =
        run(&app, &gpu, &RunOptions::default().with_preset(preset)).expect("ground-truth run");
    let exact_ms = t0.elapsed().as_secs_f64() * 1e3;

    eprintln!("measuring sampled run (cluster:{reps}) ...");
    let t0 = Instant::now();
    let sampled = run(
        &app,
        &gpu,
        &RunOptions::default()
            .with_preset(preset)
            .with_sampling(SamplingPolicy::KernelCluster { reps }),
    )
    .expect("sampled run");
    let sampled_ms = t0.elapsed().as_secs_f64() * 1e3;

    let conf = sampled
        .confidence
        .as_ref()
        .expect("sampled runs report a confidence block");
    let rel_error = (sampled.cycles as f64 - exact.cycles as f64).abs() / exact.cycles as f64;
    let within_bound = rel_error <= conf.app_error_bound + 1e-9;
    let speedup = exact_ms / sampled_ms.max(1e-6);
    assert!(
        within_bound,
        "sampled cycles {} vs exact {}: relative error {rel_error:.4} exceeds the \
         reported bound {:.4}",
        sampled.cycles, exact.cycles, conf.app_error_bound
    );

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"sampling\",\n  \"host_cores\": {host_cores},\n  \
         \"commit\": \"{}\",\n  \"preset\": \"swift_basic\",\n  \
         \"iterations\": {iters},\n  \"launches\": {launches},\n  \"instructions\": {insts},\n  \
         \"policy\": \"cluster:{reps}\",\n  \"clusters\": {},\n  \
         \"sampled_kernels\": {},\n  \"replayed_kernels\": {},\n  \
         \"exact\": {{ \"cycles\": {}, \"wall_ms\": {exact_ms:.1} }},\n  \
         \"sampled\": {{ \"cycles\": {}, \"wall_ms\": {sampled_ms:.1} }},\n  \
         \"rel_error\": {rel_error:.6},\n  \"app_error_bound\": {:.6},\n  \
         \"within_bound\": {within_bound},\n  \"speedup\": {speedup:.2}\n}}\n",
        describe_commit(),
        conf.clusters,
        conf.sampled_kernels,
        conf.replayed_kernels,
        exact.cycles,
        sampled.cycles,
        conf.app_error_bound,
    );
    let out_path =
        std::env::var("SWIFTSIM_SAMPLING_OUT").unwrap_or_else(|_| "BENCH_sampling.json".into());
    std::fs::write(&out_path, &json).expect("write bench json");

    println!("{json}");
    println!(
        "sampled run: {speedup:.1}x faster, {:.2}% error (bound {:.2}%) ({out_path})",
        rel_error * 100.0,
        conf.app_error_bound * 100.0
    );
    if speedup < 5.0 {
        eprintln!(
            "WARNING: sampling speedup {speedup:.1}x below the 5x target \
             ({} of {launches} launches replayed)",
            conf.replayed_kernels
        );
    }
}
