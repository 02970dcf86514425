//! Deterministic work counters: how much per-cycle work the engine does,
//! as counted by the self-profiler's event rows. Unlike wall time these
//! counts do not depend on the host, so they can gate a regression in
//! tier-1.

use swiftsim_config::{presets, GpuConfig};
use swiftsim_core::{RunOptions, SimulatorPreset};
use swiftsim_metrics::ProfModule;
use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};

/// One block of four warps mixing global loads, dependent arithmetic and
/// stores.
fn one_block_app() -> ApplicationTrace {
    let mut kernel = KernelTrace::new("one_block", (1, 1, 1), (128, 1, 1));
    let block = kernel.push_block();
    for w in 0..4u64 {
        let warp = block.push_warp();
        for i in 0..24u64 {
            let pc = i as u32 * 16;
            let addr = (w * 64 + i) * 128;
            let out = addr | 0x4000_0000;
            warp.push(match i % 3 {
                0 => InstBuilder::new(Opcode::Ldg)
                    .pc(pc)
                    .dst(8)
                    .src(2)
                    .global_strided(addr, 4, 4),
                1 => InstBuilder::new(Opcode::Ffma).pc(pc).dst(9).src(8),
                _ => InstBuilder::new(Opcode::Stg)
                    .pc(pc)
                    .src(9)
                    .global_strided(out, 4, 4),
            });
        }
        warp.push(InstBuilder::new(Opcode::Exit).pc(24 * 16));
    }
    ApplicationTrace::new("one_block", vec![kernel])
}

/// Simulated cycles and `warp-scheduler` profiler events of one profiled
/// single-threaded run.
fn cycles_and_scheduler_events(
    cfg: &GpuConfig,
    preset: SimulatorPreset,
    app: &ApplicationTrace,
) -> (u64, u64) {
    let options = RunOptions::default().with_preset(preset).with_profile(true);
    let result = swiftsim_core::run(app, cfg, &options).expect("run succeeds");
    let profile = result.profile.expect("profiled run carries a profile");
    let events = profile
        .frames
        .iter()
        .map(|f| f.events(ProfModule::WarpScheduler))
        .sum();
    (result.cycles, events)
}

/// SMs without a block do no scheduler work: a one-block kernel costs the
/// same number of `warp-scheduler` events on the 68-SM RTX 2080 Ti as on a
/// 4-SM copy with the same memory partitions. Swift-Sim-Memory is left
/// out of the comparison because its analytical memory model scales its
/// queueing term with the SM count, so the two GPUs predict different
/// cycles;
/// its count is bounded by one SM's sub-cores per cycle instead.
#[test]
fn scheduler_work_does_not_grow_with_idle_sms() {
    let full = presets::rtx2080ti();
    assert_eq!(full.num_sms, 68);
    let mut four = full.clone();
    four.num_sms = 4;
    let app = one_block_app();
    for preset in [SimulatorPreset::Detailed, SimulatorPreset::SwiftBasic] {
        let (cycles_full, events_full) = cycles_and_scheduler_events(&full, preset, &app);
        let (cycles_four, events_four) = cycles_and_scheduler_events(&four, preset, &app);
        assert_eq!(
            cycles_full, cycles_four,
            "{preset:?}: idle SMs must not change the kernel's cycles"
        );
        assert!(events_four > 0, "{preset:?}: the busy SM schedules warps");
        assert_eq!(
            events_full, events_four,
            "{preset:?}: warp-scheduler events grew with idle SMs"
        );
    }
    let (cycles, events) = cycles_and_scheduler_events(&full, SimulatorPreset::SwiftMemory, &app);
    let one_sm = u64::from(full.sm.sub_cores) * cycles;
    assert!(
        events > 0 && events <= one_sm,
        "SwiftMemory: {events} warp-scheduler events, one SM's bound is {one_sm}"
    );
}
