//! Deadlock diagnostics: a simulation that stops making progress must fail
//! with an error that names the stalled shard and describes the oldest
//! waiting warp, not just a cycle number.

use swiftsim_config::presets;
use swiftsim_core::{RunOptions, SimError, SimulatorPreset, SyncQuantum};
use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};

/// Two warps in one block: warp 0 waits at a barrier forever, because warp
/// 1's trace runs out of instructions without exiting — it can neither
/// reach the barrier nor retire. No component ever has a next event, so
/// the engine's idle-streak watchdog must trip.
fn deadlocked_app() -> ApplicationTrace {
    let mut kernel = KernelTrace::new("wedge", (1, 1, 1), (64, 1, 1));
    let block = kernel.push_block();
    {
        let w0 = block.push_warp();
        w0.push(InstBuilder::new(Opcode::Bar).pc(0));
        w0.push(InstBuilder::new(Opcode::Exit).pc(16));
    }
    {
        let w1 = block.push_warp();
        w1.push(InstBuilder::new(Opcode::Iadd).pc(0).dst(4).src(4));
        // No Bar, no Exit: the warp wedges with its trace exhausted.
    }
    ApplicationTrace::new("wedge", vec![kernel])
}

#[test]
fn forced_deadlock_names_the_shard_and_the_stuck_warp() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 2;
    cfg.memory.partitions = 2;
    let err = swiftsim_core::run(
        &deadlocked_app(),
        &cfg,
        &RunOptions::default().with_preset(SimulatorPreset::SwiftBasic),
    )
    .expect_err("a wedged trace must be detected, not spin forever");

    let SimError::Deadlock {
        cycle,
        shard,
        detail,
    } = &err
    else {
        panic!("expected a deadlock, got: {err}");
    };
    assert!(
        *cycle > 0,
        "the watchdog trips after some progress attempts"
    );
    assert_eq!(*shard, 0, "single-threaded runs report shard 0");
    assert!(
        detail.contains("barrier"),
        "the oldest stalled warp is the one at the barrier: {detail}"
    );

    // The rendered message carries all of it for CLI users.
    let msg = err.to_string();
    assert!(msg.contains("shard 0"), "{msg}");
    assert!(msg.contains("barrier"), "{msg}");
}

/// Two blocks, the second wedged. With one block slot per SM the wedge
/// lands on SM 1, which under two threads is the second shard's only
/// (local index 0) SM — a deadlock report keyed by *local* ids would
/// misname it "SM 0".
fn app_wedged_on_second_sm() -> ApplicationTrace {
    let mut kernel = KernelTrace::new("wedge2", (2, 1, 1), (64, 1, 1));
    {
        let healthy = kernel.push_block();
        for _ in 0..2 {
            let w = healthy.push_warp();
            w.push(InstBuilder::new(Opcode::Iadd).pc(0).dst(4).src(4));
            w.push(InstBuilder::new(Opcode::Exit).pc(16));
        }
    }
    {
        let wedged = kernel.push_block();
        let w0 = wedged.push_warp();
        w0.push(InstBuilder::new(Opcode::Bar).pc(0));
        w0.push(InstBuilder::new(Opcode::Exit).pc(16));
        let w1 = wedged.push_warp();
        w1.push(InstBuilder::new(Opcode::Iadd).pc(0).dst(4).src(4));
        // No Bar, no Exit: wedged with its trace exhausted.
    }
    ApplicationTrace::new("wedge2", vec![kernel])
}

/// Regression: sharded runs must report the *global* SM id of the stalled
/// warp, under per-cycle and relaxed sync quanta (the latter detects the
/// deadlock through its own branch). An earlier revision printed the
/// shard-local index, which on any shard but the first names the wrong SM.
#[test]
fn sharded_deadlock_reports_global_sm_ids() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 2;
    cfg.memory.partitions = 2;
    cfg.sm.max_blocks = 1; // one slot per SM: block 1 must land on SM 1

    for quantum in [SyncQuantum::PerCycle, SyncQuantum::Cycles(8)] {
        let mut fidelity = swiftsim_core::FidelityConfig::for_preset(SimulatorPreset::SwiftBasic);
        fidelity.sync_quantum = quantum;
        let err = swiftsim_core::run(
            &app_wedged_on_second_sm(),
            &cfg,
            &RunOptions::default()
                .with_fidelity(fidelity)
                .with_threads(2),
        )
        .expect_err("the wedged block must be detected");

        let SimError::Deadlock { shard, detail, .. } = &err else {
            panic!("expected a deadlock under {quantum:?}, got: {err}");
        };
        assert_eq!(
            *shard, 1,
            "{quantum:?}: the stalled SM belongs to the second shard: {detail}"
        );
        assert!(
            detail.contains("SM 1"),
            "{quantum:?}: the report must name the global SM id, \
             not the shard-local index: {detail}"
        );
        assert!(detail.contains("barrier"), "{quantum:?}: {detail}");
    }
}
