//! The simulation engine: puts all the modules together (§III-D3).
//!
//! "In each cycle, the Warp Scheduler & Dispatch issues instructions to the
//! execution units and LD/ST units. Upon receiving the instructions, these
//! units calculate the instruction delay based on the \[chosen\] model and
//! return the instruction completion acknowledgment after X cycles. After
//! getting the acknowledgment, the Warp Scheduler & Dispatch then issues
//! the next instruction that depends on the completed instruction,
//! continuing this process until all instructions are executed."
//!
//! [`run_kernel`] is the sequential kernel stepper: one thread ticks every
//! SM of the GPU against one memory system. The app-level loop
//! (`GpuSimulator::run`) calls it for single-thread runs and the two-phase
//! engine ([`crate::twophase`]) when more threads shard the SMs.
//!
//! # The event-driven cycle-skipping engine
//!
//! Under [`SkipPolicy::EventDriven`] the kernel loop fast-forwards over
//! provably quiescent spans instead of ticking them one by one. Every
//! component reports its next-actionable cycle — SMs via
//! [`TickOutcome::next_wakeup`] (writeback heap head, port wakeups), the
//! memory system via [`MemorySystem::next_event`] — and after a fully quiet
//! iteration the loop *arms a jump* to the minimum `t` of those hints. The
//! next iteration runs one more cycle at full fidelity; if it is quiet too
//! (which the loop verifies rather than assumes), its per-SM stat delta is
//! the canonical quiescent-cycle delta, and the loop replays that delta
//! once per skipped cycle and sets the clock to `t`. Stats therefore come
//! out **bit-identical** to the dense loop — the skipped cycles are
//! accounted exactly as if they had been ticked — which the differential
//! suite (`tests/event_engine_equiv.rs`) enforces. Skipped cycles are also
//! attributed to [`ProfModule::CycleSkip`] so profiles show what the
//! engine jumped over.
//!
//! ## The wake set
//!
//! Most SMs of a small grid never hold a block, and the clock jump above
//! only fires when *every* SM is quiet. So the loop also keeps a
//! [`WakeSet`] of the SMs that can change state and ticks only those, in
//! ascending index order (the dense loop's order, so the memory system
//! sees the same calls in the same order). An SM joins the set when it
//! gets a block, a memory completion or (two-phase engine) a deferred
//! `Done` reply; it leaves after a tick that proves it dormant
//! ([`SmCore::is_dormant`]: quiescence cache primed with a zero delta,
//! nothing pending inside it). Every tick such an SM skips would have
//! replayed that zero delta, so leaving it out changes no statistic, and a
//! clock jump neither snapshots nor replays it. Under
//! [`SkipPolicy::Dense`] the set starts full and no SM ever turns dormant,
//! so the reference clock still ticks every SM every cycle.

use crate::alu::{AluModel, AnalyticalAlu, CycleAccurateAlu};
use crate::block_scheduler::{BlockScheduler, Occupancy};
use crate::error::SimError;
use crate::fidelity::{AluModelKind, FidelityConfig, FrontendModelKind, SkipPolicy};
use crate::mem_system::{MemCompletion, MemorySystem};
use crate::scheduler::make_policy;
use crate::sm::{SmCore, SmStats, WbTarget};
use crate::Cycle;
use swiftsim_config::GpuConfig;
use swiftsim_mem::FastMap;
use swiftsim_metrics::{ProfModule, Profiler};
use swiftsim_trace::KernelTrace;

#[cfg(doc)]
use crate::sm::TickOutcome;

/// Outcome of simulating one kernel, from either kernel stepper.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelOutcome {
    /// Cycle (absolute) at which the kernel's last block finished.
    pub end_cycle: Cycle,
    /// Aggregated SM counters.
    pub stats: SmStats,
}

pub(crate) fn make_alu(kind: AluModelKind, cfg: &GpuConfig) -> Box<dyn AluModel> {
    match kind {
        AluModelKind::CycleAccurate => Box::new(CycleAccurateAlu::new(&cfg.sm)),
        AluModelKind::Analytical => Box::new(AnalyticalAlu::new(&cfg.sm)),
    }
}

/// The SMs of one kernel loop (the whole GPU, or one two-phase shard) that
/// can change state: a bitset over local SM indices, walked in ascending
/// order. See the module docs.
pub(crate) struct WakeSet {
    words: Vec<u64>,
}

/// Indices of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

impl WakeSet {
    /// A set over `num_sms` SMs: full under the dense clock, empty under the
    /// event-driven one (SMs join with their first block).
    pub(crate) fn new(num_sms: usize, policy: SkipPolicy) -> WakeSet {
        let mut set = WakeSet {
            words: vec![0; num_sms.div_ceil(64)],
        };
        if policy == SkipPolicy::Dense {
            (0..num_sms).for_each(|sm| set.wake(sm));
        }
        set
    }

    /// Add SM `sm` to the set.
    pub(crate) fn wake(&mut self, sm: usize) {
        self.words[sm / 64] |= 1 << (sm % 64);
    }

    /// Call `tick` on every SM in the set, in ascending index order, and
    /// drop the SMs the tick left dormant.
    pub(crate) fn tick<'a>(
        &mut self,
        sms: &mut [SmCore<'a>],
        mut tick: impl FnMut(usize, &mut SmCore<'a>),
    ) {
        for (w, word) in self.words.iter_mut().enumerate() {
            for bit in set_bits(*word) {
                let sm = &mut sms[w * 64 + bit];
                tick(w * 64 + bit, sm);
                if sm.is_dormant() {
                    *word &= !(1 << bit);
                }
            }
        }
    }

    /// Stat snapshots of the SMs in the set, taken when a clock jump is
    /// armed (SMs outside it have a zero delta and need no replay).
    pub(crate) fn snapshot(&self, sms: &[SmCore<'_>]) -> Vec<(usize, SmStats)> {
        let mut snaps = Vec::new();
        for (w, &word) in self.words.iter().enumerate() {
            snaps.extend(set_bits(word).map(|bit| (w * 64 + bit, sms[w * 64 + bit].stats())));
        }
        snaps
    }
}

/// Complete an armed clock jump: replay each snapshotted SM's measured
/// quiescent delta `extra` more times.
pub(crate) fn replay_quiescent(
    sms: &mut [SmCore<'_>],
    snaps: &[(usize, SmStats)],
    extra: Cycle,
    prof: &mut Profiler,
) {
    for (sm, snap) in snaps {
        sms[*sm].scale_quiescent_delta(snap, extra, prof);
    }
    if extra > 0 {
        prof.add_cycles(ProfModule::CycleSkip, extra);
    }
}

/// Simulate one kernel on every SM of the GPU, starting at cycle `start`.
pub(crate) fn run_kernel(
    cfg: &GpuConfig,
    kernel: &KernelTrace,
    mem: &mut dyn MemorySystem,
    fidelity: FidelityConfig,
    start: Cycle,
    prof: &mut Profiler,
) -> Result<KernelOutcome, SimError> {
    let num_sms = cfg.num_sms as usize;
    if !kernel.is_consistent(cfg.sm.warp_size) {
        return Err(SimError::InconsistentTrace {
            kernel: kernel.name.clone(),
            message: format!(
                "trace has {} blocks for grid {} and warp counts must match block size",
                kernel.blocks().len(),
                kernel.grid_dim
            ),
        });
    }
    let occupancy = Occupancy::compute(&cfg.sm, kernel)?;
    let blocks = kernel.blocks();
    // Uniform per kernel: `is_consistent` checked every block against the
    // launch geometry above.
    let warps_per_block = blocks.first().map_or(0, |b| b.warps().len());
    let detailed_frontend = fidelity.frontend == FrontendModelKind::Detailed;
    let event_driven = fidelity.skip_policy == SkipPolicy::EventDriven;

    let mut sms: Vec<SmCore<'_>> = (0..num_sms)
        .map(|i| {
            SmCore::new(
                i,
                i,
                &cfg.sm,
                occupancy.blocks_per_sm as usize,
                warps_per_block,
                make_alu(fidelity.alu, cfg),
                detailed_frontend,
                event_driven,
                &|| make_policy(cfg.sm.scheduler),
            )
        })
        .collect();

    let mut bs = BlockScheduler::new(num_sms, blocks.len(), occupancy.blocks_per_sm);
    let mut wake = WakeSet::new(num_sms, fidelity.skip_policy);
    let mut tokens: FastMap<u64, (usize, WbTarget)> = FastMap::default();
    let mut completions: Vec<MemCompletion> = Vec::new();
    let mut now = start;
    let mut idle_streak = 0u32;
    // An armed clock jump: `(target, stat snapshots of the awake SMs)`
    // captured at the end of a quiet iteration. See the module docs.
    let mut plan: Option<(Cycle, Vec<(usize, SmStats)>)> = None;

    loop {
        // 1. Dispatch pending blocks to SMs with free slots (Block
        //    Scheduler, cycle-accurate in every preset).
        let mut installed = false;
        if bs.remaining() > 0 {
            let t0 = prof.start();
            for (sm_idx, sm) in sms.iter_mut().enumerate() {
                while sm.has_free_slot() {
                    match bs.dispatch(sm_idx) {
                        Some(block) => {
                            sm.install_block(block, &blocks[block], now);
                            wake.wake(sm_idx);
                            installed = true;
                        }
                        None => break,
                    }
                }
            }
            prof.record(ProfModule::BlockScheduler, t0);
        }

        // 2. Deliver memory completions due by now. The memory system
        //    attributes its own time per level (L1/NoC/L2/DRAM) internally;
        //    see MemorySystem::report_profile.
        completions.clear();
        mem.advance(now, &mut completions);
        let delivered = !completions.is_empty();
        for c in completions.drain(..) {
            if let Some((sm, target)) = tokens.remove(&c.token) {
                sms[sm].writeback_now(target);
                wake.wake(sm);
            }
        }

        // 3. Tick every awake SM. Warp-scheduler, ALU, and LD/ST time is
        //    attributed inside SmCore::tick.
        let mut issued = 0u32;
        let mut wakeup: Option<Cycle> = None;
        let mut any_unit_busy = false;
        let mut any_completed = false;
        let mut any_tokens = false;
        wake.tick(&mut sms, |sm_idx, sm| {
            let outcome = sm.tick(now, mem, prof);
            issued += outcome.issued;
            any_unit_busy |= outcome.unit_busy_stall;
            any_completed |= outcome.completed_blocks > 0;
            for _ in 0..outcome.completed_blocks {
                bs.complete(sm_idx);
            }
            for (token, target) in outcome.new_tokens {
                any_tokens = true;
                tokens.insert(token, (sm_idx, target));
            }
            wakeup = match (wakeup, outcome.next_wakeup) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        });

        // 4. Termination: every block completed and the memory system is
        //    quiet.
        if bs.all_done() && tokens.is_empty() && mem.next_event().is_none() {
            let mut stats = SmStats::default();
            for sm in &sms {
                stats.add(&sm.stats());
            }
            return Ok(KernelOutcome {
                end_cycle: now,
                stats,
            });
        }

        // 5. Advance time. A *quiet* iteration is one in which provably
        //    nothing observable happened: no instruction issued, no
        //    port-busy stall about to resolve, no memory completion or new
        //    request, no block installed or retired.
        let quiet = issued == 0
            && !any_unit_busy
            && !delivered
            && !any_completed
            && !any_tokens
            && !installed;

        if let Some((target, snaps)) = plan.take() {
            if quiet {
                // The tick above is the measured canonical quiescent tick;
                // every cycle in (now, target) would repeat it exactly
                // (no writeback, memory event, or unpark can occur before
                // `target` by construction). Replay its delta and jump.
                replay_quiescent(&mut sms, &snaps, target - now - 1, prof);
                now = target;
                idle_streak = 0;
                continue;
            }
            // Something observable happened after all — the iteration
            // above already ran at full fidelity, so just fall through to
            // a normal advance. No state needs undoing.
        }

        if event_driven && quiet {
            let next_mem = mem.next_event();
            let candidate = match (wakeup, next_mem) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if let Some(t) = candidate {
                if t > now + 1 {
                    // Arm the jump; the next iteration measures the
                    // quiescent delta (by then operand collectors and
                    // frontend tag arrays have reached steady state).
                    plan = Some((t, wake.snapshot(&sms)));
                }
            }
            now += 1;
            idle_streak += 1;
        } else {
            now += 1;
            idle_streak = if issued > 0 { 0 } else { idle_streak + 1 };
        }
        // A memory event or token always reappears within the DRAM latency;
        // a much longer silent streak means the model deadlocked.
        if idle_streak > 1_000_000 {
            let warp = sms.iter().find_map(|sm| sm.oldest_stalled());
            let pending = mem.oldest_pending();
            let detail = match (warp, pending) {
                (Some(w), Some(m)) => format!("{w}; {m}"),
                (Some(w), None) => w,
                (None, Some(m)) => m,
                (None, None) => "no resident warp or pending memory request".to_owned(),
            };
            return Err(SimError::Deadlock {
                cycle: now,
                shard: 0,
                detail,
            });
        }
    }
}
