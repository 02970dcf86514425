//! Metric catalog, the per-run outcome accumulator, and small statistics.

use crate::PRESETS;
use std::collections::BTreeMap;
use swiftsim_core::{SimulationResult, StatId};
use swiftsim_metrics::Json;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// with `--trace 0`. Kept in the same order as `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("kips_detailed", "kinst/s"),
    ("kips_swift_basic", "kinst/s"),
    ("kips_swift_memory", "kinst/s"),
    ("cycles_err_swift_memory_pct", "%"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics every workload reports with `--trace 1`, `(name,
/// unit)`. Layer metrics that exist on only one workload (the serve
/// stages) go to the detail line instead. Kept in the same order
/// as `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead_pct", "%"),
    ("core.try_new_ms", "ms"),
    ("trace.open_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("trace.decode_mb_s", "MB/s"),
    ("mem.coalesce_ns_per_inst", "ns"),
    ("mem.funcsim_ns_per_txn", "ns"),
    ("mem_system.analytical_build_ms", "ms"),
    ("mem_system.cycle_accurate_ns_per_txn", "ns"),
    ("detailed.core.block-scheduler.ms", "ms"),
    ("detailed.core.warp-scheduler.ms", "ms"),
    ("detailed.core.alu-pipeline.ms", "ms"),
    ("detailed.core.ldst-coalescer.ms", "ms"),
    ("detailed.core.l1-cache.ms", "ms"),
    ("detailed.core.noc.ms", "ms"),
    ("detailed.core.l2-cache.ms", "ms"),
    ("detailed.core.dram.ms", "ms"),
    ("detailed.core.trace-decode.ms", "ms"),
    ("detailed.core.unattributed.ms", "ms"),
    ("detailed.core.warp-scheduler.events", "count"),
    ("detailed.core.alu-pipeline.events", "count"),
    ("detailed.core.ldst-coalescer.events", "count"),
    ("detailed.core.l1-cache.events", "count"),
    ("detailed.sim.mem_events_per_kinst", "count"),
    ("detailed.sim.mem_retry_ratio", "ratio"),
    ("detailed.sim.skip_ratio", "ratio"),
    ("swift-basic.core.block-scheduler.ms", "ms"),
    ("swift-basic.core.warp-scheduler.ms", "ms"),
    ("swift-basic.core.alu-pipeline.ms", "ms"),
    ("swift-basic.core.ldst-coalescer.ms", "ms"),
    ("swift-basic.core.l1-cache.ms", "ms"),
    ("swift-basic.core.noc.ms", "ms"),
    ("swift-basic.core.l2-cache.ms", "ms"),
    ("swift-basic.core.dram.ms", "ms"),
    ("swift-basic.core.trace-decode.ms", "ms"),
    ("swift-basic.core.unattributed.ms", "ms"),
    ("swift-basic.core.warp-scheduler.events", "count"),
    ("swift-basic.core.l1-cache.events", "count"),
    ("swift-basic.sim.mem_events_per_kinst", "count"),
    ("swift-basic.sim.mem_retry_ratio", "ratio"),
    ("swift-basic.sim.skip_ratio", "ratio"),
    ("swift-memory.core.block-scheduler.ms", "ms"),
    ("swift-memory.core.warp-scheduler.ms", "ms"),
    ("swift-memory.core.alu-pipeline.ms", "ms"),
    ("swift-memory.core.ldst-coalescer.ms", "ms"),
    ("swift-memory.core.trace-decode.ms", "ms"),
    ("swift-memory.core.unattributed.ms", "ms"),
    ("swift-memory.core.warp-scheduler.events", "count"),
    ("swift-memory.core.mem-analytical.events", "count"),
    ("swift-memory.sim.skip_ratio", "ratio"),
    ("detailed.2t.wall_ms", "ms"),
    ("detailed.2t.core.phase-sync.ms", "ms"),
    ("detailed.2t.core.phase-sync.events", "count"),
    ("detailed.2t.sim.phase_syncs_per_kcycle", "count"),
];

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulations or serve jobs).
    pub attempted: u64,
    /// Operations that failed or failed an output check.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Named check results for the detail line.
    pub checks: Vec<(String, Json)>,
    /// Per-(app, preset) digests of the simulated stats.
    pub digests: Vec<(String, Json)>,
    metrics: BTreeMap<String, (f64, String)>,
}

impl Outcome {
    /// Record a metric (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_owned(), (value, unit.to_owned()));
    }

    /// Remove and return a metric's value.
    pub fn take(&mut self, name: &str) -> Option<f64> {
        self.metrics.remove(name).map(|(v, _)| v)
    }

    /// Count one operation; `err` marks it failed (the first 20 messages
    /// are kept for the detail line).
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    /// Record a named check for the detail line.
    pub fn check(&mut self, name: &str, value: Json) {
        self.checks.push((name.to_owned(), value));
    }

    /// Failed operations over attempted ones.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Record the cycles error of preset `p` against detailed.
    pub fn set_cycles_err(&mut self, p: usize, pct: f64) {
        let name = format!("cycles_err_{}_pct", PRESETS[p].1.replace('-', "_"));
        self.set(&name, pct, "%");
    }

    /// Metrics not printed on the result line, with their units.
    pub fn rest_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(k, (v, u))| {
                    (
                        k.clone(),
                        Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(u))]),
                    )
                })
                .collect(),
        )
    }
}

/// The timed operations of one unprofiled pass (serve: round).
pub struct PassTimes {
    /// Wall seconds of the whole pass.
    pub wall: f64,
    /// Seconds spent in the program's set-up calls.
    pub setup: f64,
    /// Peak resident memory during the pass, MB.
    pub rss_mb: f64,
    /// Every simulation or serve job of the pass.
    pub ops: Vec<TimedOp>,
}

/// One timed simulation or serve job.
pub struct TimedOp {
    /// Index into [`PRESETS`].
    pub preset: usize,
    /// Wall seconds; infinite if the operation failed.
    pub secs: f64,
    /// Simulated instructions.
    pub insts: u64,
    /// Answered from the serve result cache instead of simulated.
    pub cached: bool,
}

/// Record the end-to-end metrics of unprofiled passes: the medians over
/// passes of per-preset kips (over simulated operations only, so result
/// cache hits do not count as simulator speed), latency percentiles,
/// completion rate, set-up time and peak resident memory.
pub fn record_end_to_end(outcome: &mut Outcome, passes: &[PassTimes]) {
    for (p, (_, label)) in PRESETS.iter().enumerate() {
        let kips: Vec<f64> = passes
            .iter()
            .map(|pass| {
                let (insts, secs) = pass
                    .ops
                    .iter()
                    .filter(|o| o.preset == p && !o.cached)
                    .fold((0u64, 0.0), |(i, s), o| (i + o.insts, s + o.secs));
                insts as f64 / 1e3 / secs
            })
            .collect();
        outcome.set(
            &format!("kips_{}", label.replace('-', "_")),
            median(&kips),
            "kinst/s",
        );
    }
    // Each pass runs the same operations, so a percentile is taken per
    // pass and its median over passes reported: one slow stretch of the
    // host then moves it no more than it moves the throughput.
    for (q, name) in [
        (0.50, "latency_p50_ms"),
        (0.90, "latency_p90_ms"),
        (0.99, "latency_p99_ms"),
    ] {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|p| percentile(&p.ops.iter().map(|o| o.secs * 1e3).collect::<Vec<_>>(), q))
            .collect();
        outcome.set(name, median(&per_pass), "ms");
    }
    let samples = passes.iter().map(|p| p.ops.len()).sum::<usize>();
    outcome.check("latency_samples", Json::int(samples as u64));
    let rates: Vec<f64> = passes.iter().map(|p| p.ops.len() as f64 / p.wall).collect();
    outcome.set("jobs_per_s", median(&rates), "1/s");
    let setups: Vec<f64> = passes.iter().map(|p| p.setup).collect();
    outcome.set("setup_s", median(&setups), "s");
    let rss: Vec<f64> = passes.iter().map(|p| p.rss_mb).collect();
    outcome.set("peak_rss_mb", median(&rss), "MB");
}

/// Work counts of untimed reference runs per preset: instructions, memory
/// events, LD/ST retry cycles and memory accesses.
#[derive(Debug, Default)]
pub struct RefCounts([[u64; 4]; 3]);

impl RefCounts {
    /// Add one reference run of preset `p`.
    pub fn add(&mut self, p: usize, r: &SimulationResult) {
        let stat = |id| r.stat(id).unwrap_or(0.0) as u64;
        let row = [
            r.instructions(),
            stat(StatId::MemEvents),
            stat(StatId::MemRetries),
            stat(StatId::MemAccesses),
        ];
        for (c, v) in self.0[p].iter_mut().zip(row) {
            *c += v;
        }
    }

    /// Record the `sim.*` work ratios of the presets with cycle-accurate
    /// memory (the only ones that count memory events and retries).
    pub fn record(&self, outcome: &mut Outcome) {
        for (p, (preset, label)) in PRESETS.iter().enumerate() {
            if *preset == swiftsim_core::SimulatorPreset::SwiftMemory {
                continue;
            }
            let [insts, events, retries, accesses] = self.0[p];
            outcome.set(
                &format!("{label}.sim.mem_events_per_kinst"),
                events as f64 * 1e3 / insts.max(1) as f64,
                "count",
            );
            outcome.set(
                &format!("{label}.sim.mem_retry_ratio"),
                retries as f64 / accesses.max(1) as f64,
                "ratio",
            );
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 1] of `v`; 0 if empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Mean absolute percentage error of `(prediction, reference)` pairs.
pub fn mape_pct(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let sum: f64 = pairs
        .iter()
        .map(|&(p, r)| ((p - r) / r.max(1.0)).abs())
        .sum();
    100.0 * sum / pairs.len() as f64
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a result's simulated stats (the `StatId` catalog), as hex.
pub fn stats_digest(result: &SimulationResult) -> String {
    let text: String = result
        .stats()
        .iter()
        .map(|(id, v)| format!("{}={};", id.name(), v.to_bits()))
        .collect();
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// Restart this process's peak-RSS tracking at the current RSS, so the
/// next [`peak_rss_mb`] covers only what follows.
///
/// # Errors
///
/// Fails when the kernel does not reset the peak: `VmHWM` would then count
/// from process start, input generation included, and hide per-pass
/// memory changes.
pub fn reset_peak_rss() -> Result<(), String> {
    let before = status_kb("VmHWM:")?;
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))?;
    let (after, rss) = (status_kb("VmHWM:")?, status_kb("VmRSS:")?);
    // A reset peak drops to the current RSS. A peak that was already there
    // cannot show it, and then nothing is hidden; 8 MB of slack covers the
    // kernel's approximate RSS counters.
    if after >= before && before > rss + 8192.0 {
        return Err(format!(
            "peak RSS not reset: VmHWM stays at {after} kB, VmRSS is {rss} kB"
        ));
    }
    Ok(())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(status_kb("VmHWM:")? / 1024.0)
}

/// A `kB` field of `/proc/self/status`.
fn status_kb(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no {key} in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!((mape_pct(&[(110.0, 100.0), (90.0, 100.0)]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }
}
