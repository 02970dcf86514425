//! The `serve-sweep` workload: an in-process `serve` daemon driven
//! closed-loop by two client connections.
//!
//! The traffic follows the usage the serve daemon is built for: a campaign
//! sweep over the same traces resubmitted as a design converges. Each
//! client owns half of the seeded trace files and submits, one single-job
//! spec at a time, the sweep of its traces over every preset × scheduler
//! pair in campaign order, then the same sweep twice again. That makes
//! 1/18 of the jobs fresh (a trace's first job), 5/18 reuse a trace under
//! another preset or scheduler (decoded-kernel cache hits) and 2/3 repeat
//! an earlier job exactly (warm result-cache hits). A round runs both streams
//! to completion on a new daemon with a new result-cache directory; rounds
//! repeat until the time budget is spent, so every round starts from empty
//! caches.

use crate::inputs::seeded_app;
use crate::layers::{self, ProfSum, TracedPass, TwoThreadInput};
use crate::metrics::{
    mape_pct, median, peak_rss_mb, record_end_to_end, reset_peak_rss, stats_digest, Outcome,
    PassTimes, RefCounts, TimedOp,
};
use crate::{Ctx, PRESETS};
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use swiftsim_campaign::CacheMode;
use swiftsim_config::SchedulerPolicy;
use swiftsim_core::RunOptions;
use swiftsim_metrics::{Json, ProfModule};
use swiftsim_serve::client::ServeClient;
use swiftsim_serve::server::{self, ServeOptions};
use swiftsim_workloads::Scale;

const CLIENTS: usize = 2;
/// How often each client submits its sweep: once cold, then twice
/// unchanged.
const SUBMISSIONS: usize = 3;
/// The (preset index, scheduler) grid each trace is swept over, in the
/// order a campaign expands it: preset outer, scheduler inner.
const COMBOS: [(usize, &str); 6] = [
    (0, "gto"),
    (0, "lrr"),
    (1, "gto"),
    (1, "lrr"),
    (2, "gto"),
    (2, "lrr"),
];
/// The combo that runs preset `p` under gto, the default scheduler.
fn gto(p: usize) -> usize {
    COMBOS
        .iter()
        .position(|&c| c == (p, "gto"))
        .expect("every preset runs under gto")
}

const RESULT_TIMEOUT: Duration = Duration::from_secs(120);

/// One job of a client's stream: a trace (global index) and a combo.
#[derive(Debug, Clone, Copy)]
struct Job {
    trace: usize,
    combo: usize,
}

/// The job stream of a client owning `traces`: the campaign sweep of
/// those traces over [`COMBOS`] (trace outer), submitted
/// [`SUBMISSIONS`] times.
fn stream(traces: Range<usize>) -> Vec<Job> {
    let sweep: Vec<Job> = traces
        .flat_map(|trace| (0..COMBOS.len()).map(move |combo| Job { trace, combo }))
        .collect();
    sweep.repeat(SUBMISSIONS)
}

/// How many jobs of a stream are fresh, shared and repeats, in that order.
fn shares(jobs: &[Job]) -> [usize; 3] {
    let mut counts = [0; 3];
    for (i, job) in jobs.iter().enumerate() {
        let earlier = &jobs[..i];
        let kind = if earlier
            .iter()
            .any(|e| e.trace == job.trace && e.combo == job.combo)
        {
            2
        } else if earlier.iter().any(|e| e.trace == job.trace) {
            1
        } else {
            0
        };
        counts[kind] += 1;
    }
    counts
}

struct TraceFile {
    app: &'static str,
    path: PathBuf,
    insts: u64,
}

fn spec_text(trace: &TraceFile, combo: usize) -> String {
    let (preset, scheduler) = COMBOS[combo];
    format!(
        "name = perfbench\ntrace = {}\npreset = {}\nscheduler = {scheduler}\nthreads = 1\n",
        trace.path.display(),
        PRESETS[preset].1
    )
}

/// A result's JSON without its host wall-time fields.
fn without_wall(json: &Json) -> Json {
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !k.starts_with("wall"))
                .map(|(k, v)| (k.clone(), without_wall(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_wall).collect()),
        other => other.clone(),
    }
}

/// One finished job as its client saw it.
struct JobRec {
    preset: usize,
    latency: f64,
    submit: f64,
    insts: u64,
    /// Answered from the result cache.
    cached: bool,
    err: Option<String>,
    /// Profiler rows, simulate wall ms and cycles of a freshly simulated
    /// profiled row.
    prof: Option<(ProfSum, f64, u64)>,
}

fn prof_of_row(row: &Json) -> Option<(ProfSum, f64, u64)> {
    let modules = row.get("profile")?.get("modules")?;
    let mut sum = ProfSum::default();
    for m in ProfModule::ALL {
        if let Some(v) = modules.get(m.name()) {
            let f = |k| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            sum.ms[m.index()] = f("wall_ms");
            sum.events[m.index()] = f("events") as u64;
            sum.cycles[m.index()] = f("cycles") as u64;
        }
    }
    let result = row.get("result")?;
    let wall_ms = result.get("wall_time_us")?.as_f64()? / 1e3;
    Some((sum, wall_ms, result.get("cycles")?.as_u64()?))
}

/// Submit one job and wait for its row; check it against the direct run.
fn one_job(
    client: &mut ServeClient,
    name: &str,
    spec: &str,
    expect: &Json,
    insts: u64,
) -> (f64, f64, Result<Json, String>) {
    let t0 = Instant::now();
    let submitted = client.submit(spec, name, 0);
    let submit = t0.elapsed().as_secs_f64();
    let report = submitted.map_err(|e| e.to_string()).and_then(|(job, _)| {
        client
            .wait_result(job, RESULT_TIMEOUT)
            .map_err(|e| e.to_string())
    });
    let latency = t0.elapsed().as_secs_f64();
    let checked = report.and_then(|report| {
        let rows = report.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
        let [row] = rows else {
            return Err(format!("{} rows for one job", rows.len()));
        };
        let status = row.get("status").and_then(Json::as_str).unwrap_or("?");
        if status != "ok" && status != "cached" {
            return Err(format!("status {status}: {:?}", row.get("error")));
        }
        let result = row.get("result").ok_or("row without result")?;
        if result.get("instructions").and_then(Json::as_u64) != Some(insts) {
            return Err(format!("instructions differ from the trace's {insts}"));
        }
        if without_wall(result) != *expect {
            return Err("row differs from a direct run".to_owned());
        }
        Ok(row.clone())
    });
    (submit, latency, checked)
}

struct Round {
    setup: f64,
    wall: f64,
    rss_mb: f64,
    traced: bool,
    jobs: Vec<JobRec>,
    /// `stats` and `metrics` replies of a traced round.
    stats: Option<(Json, Json)>,
}

/// Everything a round needs: the trace files, each client's job stream
/// and every job's expected result (indexed by trace, then combo).
struct Sweep {
    traces: Vec<TraceFile>,
    streams: Vec<Vec<Job>>,
    expect: Vec<Vec<Json>>,
}

fn run_round(ctx: &Ctx, index: usize, traced: bool, sweep: &Sweep) -> Result<Round, String> {
    let dir = ctx.scratch.join("serve");
    let slots = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(CLIENTS);
    let opts = ServeOptions {
        listen: "127.0.0.1:0".to_owned(),
        local_slots: Some(slots),
        cache_dir: dir.join(format!("cache-{index}")),
        cache: CacheMode::Use,
        trace_out: traced.then(|| dir.join(format!("trace-{index}.json"))),
        ..ServeOptions::default()
    };
    reset_peak_rss()?;
    let t0 = Instant::now();
    let handle = server::start(opts).map_err(|e| format!("serve start: {e}"))?;
    let addr = handle.addr().to_string();
    let mut control = ServeClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    control.ping().map_err(|e| format!("ping: {e}"))?;
    let setup = t0.elapsed().as_secs_f64();

    let started = Instant::now();
    let jobs: Vec<JobRec> = std::thread::scope(|s| {
        let handles: Vec<_> = sweep
            .streams
            .iter()
            .enumerate()
            .map(|(c, jobs)| {
                let addr = &addr;
                s.spawn(move || {
                    let name = format!("perfbench-client-{c}");
                    let mut client =
                        ServeClient::connect(addr).map_err(|e| format!("connect: {e}"));
                    jobs.iter()
                        .map(|j| {
                            let trace = &sweep.traces[j.trace];
                            let (submit, latency, row) = match client.as_mut() {
                                Ok(client) => {
                                    let spec = spec_text(trace, j.combo);
                                    let expect = &sweep.expect[j.trace][j.combo];
                                    one_job(client, &name, &spec, expect, trace.insts)
                                }
                                Err(e) => (f64::INFINITY, f64::INFINITY, Err(e.clone())),
                            };
                            let status = row
                                .as_ref()
                                .ok()
                                .and_then(|r| r.get("status").and_then(Json::as_str));
                            let fresh = row.as_ref().ok().filter(|_| status == Some("ok"));
                            JobRec {
                                preset: COMBOS[j.combo].0,
                                latency: if row.is_ok() { latency } else { f64::INFINITY },
                                submit,
                                insts: trace.insts,
                                cached: status == Some("cached"),
                                prof: fresh.and_then(prof_of_row),
                                err: row.err().map(|e| format!("{}: {e}", trace.path.display())),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();

    let stats = traced.then(|| {
        let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
        let (_, metrics) = control.metrics().map_err(|e| format!("metrics: {e}"))?;
        Ok::<_, String>((stats, metrics))
    });
    drop(control);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir.join(format!("cache-{index}")));
    let _ = std::fs::remove_file(dir.join(format!("trace-{index}.json")));
    let stats = stats.transpose()?;
    Ok(Round {
        setup,
        wall,
        rss_mb: peak_rss_mb()?,
        traced,
        jobs,
        stats,
    })
}

/// Write the trace files and compute every distinct job's expected row by
/// a direct `run()` of the same job.
fn prepare(ctx: &Ctx, outcome: &mut Outcome) -> Result<Sweep, String> {
    let dir = ctx.scratch.join("serve");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut traces = Vec::new();
    for w in swiftsim_workloads::suite() {
        let trace = seeded_app(&w, Scale::Tiny, ctx.seed);
        let path = dir.join(format!("{}.sstraceb", w.name));
        trace.write_binary_file(&path).map_err(|e| e.to_string())?;
        traces.push(TraceFile {
            app: w.name,
            path,
            insts: trace.num_insts(),
        });
    }
    let n = traces.len();
    let streams: Vec<Vec<Job>> = (0..CLIENTS)
        .map(|c| stream(c * n / CLIENTS..(c + 1) * n / CLIENTS))
        .collect();

    let gpu = swiftsim_config::presets::rtx2080ti();
    let mut expect = vec![vec![Json::Null; COMBOS.len()]; traces.len()];
    let mut cycles = vec![[None; COMBOS.len()]; traces.len()];
    let mut counts = RefCounts::default();
    // The streams sweep every trace over every combo.
    for job in streams.iter().flatten() {
        if expect[job.trace][job.combo] != Json::Null {
            continue;
        }
        let (preset, scheduler) = COMBOS[job.combo];
        let mut cfg = gpu.clone();
        cfg.sm.scheduler = scheduler
            .parse::<SchedulerPolicy>()
            .map_err(|e| e.to_string())?;
        let trace = &traces[job.trace];
        let source = swiftsim_trace::open_trace(&trace.path).map_err(|e| e.to_string())?;
        let options = RunOptions::default().with_preset(PRESETS[preset].0);
        let r = swiftsim_core::run(&*source, &cfg, &options)
            .map_err(|e| format!("{}: {e}", trace.path.display()))?;
        counts.add(preset, &r);
        cycles[job.trace][job.combo] = Some(r.cycles);
        outcome.digests.push((
            format!("{}/{}/{scheduler}", r.app, PRESETS[preset].1),
            Json::str(stats_digest(&r)),
        ));
        expect[job.trace][job.combo] = without_wall(&r.to_json());
    }
    counts.record(outcome);
    for p in 1..PRESETS.len() {
        let pairs: Vec<(f64, f64)> = cycles
            .iter()
            .filter_map(|c| Some((c[gto(p)]? as f64, c[gto(0)]? as f64)))
            .collect();
        outcome.set_cycles_err(p, mape_pct(&pairs));
    }
    Ok(Sweep {
        traces,
        streams,
        expect,
    })
}

/// Run the serve sweep for the context's budget.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let sweep = prepare(ctx, &mut outcome)?;
    ctx.progress(&format!(
        "serve-sweep: {} traces, {} jobs per round",
        sweep.traces.len(),
        sweep.streams.iter().map(Vec::len).sum::<usize>()
    ));

    // As in `fig4-1t`: one unrecorded warm-up round, then
    // rounds (alternately traced, in a traced run) until the budget is spent.
    let mut run_checked = |index: usize, traced: bool| {
        let round = run_round(ctx, index, traced, &sweep)?;
        for job in &round.jobs {
            outcome.op(job.err.clone());
        }
        Ok::<_, String>(round)
    };
    run_checked(0, false)?;
    let deadline = Instant::now() + ctx.budget;
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let traced = ctx.traced && rounds.len() % 2 == 1;
        rounds.push(run_checked(rounds.len() + 1, traced)?);
        let enough = !ctx.traced || rounds.len() >= 2;
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    ctx.progress(&format!("serve-sweep: {} rounds", rounds.len()));
    outcome.check("rounds", Json::int(rounds.len() as u64));
    let [fresh, shared, repeat] = sweep.streams.iter().fold([0; 3], |acc, s| {
        let c = shares(s);
        [acc[0] + c[0], acc[1] + c[1], acc[2] + c[2]]
    });
    outcome.check(
        "shares",
        Json::obj(vec![
            ("fresh", Json::int(fresh as u64)),
            ("shared", Json::int(shared as u64)),
            ("repeat", Json::int(repeat as u64)),
        ]),
    );

    let untraced: Vec<PassTimes> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| PassTimes {
            wall: r.wall,
            setup: r.setup,
            rss_mb: r.rss_mb,
            ops: r
                .jobs
                .iter()
                .map(|j| TimedOp {
                    preset: j.preset,
                    secs: j.latency,
                    insts: j.insts,
                    cached: j.cached,
                })
                .collect(),
        })
        .collect();
    record_end_to_end(&mut outcome, &untraced);

    if ctx.traced {
        record_traced(&mut outcome, &rounds, &sweep)?;
        ctx.progress("layer probes done");
    }
    Ok(outcome)
}

/// Per-layer metrics of a traced run: simulator rows of freshly simulated
/// jobs, serve stage latencies and cache ratios, and the outside probes.
fn record_traced(outcome: &mut Outcome, rounds: &[Round], sweep: &Sweep) -> Result<(), String> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let passes: Vec<TracedPass> = traced
        .iter()
        .map(|round| {
            let mut t = TracedPass::default();
            for (job, (prof, wall_ms, cycles)) in round
                .jobs
                .iter()
                .filter_map(|j| Some((j, j.prof.as_ref()?)))
            {
                t.rows[job.preset].add(prof);
                t.wall_ms[job.preset] += wall_ms;
                t.sim_cycles[job.preset] += cycles;
            }
            t
        })
        .collect();
    layers::record_profile(outcome, &passes);
    let walls: Vec<(bool, f64)> = rounds.iter().map(|r| (r.traced, r.wall)).collect();
    layers::record_overhead(outcome, &walls);

    let submits: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.jobs.iter().map(|j| j.submit * 1e3))
        .collect();
    outcome.set("serve.submit_rpc_ms", median(&submits), "ms");
    for (hist, name) in [
        ("queue_wait_us", "serve.queue_wait_ms"),
        ("decode_us", "serve.decode_ms"),
        ("simulate_us", "serve.simulate_ms"),
        ("cache_lookup_us", "serve.cache_lookup_ms"),
        ("store_us", "serve.store_ms"),
        ("merge_us", "serve.merge_ms"),
    ] {
        let p50s: Vec<f64> = traced
            .iter()
            .filter_map(|r| {
                let (_, metrics) = r.stats.as_ref()?;
                metrics.get("histograms")?.get(hist)?.get("p50")?.as_f64()
            })
            .map(|us| us / 1e3)
            .collect();
        // A stage no task reached (merge is remote-only) stays absent.
        if !p50s.is_empty() {
            outcome.set(name, median(&p50s), "ms");
        }
    }
    if let Some((stats, _)) = traced.first().and_then(|r| r.stats.as_ref()) {
        let ratio = |cache: &str| -> Option<f64> {
            let c = stats.get(cache)?;
            let hits = c.get("hits")?.as_f64()?;
            Some(hits / (hits + c.get("misses")?.as_f64()?).max(1.0))
        };
        if let Some(r) = ratio("result_cache") {
            outcome.set("serve.result_cache_hit_ratio", r, "ratio");
        }
        if let Some(r) = ratio("kernel_cache") {
            outcome.set("serve.kernel_cache_hit_ratio", r, "ratio");
        }
        let requeued = stats
            .get("counters")
            .and_then(|c| c.get("tasks_requeued"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        outcome.set("serve.tasks_requeued", requeued, "count");
    }
    let gpu = swiftsim_config::presets::rtx2080ti();
    let paths: Vec<PathBuf> = sweep.traces.iter().map(|t| t.path.clone()).collect();
    layers::probe(outcome, &gpu, &paths)?;
    let two_thread: Vec<TwoThreadInput> = sweep
        .traces
        .iter()
        .zip(&sweep.expect)
        .map(|(t, e)| TwoThreadInput {
            app: t.app,
            path: t.path.clone(),
            ref_cycles: e[gto(0)].get("cycles").and_then(Json::as_u64),
        })
        .collect();
    layers::two_thread_probe(outcome, &gpu, &two_thread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_have_the_stated_shares() {
        let jobs = stream(10..20);
        assert!(jobs.iter().all(|j| (10..20).contains(&j.trace)));
        // Per trace: one fresh job and five under other combos; then the
        // whole sweep twice again.
        assert_eq!(shares(&jobs), [10, 50, 120]);
    }
}
