//! `fleet_cold`: `run_fleet` under marginal-gain SM budgeting and under
//! whole-device FCFS, from an empty cache, on the 8/15/30-SM fleet.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gcs_core::runner::{Pipeline, RunConfig};
use gcs_core::{InterferenceMatrix, SweepEngine, SweepStats};
use gcs_fleet::{
    allocate, run_fleet, DeviceProfile, FleetMode, FleetPredictor, FleetReport, FleetRunConfig,
    FleetSpec,
};
use gcs_sched::Job;
use gcs_sim::config::GpuConfig;
use gcs_workloads::{ArrivalTrace, Benchmark, Scale};

use crate::sweep::set_sim_layers;
use crate::trace::Tracer;
use crate::util::{self, median, nanos, secs};
use crate::{Ctx, Report, Rounds};

/// The `fleet_sim` job pool: a compute/memory mix with real
/// scalability knees for the marginal-gain loop.
const POOL: [Benchmark; 6] = [
    Benchmark::Gups,
    Benchmark::Hs,
    Benchmark::Lud,
    Benchmark::Sad,
    Benchmark::Fft,
    Benchmark::Spmv,
];
const WORKERS: usize = 2;
/// Seeded wave traces per round, each `WAVES` waves of `WAVE_LEN` jobs.
const TRACES: usize = 8;
const WAVES: usize = 4;
const WAVE_LEN: usize = 6;
/// Untimed warm-up rounds; set-up time is their median.
const WARMUPS: usize = 3;
/// `allocate` calls timed for `fleet.alloc.us`.
const ALLOC_CALLS: usize = 1000;

fn spec() -> FleetSpec {
    FleetSpec::new(
        [("gpu8", 8), ("gpu15", 15), ("gpu30", 30)]
            .into_iter()
            .map(|(id, num_sms)| DeviceProfile {
                id: id.into(),
                num_sms,
            })
            .collect(),
    )
    .expect("a valid three-device fleet")
}

fn run_config() -> RunConfig {
    RunConfig {
        gpu: GpuConfig::test_small(),
        scale: Scale::TEST,
        concurrency: 2,
    }
}

/// Marginal-gain and FCFS reports, one pair per trace.
type FleetOut = Vec<(FleetReport, FleetReport)>;

struct FleetRound {
    out: FleetOut,
    traces: Vec<ArrivalTrace>,
    stats: SweepStats,
    wall: f64,
}

/// One round over a fresh cache directory: the alone profiles on the
/// base device, then both fleet runs of every trace.
fn fleet_round(
    dir: &Path,
    seeds: &[u64],
    profiling: bool,
    tr: &mut Tracer,
) -> Result<FleetRound, String> {
    let cfg = run_config();
    let spec = spec();
    let start = Instant::now();
    let engine = Arc::new(
        SweepEngine::new(WORKERS)
            .with_cache_dir(dir)
            .with_phase_profiling(profiling),
    );
    let s = tr.begin("core.pipeline");
    // The fleet path never consults the interference matrix.
    let pipeline = Pipeline::with_matrix_and_engine(
        cfg.clone(),
        InterferenceMatrix::synthetic_paper_shape(),
        Arc::clone(&engine),
    )
    .map_err(|e| format!("pipeline: {e}"))?;
    tr.end(s);
    // Waves every half mean alone runtime, so each wave overlaps the
    // previous one's drain.
    let mean_alone = POOL
        .iter()
        .map(|&b| pipeline.profile(b).cycles as f64)
        .sum::<f64>()
        / POOL.len() as f64;
    let gap = (mean_alone / 2.0).max(1.0) as u64;
    let traces: Vec<ArrivalTrace> = seeds
        .iter()
        .map(|&seed| ArrivalTrace::waves(&POOL, WAVES, WAVE_LEN, gap, seed))
        .collect();
    let mut out = Vec::new();
    for trace in &traces {
        if tr.on() {
            let s = tr.begin("fleet.predict.warm");
            FleetPredictor::warm(&engine, &cfg.gpu, cfg.scale, &spec, &POOL)
                .map_err(|e| format!("predictor warm-up: {e}"))?;
            tr.end(s);
        }
        let mut run = |mode, span| {
            let s = tr.begin(span);
            let r = run_fleet(
                &pipeline,
                &spec,
                &FleetRunConfig {
                    queue_capacity: trace.len(),
                    mode,
                },
                trace,
            )
            .map_err(|e| format!("run_fleet: {e}"));
            tr.end(s);
            r
        };
        let mg = run(FleetMode::MarginalGain, "fleet.run")?;
        let fcfs = run(FleetMode::WholeDeviceFcfs, "fleet.run_fcfs")?;
        out.push((mg, fcfs));
    }
    Ok(FleetRound {
        out,
        traces,
        stats: engine.stats(),
        wall: secs(start),
    })
}

pub fn cold(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let mut rng = util::Rng::new(ctx.seed, 3);
    let seeds: Vec<u64> = (0..TRACES).map(|_| rng.next_u64()).collect();
    let spec = spec();

    let mut setups = Vec::new();
    let mut reference = None;
    for i in 0..WARMUPS {
        let t = Instant::now();
        let dir = util::fresh_dir(&ctx.work, &format!("fleet-setup-{i}"));
        let round = fleet_round(&dir, &seeds, false, &mut Tracer::new(false))?;
        setups.push(secs(t));
        util::remove_dir(&dir);
        match &reference {
            None => reference = Some(round),
            Some(r) if r.out != round.out => return Err("warm-up rounds disagree".into()),
            Some(_) => {}
        }
    }
    let reference = reference.expect("at least one warm-up round");
    rep.set("setup_s", median(&setups));
    for (trace, (mg, fcfs)) in reference.traces.iter().zip(&reference.out) {
        check_report(rep, &spec, trace, mg);
        check_report(rep, &spec, trace, fcfs);
        rep.check(fcfs.groups.iter().all(|g| g.stp == 1.0), || {
            "a whole-device FCFS group has STP other than 1.0".into()
        });
    }

    let mut tr = Tracer::new(false);
    let mut last_dir = None;
    let mut sim_cycles = 0u64;
    let mut untraced_wall = 0.0;
    let mut traced_stats = util::no_stats();
    let mut untraced_stats = util::no_stats();
    let rounds = Rounds::run(ctx, &mut tr, |i, tr| {
        let dir = util::fresh_dir(&ctx.work, &format!("fleet-{i}"));
        let traced = ctx.trace && i % 2 == 1;
        let round = fleet_round(&dir, &seeds, traced, tr)?;
        if round.out != reference.out {
            return Err(format!("fleet round {i} differs from the warm-up round"));
        }
        if traced {
            traced_stats = round.stats;
        } else {
            untraced_stats = round.stats;
            sim_cycles += round.stats.sim_cycles;
            untraced_wall += round.wall;
        }
        if let Some(old) = last_dir.replace(dir) {
            util::remove_dir(&old);
        }
        Ok(round.wall)
    })?;
    rep.attempted = rounds.count() as u64;
    let last_dir = last_dir.expect("at least one round ran");

    println!(
        "ledger: workers={WORKERS} traces/round={TRACES}x{} rounds={} {}",
        WAVES * WAVE_LEN,
        rounds.count(),
        util::sweep_line("round sweep", &reference.stats)
    );

    let walls = &rounds.untraced;
    rep.set("wall_s", util::mean(walls));
    rep.set("sim_mcycles_per_s", sim_cycles as f64 / 1e6 / untraced_wall);
    // Every workload prints every end-to-end metric. This one has no
    // per-op latency, so the two op figures are copies of `wall_s`: the
    // round is the op.
    rep.set("ops_per_s", walls.len() as f64 / untraced_wall);
    rep.set("op_p50_us", util::mean(walls) * 1e6);
    rep.set("op_p99_us", util::percentiles(walls).p99_ns as f64 / 1e3);
    let out = &reference.out;
    let mg_stp: f64 = out.iter().map(|(mg, _)| mg.stp()).sum();
    let fcfs_stp: f64 = out.iter().map(|(_, f)| f.stp()).sum();
    rep.set("stp", mg_stp / TRACES as f64);
    rep.set(
        "antt",
        out.iter().map(|(mg, _)| mg.antt()).sum::<f64>() / TRACES as f64,
    );
    // Every workload prints every end-to-end metric. Whole-device FCFS
    // runs every job alone on its device, with STP exactly 1 per group
    // (checked above), so both ratios are copies of `stp`; the fleet
    // splits SMs by predicted marginal gain, never by SMRA, so
    // `smra_vs_even` is the constant 1.
    rep.set("ilp_vs_fcfs", mg_stp / fcfs_stp);
    rep.set("ilp_vs_serial", mg_stp / fcfs_stp);
    rep.set("smra_vs_even", 1.0);

    if ctx.trace {
        set_sim_layers(rep, &traced_stats, &untraced_stats, WORKERS);
        let (totals, _) = tr.summary();
        let per_round = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_s / rounds.traced.len() as f64)
        };
        rep.set("fleet.predict.warm_s", per_round("fleet.predict.warm"));
        rep.set("fleet.run_s", per_round("fleet.run"));
        rep.set(
            "fleet.churn",
            out.iter().map(|(mg, _)| mg.churn as f64).sum(),
        );
        let alloc = alloc_us(rep, &last_dir, &reference.traces[0])?;
        rep.set("fleet.alloc.us", alloc);
        rep.spans(&tr, &rounds);
    }
    util::remove_dir(&last_dir);
    Ok(())
}

/// Median host time of one `allocate` call planning the first wave of
/// `trace` over the idle fleet, with the predictor read from the cache
/// a round filled; checks that every budget fits its device.
fn alloc_us(rep: &mut Report, dir: &Path, trace: &ArrivalTrace) -> Result<f64, String> {
    let cfg = run_config();
    let spec = spec();
    let engine = SweepEngine::new(WORKERS).with_cache_dir(dir);
    let predictor = FleetPredictor::warm(&engine, &cfg.gpu, cfg.scale, &spec, &POOL)
        .map_err(|e| format!("predictor warm-up: {e}"))?;
    rep.check(engine.stats().jobs_simulated == 0, || {
        "a warm predictor simulated".into()
    });
    let pending: Vec<Job> = trace.arrivals()[..WAVE_LEN]
        .iter()
        .enumerate()
        .map(|(id, a)| Job {
            id,
            bench: a.bench,
            arrival: a.time,
        })
        .collect();
    let free: Vec<usize> = (0..spec.len()).collect();
    let mut lat = Vec::with_capacity(ALLOC_CALLS);
    let mut plan = None;
    for _ in 0..ALLOC_CALLS {
        let t = Instant::now();
        plan = Some(std::hint::black_box(allocate(
            &predictor, &spec, &pending, &free, 2,
        )));
        lat.push(nanos(t) as f64 / 1e3);
    }
    let plan = plan.expect("at least one call");
    for a in &plan.assignments {
        let sms = spec.devices()[a.device].num_sms;
        rep.check(a.budgets.iter().sum::<u32>() <= sms, || {
            format!(
                "allocate budgets {:?} exceed the {sms} SMs of device {}",
                a.budgets, a.device
            )
        });
    }
    Ok(median(&lat))
}

/// Every job completes exactly once, nothing is rejected, and no
/// group's SM budgets exceed its device.
fn check_report(rep: &mut Report, spec: &FleetSpec, trace: &ArrivalTrace, r: &FleetReport) {
    let ids: Vec<usize> = r.jobs.iter().map(|j| j.id).collect();
    rep.check(
        ids == (0..trace.len()).collect::<Vec<_>>() && r.rejections.is_empty(),
        || format!("{}: not every job completed exactly once", r.mode),
    );
    for g in &r.groups {
        let budget: u32 = g
            .jobs
            .iter()
            .filter_map(|id| r.jobs.iter().find(|j| j.id == *id))
            .map(|j| j.budget_sms)
            .sum();
        let sms = spec.devices()[g.device].num_sms;
        rep.check(budget <= sms, || {
            format!(
                "{}: a group's budgets ({budget} SMs) exceed device {} ({sms} SMs)",
                r.mode, g.device
            )
        });
    }
}
