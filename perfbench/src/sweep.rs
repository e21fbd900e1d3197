//! `sweep_cold` and `sweep_warm`: the `fig41_two_app` pipeline from an
//! empty cache, and its read side replayed from a cache filled in set-up.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gcs_core::classify::AppClass;
use gcs_core::ilp::build_problem;
use gcs_core::pattern::{enumerate_patterns, Pattern};
use gcs_core::queues::thesis_queue_14;
use gcs_core::runner::{AllocationPolicy, GroupingPolicy, Pipeline, QueueReport, RunConfig};
use gcs_core::sweep::CorunMode;
use gcs_core::{classify_suite, InterferenceMatrix, SweepEngine, SweepStats};
use gcs_milp::enumerate::{infer_bounds, solve_by_enumeration};
use gcs_sim::config::GpuConfig;
use gcs_workloads::{Benchmark, Scale};

use crate::trace::Tracer;
use crate::util::{self, secs};
use crate::{Ctx, Report, Rounds};

/// Sweep workers of the cold pipeline and of every set-up fill.
pub const COLD_WORKERS: usize = 2;
/// Sweep workers of a warm op: its batches are millisecond-long cache
/// reads, where a second thread only adds spawn noise.
const WARM_WORKERS: usize = 1;
/// Seeded queues of `sweep_warm`; their lengths cycle through
/// `WARM_LENGTHS`, so every seed does the same amount of work.
const WARM_QUEUES: usize = 16;
const WARM_LENGTHS: [usize; 4] = [14, 28, 42, 56];
/// Largest lattice the exhaustive ILP oracle is asked to walk; larger
/// instances are checked by the dynamic-programming oracle below.
const ENUMERATION_POINTS: u64 = 2_000_000;

/// The `fig41_two_app` configuration: GTX 480, TEST scale, pairs.
pub fn run_config() -> RunConfig {
    RunConfig {
        gpu: GpuConfig::gtx480(),
        scale: Scale::TEST,
        concurrency: 2,
    }
}

/// The four queue runs of the cold pipeline, in report order.
const COLD_POLICIES: [(GroupingPolicy, AllocationPolicy, &str); 4] = [
    (
        GroupingPolicy::Serial,
        AllocationPolicy::Even,
        "core.runner.queue",
    ),
    (
        GroupingPolicy::Fcfs,
        AllocationPolicy::Even,
        "core.runner.queue",
    ),
    (
        GroupingPolicy::Ilp,
        AllocationPolicy::Even,
        "core.runner.queue",
    ),
    (
        GroupingPolicy::Ilp,
        AllocationPolicy::Smra,
        "core.smra.queue",
    ),
];
/// The three Even queue runs of `sweep_warm`, in report order (the
/// same indices as the first three cold runs).
const EVEN_POLICIES: [GroupingPolicy; 3] = [
    GroupingPolicy::Serial,
    GroupingPolicy::Fcfs,
    GroupingPolicy::Ilp,
];
const SERIAL: usize = 0;
const FCFS: usize = 1;
const ILP: usize = 2;
const SMRA: usize = 3;

fn err(what: &str) -> impl Fn(gcs_core::CoreError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Everything one cold pipeline computes; rounds must agree bit for bit.
#[derive(Debug, PartialEq)]
struct ColdOut {
    matrix: InterferenceMatrix,
    reports: Vec<QueueReport>,
}

struct ColdRound {
    out: ColdOut,
    pipeline: Pipeline,
    /// Engine counters right after the interference matrix.
    matrix_stats: SweepStats,
    stats: SweepStats,
    /// Host time of `profile_suite` + `measure_full_with`.
    sweep_s: f64,
    wall: f64,
}

/// One `fig41_two_app` pipeline over the cache directory `dir`.
fn cold_pipeline(dir: &Path, profiling: bool, tr: &mut Tracer) -> Result<ColdRound, String> {
    let cfg = run_config();
    let queue = thesis_queue_14();
    let start = Instant::now();
    let engine = Arc::new(
        SweepEngine::new(COLD_WORKERS)
            .with_cache_dir(dir)
            .with_phase_profiling(profiling),
    );
    let s = tr.begin("core.sweep.profile");
    engine
        .profile_suite(&cfg.gpu, cfg.scale, &Benchmark::ALL)
        .map_err(err("profile_suite"))?;
    tr.end(s);
    let s = tr.begin("core.sweep.corun");
    let matrix = InterferenceMatrix::measure_full_with(&engine, &cfg.gpu, cfg.scale)
        .map_err(err("measure_full_with"))?;
    tr.end(s);
    let sweep_s = secs(start);
    let matrix_stats = engine.stats();
    let s = tr.begin("core.pipeline");
    let mut pipeline = Pipeline::with_matrix_and_engine(cfg, matrix.clone(), engine)
        .map_err(err("with_matrix_and_engine"))?;
    tr.end(s);
    let mut reports = Vec::new();
    for (grouping, alloc, span) in COLD_POLICIES {
        let s = tr.begin(span);
        reports.push(
            pipeline
                .run_queue(&queue, grouping, alloc)
                .map_err(err("run_queue"))?,
        );
        tr.end(s);
    }
    let wall = secs(start);
    Ok(ColdRound {
        out: ColdOut { matrix, reports },
        stats: pipeline.sweep_stats(),
        pipeline,
        matrix_stats,
        sweep_s,
        wall,
    })
}

/// `sweep_cold`: set-up is one untimed warm-up pipeline, whose outputs
/// are the reference every timed round must reproduce bit for bit.
pub fn cold(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let queue = thesis_queue_14();
    let setup_start = Instant::now();
    let dir = util::fresh_dir(&ctx.work, "cold-setup");
    let reference = cold_pipeline(&dir, false, &mut Tracer::new(false))?;
    rep.set("setup_s", secs(setup_start));
    util::remove_dir(&dir);

    // 14 alone runs plus every unordered pair, self-pairs included
    // (C(14,2) + 14 = 105), each simulated exactly once.
    let ms = reference.matrix_stats;
    rep.check(
        ms.jobs_simulated == 14 + 105 && ms.jobs_total == 14 + 119,
        || {
            format!(
                "the matrix step simulated {} of {} jobs, want 119 of 133",
                ms.jobs_simulated, ms.jobs_total
            )
        },
    );
    let p = &reference.pipeline;
    for (i, r) in reference.out.reports.iter().enumerate() {
        check_queue_report(rep, &queue, r, &format!("thesis queue policy {i}"));
    }
    let nodes = check_ilp_grouping(rep, p, &queue, &reference.out.reports[ILP], "thesis queue");
    rep.check(
        p.group(&queue, GroupingPolicy::Ilp).ok().as_ref()
            == Some(&groups_of(&reference.out.reports[SMRA])),
        || "ILP/SMRA ran other groups than the ILP grouping".into(),
    );

    let mut tr = Tracer::new(false);
    let mut last_dir = None;
    let mut sim_cycles = 0u64;
    let mut untraced_wall = 0.0;
    let mut traced_stats = util::no_stats();
    let mut untraced_stats = util::no_stats();
    let mut traced_writes = 0u64;
    let rounds = Rounds::run(ctx, &mut tr, |i, tr| {
        let dir = util::fresh_dir(&ctx.work, &format!("cold-{i}"));
        let traced = ctx.trace && i % 2 == 1;
        let round = cold_pipeline(&dir, traced, tr)?;
        if round.out != reference.out {
            return Err(format!("cold round {i} differs from the warm-up round"));
        }
        if traced {
            traced_stats = round.stats;
            traced_writes = util::dir_bytes(&dir);
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

    // The read side of the same cache: a fresh engine replays it bit
    // for bit and simulates nothing.
    let replay = cold_pipeline(&last_dir, false, &mut Tracer::new(false))?;
    rep.check(replay.out == reference.out, || {
        "warm replay differs from the cold results".into()
    });
    rep.check(replay.stats.jobs_simulated == 0, || {
        format!("warm replay simulated {} jobs", replay.stats.jobs_simulated)
    });
    util::remove_dir(&last_dir);

    println!(
        "ledger: workers={COLD_WORKERS} rounds={} {} | {}",
        rounds.count(),
        util::sweep_line("setup sweep", &reference.stats),
        util::sweep_line("replay sweep", &replay.stats)
    );

    let walls = &rounds.untraced;
    let pct = util::percentiles(walls);
    rep.set("wall_s", util::mean(walls));
    rep.set("sim_mcycles_per_s", sim_cycles as f64 / 1e6 / untraced_wall);
    // Every workload prints every end-to-end metric. This one has no
    // per-op latency, so the two op figures are copies of `wall_s`: the
    // round is the op.
    rep.set("ops_per_s", walls.len() as f64 / untraced_wall);
    rep.set("op_p50_us", util::mean(walls) * 1e6);
    rep.set("op_p99_us", pct.p99_ns as f64 / 1e3);
    let r = &reference.out.reports;
    rep.set(
        "ilp_vs_fcfs",
        r[ILP].device_throughput / r[FCFS].device_throughput,
    );
    rep.set(
        "ilp_vs_serial",
        r[ILP].device_throughput / r[SERIAL].device_throughput,
    );
    rep.set(
        "smra_vs_even",
        r[SMRA].device_throughput / r[ILP].device_throughput,
    );
    let (stp, antt) = stp_antt(p, std::slice::from_ref(&r[ILP]));
    rep.set("stp", stp);
    rep.set("antt", antt);

    if ctx.trace {
        set_sim_layers(rep, &traced_stats, &untraced_stats, COLD_WORKERS);
        rep.set("core.sweep.cache_write_bytes", traced_writes as f64);
        rep.set("milp.bb_nodes", nodes as f64);
        let (totals, _) = tr.summary();
        let per_round = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_s / rounds.traced.len() as f64)
        };
        rep.set("core.sweep.profile_s", per_round("core.sweep.profile"));
        rep.set("core.sweep.corun_s", per_round("core.sweep.corun"));
        rep.set("core.smra.queue_s", per_round("core.smra.queue"));
        rep.set("core.sweep.replay_us", replay.sweep_s * 1e6);
        rep.spans(&tr, &rounds);
    }
    Ok(())
}

/// Per-layer simulator and sweep figures of one round: the phase split
/// from a traced round (phase profiling on), everything else from an
/// untraced one, whose counters an untraced run reports too.
pub fn set_sim_layers(
    rep: &mut Report,
    traced: &SweepStats,
    untraced: &SweepStats,
    workers: usize,
) {
    let p = &traced.phases;
    rep.set("sim.phase.issue", p.issue as f64);
    rep.set("sim.phase.l1", p.l1 as f64);
    rep.set("sim.phase.l2", p.l2 as f64);
    rep.set("sim.phase.dram", p.dram as f64);
    rep.set("sim.phase.smra", p.smra as f64);
    rep.set("sim.phase.idle", p.idle as f64);
    let s = untraced;
    rep.set("sim.cycles", s.sim_cycles as f64);
    rep.set(
        "sim.host_ns_per_kcycle",
        s.serial_nanos as f64 / (s.sim_cycles as f64 / 1e3),
    );
    rep.set(
        "core.sweep.parallel_eff",
        s.serial_nanos as f64 / (s.wall_nanos as f64 * workers as f64),
    );
    rep.set("core.sweep.jobs_simulated", s.jobs_simulated as f64);
    rep.set("core.sweep.jobs_cached", s.jobs_cached as f64);
    if traced.sim_cycles != untraced.sim_cycles {
        println!(
            "ledger: a profiled round counts {} simulated cycles, an unprofiled one {}",
            traced.sim_cycles, untraced.sim_cycles
        );
    }
}

/// `sweep_warm`: set-up fills a fresh cache with every group the seeded
/// queues need; an op then replays one queue through a fresh engine.
pub fn warm(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let cfg = run_config();
    let mut rng = util::Rng::new(ctx.seed, 1);
    let queues: Vec<Vec<Benchmark>> = (0..WARM_QUEUES)
        .map(|i| rng.queue(WARM_LENGTHS[i % WARM_LENGTHS.len()]))
        .collect();

    let setup_start = Instant::now();
    let dir = util::fresh_dir(&ctx.work, "warm-cache");
    let engine = Arc::new(SweepEngine::new(COLD_WORKERS).with_cache_dir(&dir));
    let mut pipeline =
        Pipeline::new_with_engine(cfg.clone(), Arc::clone(&engine)).map_err(err("pipeline"))?;
    let mut groups: BTreeSet<Vec<Benchmark>> = BTreeSet::new();
    for q in &queues {
        for policy in EVEN_POLICIES {
            groups.extend(pipeline.group(q, policy).map_err(err("group"))?);
        }
    }
    let jobs: Vec<(Vec<Benchmark>, CorunMode)> =
        groups.into_iter().map(|g| (g, CorunMode::Even)).collect();
    engine
        .corun_batch(&cfg.gpu, cfg.scale, &jobs)
        .map_err(err("corun_batch"))?;
    let mut reference = Vec::new();
    for q in &queues {
        reference.push(even_runs(&mut pipeline, q, &mut Tracer::new(false))?);
    }
    let setup_s = secs(setup_start);
    rep.set("setup_s", setup_s);
    let setup_stats = engine.stats();
    // Every workload prints every end-to-end metric. The timed section
    // simulates nothing, so this is the set-up fill's simulation rate.
    rep.set(
        "sim_mcycles_per_s",
        setup_stats.sim_cycles as f64 / 1e6 / setup_s,
    );

    let mut nodes = 0;
    for (q, runs) in queues.iter().zip(&reference) {
        for r in runs {
            check_queue_report(rep, q, r, &format!("queue of {}", q.len()));
        }
        nodes += check_ilp_grouping(
            rep,
            &pipeline,
            q,
            &runs[ILP],
            &format!("queue of {}", q.len()),
        );
    }
    drop(engine);

    let mut tr = Tracer::new(false);
    let mut op_lat = util::OpLatency::default();
    let mut op_stats = util::no_stats();
    let rounds = Rounds::run(ctx, &mut tr, |_, tr| {
        let round_start = Instant::now();
        for (q, want) in queues.iter().zip(&reference) {
            let t = Instant::now();
            let op = tr.begin("warm.op");
            let (runs, stats) = warm_op(&cfg, &dir, q, tr)?;
            tr.end(op);
            let lat = secs(t);
            if !tr.on() {
                op_lat.push(lat);
            }
            if &runs != want {
                return Err(format!(
                    "a warm replay of a queue of {} differs from set-up",
                    q.len()
                ));
            }
            if stats.jobs_simulated != 0 {
                return Err(format!("a warm op simulated {} jobs", stats.jobs_simulated));
            }
            op_stats = stats;
        }
        Ok(secs(round_start))
    })?;
    rep.attempted = (rounds.count() * queues.len()) as u64;
    util::remove_dir(&dir);

    println!(
        "ledger: workers={COLD_WORKERS}/{WARM_WORKERS} (set-up/op) queues={} rounds={} {} | {}",
        queues.len(),
        rounds.count(),
        util::sweep_line("setup sweep", &setup_stats),
        util::sweep_line("last op sweep", &op_stats)
    );

    rep.set("wall_s", util::mean(&rounds.untraced));
    rep.set("ops_per_s", op_lat.count as f64 / op_lat.sum);
    rep.set("op_p50_us", op_lat.p50() * 1e6);
    rep.set("op_p99_us", op_lat.p99() * 1e6);
    let sum = |k: usize| {
        reference
            .iter()
            .map(|r| r[k].device_throughput)
            .sum::<f64>()
    };
    rep.set("ilp_vs_fcfs", sum(ILP) / sum(FCFS));
    rep.set("ilp_vs_serial", sum(ILP) / sum(SERIAL));
    // Every workload prints every end-to-end metric. The warm op runs
    // Even allocation only, so this is the constant 1.
    rep.set("smra_vs_even", 1.0);
    let ilp_runs: Vec<QueueReport> = reference.iter().map(|r| r[ILP].clone()).collect();
    let (stp, antt) = stp_antt(&pipeline, &ilp_runs);
    rep.set("stp", stp);
    rep.set("antt", antt);

    if ctx.trace {
        rep.set("core.sweep.jobs_simulated", op_stats.jobs_simulated as f64);
        rep.set("core.sweep.jobs_cached", op_stats.jobs_cached as f64);
        rep.set("milp.bb_nodes", nodes as f64);
        let (totals, _) = tr.summary();
        let mean_us = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_s * 1e6 / t.count as f64)
        };
        rep.set("core.sweep.replay_us", mean_us("core.sweep.replay"));
        rep.set("core.classify.us", mean_us("core.classify"));
        rep.set("core.ilp.solve_us", mean_us("core.ilp.group"));
        rep.set("core.runner.queue_us", mean_us("core.runner.queue"));
        rep.spans(&tr, &rounds);
    }
    Ok(())
}

/// Serial, FCFS and ILP queue runs with Even allocation.
fn even_runs(
    p: &mut Pipeline,
    q: &[Benchmark],
    tr: &mut Tracer,
) -> Result<Vec<QueueReport>, String> {
    let mut runs = Vec::new();
    for g in EVEN_POLICIES {
        let s = tr.begin("core.runner.queue");
        runs.push(
            p.run_queue(q, g, AllocationPolicy::Even)
                .map_err(err("run_queue"))?,
        );
        tr.end(s);
    }
    Ok(runs)
}

/// One warm op: a fresh engine over the filled cache, the pipeline
/// (`Pipeline::new_with_engine`'s two steps, spanned apart), then the
/// three queue runs.
fn warm_op(
    cfg: &RunConfig,
    dir: &Path,
    q: &[Benchmark],
    tr: &mut Tracer,
) -> Result<(Vec<QueueReport>, SweepStats), String> {
    let engine = Arc::new(SweepEngine::new(WARM_WORKERS).with_cache_dir(dir));
    let s = tr.begin("core.sweep.replay");
    let matrix = InterferenceMatrix::measure_full_with(&engine, &cfg.gpu, cfg.scale)
        .map_err(err("measure_full_with"))?;
    tr.end(s);
    let s = tr.begin("core.pipeline");
    let mut p = Pipeline::with_matrix_and_engine(cfg.clone(), matrix, engine)
        .map_err(err("with_matrix_and_engine"))?;
    tr.end(s);
    if tr.on() {
        let profiles: Vec<_> = Benchmark::ALL
            .iter()
            .map(|&b| p.profile(b).clone())
            .collect();
        let s = tr.begin("core.classify");
        std::hint::black_box(classify_suite(&cfg.gpu, &profiles));
        tr.end(s);
        let s = tr.begin("core.ilp.group");
        std::hint::black_box(p.group(q, GroupingPolicy::Ilp).map_err(err("group"))?);
        tr.end(s);
    }
    let runs = even_runs(&mut p, q, tr)?;
    Ok((runs, p.sweep_stats()))
}

fn groups_of(r: &QueueReport) -> Vec<Vec<Benchmark>> {
    r.groups
        .iter()
        .map(|g| g.apps.iter().map(|a| a.bench).collect())
        .collect()
}

/// Checks that a queue report's groups partition the queue and that its
/// totals and device throughput follow from its group rows.
fn check_queue_report(rep: &mut Report, queue: &[Benchmark], r: &QueueReport, what: &str) {
    let mut got: Vec<Benchmark> = groups_of(r).concat();
    let mut want = queue.to_vec();
    got.sort();
    want.sort();
    rep.check(got == want, || {
        format!("{what}: the groups do not partition the queue")
    });
    let cycles: u64 = r.groups.iter().map(|g| g.makespan).sum();
    let insts: u64 = r
        .groups
        .iter()
        .flat_map(|g| g.apps.iter().map(|a| a.thread_insts))
        .sum();
    let ok = cycles == r.total_cycles
        && insts == r.total_thread_insts
        && r.device_throughput == insts as f64 / cycles as f64
        && r.groups
            .iter()
            .all(|g| g.apps.iter().all(|a| a.cycles <= g.makespan));
    rep.check(ok, || {
        format!("{what}: device throughput does not follow from the group rows")
    });
    rep.check(r.degradations.is_empty(), || {
        format!("{what}: degraded ({:?})", r.degradations)
    });
}

/// Checks that the ILP grouping of `queue` reaches the exact optimum of
/// `ilp::build_problem` on the pipeline's census and matrix, and returns
/// the branch & bound node count of solving that problem.
fn check_ilp_grouping(
    rep: &mut Report,
    p: &Pipeline,
    queue: &[Benchmark],
    r: &QueueReport,
    what: &str,
) -> usize {
    let nc = p.config().concurrency;
    let head = &queue[..queue.len() / nc as usize * nc as usize];
    let mut census = [0u32; AppClass::COUNT];
    for &b in head {
        census[p.class_of(b).index()] += 1;
    }
    let patterns = enumerate_patterns(nc);
    let e: Vec<f64> = patterns
        .iter()
        .map(|pt| pt.e_coefficient(p.matrix()))
        .collect();
    let groups = groups_of(r);
    let mut objective = 0.0;
    for g in &groups[..head.len() / nc as usize] {
        let mut counts = [0u8; AppClass::COUNT];
        for &b in g {
            counts[p.class_of(b).index()] += 1;
        }
        match patterns.iter().position(|pt| *pt == Pattern::new(counts)) {
            Some(i) => objective += e[i],
            None => rep.check(false, || format!("{what}: group {g:?} matches no pattern")),
        }
    }
    let problem = build_problem(census, nc, &e);
    let nodes = match problem.solve() {
        Ok(sol) => sol.stats.nodes,
        Err(e) => {
            rep.check(false, || format!("{what}: branch and bound failed: {e}"));
            0
        }
    };
    let space = infer_bounds(&problem).iter().fold(1u64, |acc, b| {
        acc.saturating_mul(b.map_or(u64::MAX, |b| b + 1))
    });
    let optimum = if space <= ENUMERATION_POINTS {
        match solve_by_enumeration(&problem) {
            Ok(sol) => sol.objective,
            Err(e) => {
                rep.check(false, || format!("{what}: enumeration failed: {e}"));
                return nodes;
            }
        }
    } else {
        exact_optimum(&patterns, &e, census)
    };
    rep.check(
        (objective - optimum).abs() <= 1e-9 * optimum.abs().max(1.0),
        || format!("{what}: ILP grouping objective {objective} is not the optimum {optimum}"),
    );
    nodes
}

/// Exact optimum of `build_problem(census, nc, e)` by dynamic
/// programming over patterns and the remaining census. The groups use
/// every app of the census exactly (Σ group sizes = queue length), so
/// the remaining census alone fixes the remaining group count.
fn exact_optimum(patterns: &[Pattern], e: &[f64], census: [u32; AppClass::COUNT]) -> f64 {
    fn best(
        i: usize,
        rem: [u32; AppClass::COUNT],
        patterns: &[Pattern],
        e: &[f64],
        memo: &mut HashMap<(usize, [u32; AppClass::COUNT]), f64>,
    ) -> f64 {
        if i == patterns.len() {
            return if rem.iter().all(|&c| c == 0) {
                0.0
            } else {
                f64::NEG_INFINITY
            };
        }
        if let Some(&v) = memo.get(&(i, rem)) {
            return v;
        }
        let need = patterns[i].counts();
        let mut left = rem;
        let mut v = f64::NEG_INFINITY;
        let mut x = 0.0;
        loop {
            v = v.max(x * e[i] + best(i + 1, left, patterns, e, memo));
            if (0..AppClass::COUNT).any(|c| left[c] < u32::from(need[c])) {
                break;
            }
            for c in 0..AppClass::COUNT {
                left[c] -= u32::from(need[c]);
            }
            x += 1.0;
        }
        memo.insert((i, rem), v);
        v
    }
    best(0, census, patterns, e, &mut HashMap::new())
}

/// Batch STP (mean over groups of Σ alone/corun) and ANTT (mean over
/// apps of corun/alone) of queue runs, from the group rows and the
/// pipeline's alone profiles.
fn stp_antt(p: &Pipeline, runs: &[QueueReport]) -> (f64, f64) {
    let (mut stp, mut groups, mut antt, mut apps) = (0.0, 0usize, 0.0, 0usize);
    for r in runs {
        for g in &r.groups {
            for a in &g.apps {
                let alone = p.profile(a.bench).cycles as f64;
                stp += alone / a.cycles as f64;
                antt += a.cycles as f64 / alone;
                apps += 1;
            }
            groups += 1;
        }
    }
    (stp / groups as f64, antt / apps as f64)
}
