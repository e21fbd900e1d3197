//! perfbench — end-to-end and per-layer benchmark of the paper sweep,
//! the scheduler daemon and the fleet allocator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Workloads: `sweep_cold`, `sweep_warm`, `schedd_session`, `fleet_cold`
//! (see README.md for what each one loads and why). Every run prints a
//! ledger line and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod affinity;
mod fleet;
mod schedd;
mod sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use trace::Tracer;

/// End-to-end metrics: `(name, unit)`. The output format has one set of
/// end-to-end metrics for all workloads, so every workload reports all of
/// them; where a workload has no figure of its own, it reports a copy of
/// another metric or a constant, marked where it is set and in README.md.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("ilp_vs_fcfs", "ratio"),
    ("ilp_vs_serial", "ratio"),
    ("smra_vs_even", "ratio"),
    ("stp", "ratio"),
    ("antt", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A workload that
/// does not reach a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("op_p99_us", "us"),
    ("sim.phase.issue", "cycles"),
    ("sim.phase.l1", "cycles"),
    ("sim.phase.l2", "cycles"),
    ("sim.phase.dram", "cycles"),
    ("sim.phase.smra", "cycles"),
    ("sim.phase.idle", "cycles"),
    ("sim.host_ns_per_kcycle", "ns"),
    ("sim.cycles", "cycles"),
    ("core.sweep.profile_s", "s"),
    ("core.sweep.corun_s", "s"),
    ("core.sweep.parallel_eff", "ratio"),
    ("core.sweep.cache_write_bytes", "bytes"),
    ("core.sweep.replay_us", "us"),
    ("core.sweep.jobs_simulated", "count"),
    ("core.sweep.jobs_cached", "count"),
    ("core.classify.us", "us"),
    ("core.ilp.solve_us", "us"),
    ("core.runner.queue_us", "us"),
    ("milp.bb_nodes", "count"),
    ("core.smra.queue_s", "s"),
    ("sched.daemon.handle_p50_us", "us"),
    ("sched.daemon.handle_p99_us", "us"),
    ("sched.daemon.decision_p50_ns", "ns"),
    ("sched.daemon.decision_p99_ns", "ns"),
    ("sched.proto.encode_ns", "ns"),
    ("sched.proto.decode_ns", "ns"),
    ("sched.transport.rtt_us", "us"),
    ("sched.report.to_json_us", "us"),
    ("sched.report_bytes", "bytes"),
    ("sched.bytes_per_op", "bytes"),
    ("fleet.predict.warm_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.alloc.us", "us"),
    ("fleet.churn", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for sweep caches under `$CARGO_TARGET_DIR`; removed
    /// at the end of the run.
    pub work: PathBuf,
}

/// What a run reports: op counts, failed checks and metric values.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.problems.push(msg);
        }
    }

    /// Sets the per-layer metrics that come from the span recorder: the
    /// tracing overhead (median traced round minus median untraced
    /// round) and the span count, after checking that no span's
    /// children outlast it. Prints the self-time table.
    pub fn spans(&mut self, tr: &Tracer, rounds: &Rounds) {
        let (totals, violations) = tr.summary();
        for v in violations {
            self.check(false, || v);
        }
        println!(
            "{:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, t) in &totals {
            println!(
                "{:<28} {:>7} {:>12.6} {:>12.6}",
                name, t.count, t.total_s, t.self_s
            );
        }
        if !rounds.traced.is_empty() && !rounds.untraced.is_empty() {
            self.set(
                "trace.overhead_s",
                util::median(&rounds.traced) - util::median(&rounds.untraced),
            );
        }
        self.set("trace.spans", tr.len() as f64);
    }
}

/// Host times of the timed rounds, split by whether tracing was on.
#[derive(Default)]
pub struct Rounds {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

impl Rounds {
    /// Runs whole rounds until `ctx.seconds` have passed, at least one.
    /// A traced run alternates untraced and traced rounds (at least one
    /// of each), so the untraced ones give the tracing overhead's base.
    /// `round(i, tracer)` runs round `i` and returns its host time.
    pub fn run(
        ctx: &Ctx,
        tr: &mut Tracer,
        mut round: impl FnMut(usize, &mut Tracer) -> Result<f64, String>,
    ) -> Result<Rounds, String> {
        let mut rounds = Rounds::default();
        let start = Instant::now();
        let min_rounds = if ctx.trace { 2 } else { 1 };
        let mut i = 0;
        while i < min_rounds || util::secs(start) < ctx.seconds {
            let traced = ctx.trace && i % 2 == 1;
            tr.set_on(traced);
            let wall = round(i, tr)?;
            tr.set_on(false);
            if traced {
                rounds.traced.push(wall);
            } else {
                rounds.untraced.push(wall);
            }
            i += 1;
        }
        Ok(rounds)
    }

    pub fn count(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <sweep_cold|sweep_warm|schedd_session|fleet_cold> \
         --seed <n> --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Ctx) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    // One scratch directory per process, so concurrent runs never share
    // a cache.
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let work = PathBuf::from(target)
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    (
        workload,
        Ctx {
            seed,
            seconds,
            trace,
            work,
        },
    )
}

fn main() {
    let (workload, ctx) = parse_args();
    let run = match workload.as_str() {
        "sweep_cold" => sweep::cold,
        "sweep_warm" => sweep::warm,
        "schedd_session" => schedd::session,
        "fleet_cold" => fleet::cold,
        _ => usage(),
    };
    std::fs::create_dir_all(&ctx.work).expect("create the work directory");
    let mut rep = Report::default();
    if let Err(e) = run(&ctx, &mut rep) {
        rep.check(false, || e);
    }
    rep.set("peak_rss_mb", util::peak_rss_mb());
    util::remove_dir(&ctx.work);
    // A traced run runs untraced rounds too, so it measures every
    // end-to-end metric as well; checking that here lets one traced run
    // per workload exercise all of a workload's checks.
    for (name, _) in END_TO_END {
        if !rep.metrics.contains_key(name) {
            rep.check(false, || format!("end-to-end metric {name} was not measured"));
        }
    }
    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = rep.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            rep.check(false, || format!("metric {name} is not finite"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "ledger: workload={workload} seed={} seconds={} trace={} attempted={} failed={} checks_failed={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        rep.attempted,
        rep.failed,
        rep.problems.len()
    );

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.problems.is_empty(),
        rep.attempted,
        rep.failed,
        fields.join(", ")
    );
}
