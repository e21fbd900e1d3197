//! `schedd_session`: one client thread and one daemon thread in a
//! closed loop over loopback TCP, with the shipped `schedd` settings.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcs_core::runner::{AllocationPolicy, Pipeline};
use gcs_core::smra::SmraParams;
use gcs_core::sweep::CorunMode;
use gcs_core::{NanoStats, SweepEngine};
use gcs_sched::proto::{FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
use gcs_sched::{
    DaemonConfig, DaemonCore, OnlineScheduler, OverloadPolicy, PolicyKind, ProtoError, Request,
    Response, SchedConfig, SchedReport, TcpAcceptor, TcpTransport, Transport, TransportError,
};
use gcs_workloads::{ArrivalTrace, Benchmark};

use crate::affinity;
use crate::sweep::{run_config, COLD_WORKERS};
use crate::trace::Tracer;
use crate::util::{self, median, nanos, secs};
use crate::{Ctx, Report, Rounds};

/// Seeded Poisson sessions per round, and their length.
const SESSIONS: usize = 8;
const SESSION_JOBS: usize = 250;
/// Every round ends with one session this long. Its drained report is
/// larger than `MAX_FRAME_PAYLOAD`, yet the daemon frames it anyway, so
/// a compliant client refuses it: the round's one failed op, kept until
/// the daemon is fixed.
const OVERSIZE_JOBS: usize = 5000;
/// Mean inter-arrival gap in cycles (the `schedd_client` default).
const MEAN_GAP: f64 = 30_000.0;
/// The shipped `schedd` connection deadlines.
const READ_DEADLINE: Duration = Duration::from_secs(2);
const WRITE_DEADLINE: Duration = Duration::from_secs(10);
const CLIENT_DEADLINE: Duration = Duration::from_secs(30);

/// ILP epoch policy, SMRA allocation, one device (the shipped `schedd`
/// defaults), with admission room for the longest session.
fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        sched: SchedConfig {
            num_gpus: 1,
            queue_capacity: OVERSIZE_JOBS,
            alloc: AllocationPolicy::Smra,
            replan_interval: None,
        },
        overload: OverloadPolicy::default(),
    }
}

/// One session's trace and what its drain must return.
struct Session {
    trace: ArrivalTrace,
    /// The batch `OnlineScheduler::run` report on the same trace.
    reference: SchedReport,
    json: String,
}

/// Per-op latency and byte samples from the client.
#[derive(Default)]
struct ClientSamples {
    rtt: util::OpLatency,
    encode_ns: Vec<u64>,
    decode_ns: Vec<u64>,
    bytes: u64,
    ops: u64,
}

fn batch(
    pipeline: &mut Pipeline,
    trace: &ArrivalTrace,
    kind: PolicyKind,
) -> Result<SchedReport, String> {
    OnlineScheduler::new(pipeline, daemon_config().sched)
        .and_then(|mut s| s.run(trace, kind.build().as_mut()))
        .map_err(|e| format!("batch run: {e}"))
}

pub fn session(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let mut rng = util::Rng::new(ctx.seed, 2);
    let mut traces: Vec<ArrivalTrace> = (0..SESSIONS)
        .map(|_| ArrivalTrace::poisson(&Benchmark::ALL, SESSION_JOBS, MEAN_GAP, rng.next_u64()))
        .collect();
    traces.push(ArrivalTrace::poisson(
        &Benchmark::ALL,
        OVERSIZE_JOBS,
        MEAN_GAP,
        rng.next_u64(),
    ));

    // Set-up: the interference sweep, then every group the daemon can
    // dispatch (each app alone and each ordered pair, under SMRA), then
    // the batch reference reports, which must simulate nothing more.
    let setup_start = Instant::now();
    let cfg = run_config();
    let dir = util::fresh_dir(&ctx.work, "schedd-cache");
    let engine = Arc::new(SweepEngine::new(COLD_WORKERS).with_cache_dir(&dir));
    let mut pipeline =
        Pipeline::new_with_engine(cfg.clone(), Arc::clone(&engine)).map_err(|e| e.to_string())?;
    let n = cfg.gpu.num_sms;
    let mut jobs = Vec::new();
    for a in Benchmark::ALL {
        jobs.push((vec![a], CorunMode::Smra(SmraParams::for_device(n, 1))));
        for b in Benchmark::ALL {
            jobs.push((vec![a, b], CorunMode::Smra(SmraParams::for_device(n, 2))));
        }
    }
    engine
        .corun_batch(&cfg.gpu, cfg.scale, &jobs)
        .map_err(|e| format!("co-run warm-up: {e}"))?;
    let warm = engine.stats();
    let mut sessions = Vec::new();
    let mut fcfs_stp = 0.0;
    for (i, trace) in traces.into_iter().enumerate() {
        let reference = batch(&mut pipeline, &trace, PolicyKind::IlpEpoch)?;
        if i < SESSIONS {
            fcfs_stp += batch(&mut pipeline, &trace, PolicyKind::Fcfs)?.stp();
        }
        let json = reference.to_json();
        sessions.push(Session {
            trace,
            reference,
            json,
        });
    }
    let setup_s = secs(setup_start);
    rep.set("setup_s", setup_s);
    // Every workload prints every end-to-end metric. The timed section
    // simulates nothing, so this is the set-up warm-up's simulation rate.
    rep.set("sim_mcycles_per_s", warm.sim_cycles as f64 / 1e6 / setup_s);
    let setup_stats = engine.stats();
    rep.check(setup_stats.jobs_simulated == warm.jobs_simulated, || {
        format!(
            "batch references simulated {} jobs the warm-up missed",
            setup_stats.jobs_simulated - warm.jobs_simulated
        )
    });
    for s in &sessions {
        check_report(rep, s);
    }
    let oversize = &sessions[SESSIONS];
    let oversize_len = Response::Drained {
        json: oversize.json.clone(),
    }
    .encode()
    .len()
        - FRAME_HEADER_LEN;
    rep.check(oversize_len > MAX_FRAME_PAYLOAD, || {
        format!("the long session's report ({oversize_len} bytes) fits in one frame")
    });

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut tr = Tracer::new(false);
    let mut samples = ClientSamples::default();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let saved = affinity::get();
    let one_cpu = saved.as_ref().and_then(affinity::first_cpu);
    let pinned = one_cpu.is_some_and(|cpu| affinity::set(&cpu));
    let (rounds, decisions) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<bool>();
        let daemon_engine = Arc::clone(&engine);
        let matrix = pipeline.matrix().clone();
        let daemon = scope.spawn(move || -> Result<Vec<NanoStats>, String> {
            if let Some(cpu) = one_cpu.filter(|_| pinned) {
                affinity::set(&cpu);
            }
            let mut p = Pipeline::with_matrix_and_engine(run_config(), matrix, daemon_engine)
                .map_err(|e| e.to_string())?;
            let mut acceptor =
                TcpAcceptor::new(listener, Some(READ_DEADLINE), Some(WRITE_DEADLINE));
            let mut stats = Vec::new();
            while rx.recv() == Ok(true) {
                let mut d = DaemonCore::new(&mut p, PolicyKind::IlpEpoch.build(), daemon_config())
                    .map_err(|e| e.to_string())?;
                d.serve(&mut acceptor).map_err(|e| format!("serve: {e}"))?;
                stats.push(d.decision_stats());
            }
            Ok(stats)
        });
        let rounds = Rounds::run(ctx, &mut tr, |_, tr| {
            let start = Instant::now();
            for (i, s) in sessions.iter().enumerate() {
                tx.send(true)
                    .map_err(|_| "the daemon thread exited".to_string())?;
                let span = tr.begin("sched.session");
                let drained = client_session(addr, &s.trace, tr.on(), &mut samples)?;
                tr.end(span);
                attempted += s.trace.len() as u64 + 1;
                match drained {
                    Ok(json) => {
                        if i == SESSIONS || json != s.json {
                            return Err(format!(
                                "session {i}: the drained report differs from batch"
                            ));
                        }
                    }
                    Err(TransportError::Proto(ProtoError::Oversize { len, .. }))
                        if i == SESSIONS && len == oversize_len =>
                    {
                        failed += 1;
                    }
                    Err(e) => return Err(format!("session {i}: drain failed: {e}")),
                }
            }
            Ok(secs(start))
        });
        let _ = tx.send(false);
        if rounds.is_err() {
            // A failed round can leave the daemon serving a session;
            // draining it lets the daemon thread see the stop message.
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.write_all(&Request::Drain.encode());
            }
        }
        let decisions = daemon.join().expect("the daemon thread panicked");
        (rounds, decisions)
    });
    if let Some(all) = saved {
        affinity::set(&all);
    }
    let rounds = rounds?;
    let decisions = decisions?;
    let timed = util::sweep_delta(&setup_stats, &engine.stats());
    rep.check(timed.jobs_simulated == 0, || {
        format!("the daemon simulated {} jobs", timed.jobs_simulated)
    });
    rep.attempted = attempted;
    rep.failed = failed;
    println!(
        "ledger: workers={COLD_WORKERS} (sweep) + 1 client + 1 daemon thread on {}; sessions/round={}x{}+{} rounds={} {} | {}",
        if pinned { "one CPU" } else { "any CPU" },
        SESSIONS,
        SESSION_JOBS,
        OVERSIZE_JOBS,
        rounds.count(),
        util::sweep_line("setup sweep", &setup_stats),
        util::sweep_line("timed sweep", &timed)
    );

    rep.set("wall_s", util::mean(&rounds.untraced));
    rep.set(
        "ops_per_s",
        attempted as f64 / rounds.untraced.iter().chain(&rounds.traced).sum::<f64>(),
    );
    rep.set("op_p50_us", samples.rtt.p50() * 1e6);
    rep.set("op_p99_us", samples.rtt.p99() * 1e6);
    let normal = &sessions[..SESSIONS];
    let stp: f64 = normal.iter().map(|s| s.reference.stp()).sum::<f64>();
    rep.set("stp", stp / SESSIONS as f64);
    rep.set(
        "antt",
        normal.iter().map(|s| s.reference.antt()).sum::<f64>() / SESSIONS as f64,
    );
    rep.set("ilp_vs_fcfs", stp / fcfs_stp);
    // Every workload prints every end-to-end metric. A serial schedule
    // runs every job alone, with STP exactly 1, so this is a copy of
    // `stp`; the daemon allocates with SMRA only, so `smra_vs_even` is
    // the constant 1.
    rep.set("ilp_vs_serial", stp / SESSIONS as f64);
    rep.set("smra_vs_even", 1.0);

    if ctx.trace {
        rep.set("core.sweep.jobs_simulated", timed.jobs_simulated as f64);
        rep.set("core.sweep.jobs_cached", timed.jobs_cached as f64);
        layers(rep, &mut pipeline, normal, &samples, &decisions)?;
        rep.spans(&tr, &rounds);
    }
    util::remove_dir(&dir);
    Ok(())
}

/// One closed-loop session: submit every arrival, then drain. Returns
/// the drain's outcome; any other failure ends the run.
fn client_session(
    addr: SocketAddr,
    trace: &ArrivalTrace,
    traced: bool,
    samples: &mut ClientSamples,
) -> Result<Result<String, TransportError>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut conn = TcpTransport::new(stream, Some(CLIENT_DEADLINE), Some(CLIENT_DEADLINE))
        .map_err(|e| e.to_string())?;
    let mut requests: Vec<Request> = trace
        .arrivals()
        .iter()
        .enumerate()
        .map(|(i, a)| Request::Submit {
            id: i as u64,
            bench: a.bench,
            at: a.time,
        })
        .collect();
    requests.push(Request::Drain);
    let last = requests.len() - 1;
    for (i, req) in requests.iter().enumerate() {
        let start = Instant::now();
        let t = Instant::now();
        let frame = req.encode();
        let encode_ns = nanos(t);
        let sent = frame.len();
        conn.send_bytes(&frame).map_err(|e| format!("send: {e}"))?;
        let reply = match conn.recv_frame() {
            Ok(f) => f,
            Err(e) if i == last => return Ok(Err(e)),
            Err(e) => return Err(format!("submit {i}: {e}")),
        };
        let t = Instant::now();
        let resp = Response::decode(&reply).map_err(|e| format!("decode: {e}"))?;
        let decode_ns = nanos(t);
        let rtt = secs(start);
        match resp {
            Response::Submitted { id } if id == i as u64 => {}
            Response::Drained { json } if i == last => return Ok(Ok(json)),
            other => return Err(format!("request {i}: unexpected response {other:?}")),
        }
        if traced {
            samples.encode_ns.push(encode_ns);
            samples.decode_ns.push(decode_ns);
        } else {
            samples.rtt.push(rtt);
        }
        samples.bytes += (sent + reply.len()) as u64;
        samples.ops += 1;
    }
    unreachable!("the drain returns")
}

/// Checks a batch report against its own rows: every submitted id
/// completes exactly once, and STP and ANTT follow from the per-job
/// alone and co-run cycles.
fn check_report(rep: &mut Report, s: &Session) {
    let r = &s.reference;
    let mut ids: Vec<usize> = r.jobs.iter().map(|j| j.id).collect();
    ids.sort_unstable();
    rep.check(ids == (0..s.trace.len()).collect::<Vec<_>>(), || {
        format!(
            "a {}-job session does not complete every id exactly once",
            s.trace.len()
        )
    });
    rep.check(r.rejections.is_empty() && r.failed.is_empty(), || {
        "a session has rejected or failed jobs".into()
    });
    let by_id: BTreeMap<usize, _> = r.jobs.iter().map(|j| (j.id, j)).collect();
    let mut stp = 0.0;
    for g in &r.groups {
        let mut gs = 0.0;
        for id in &g.jobs {
            let j = by_id[id];
            gs += j.alone_cycles as f64 / j.corun_cycles as f64;
        }
        rep.check(gs == g.stp, || {
            format!("group STP {} is not Σ alone/corun = {gs}", g.stp)
        });
        stp += gs;
    }
    let stp = stp / r.groups.len() as f64;
    let antt = r
        .jobs
        .iter()
        .map(|j| (j.completion - j.arrival) as f64 / j.alone_cycles as f64)
        .sum::<f64>()
        / r.jobs.len() as f64;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(1.0);
    rep.check(close(stp, r.stp()) && close(antt, r.antt()), || {
        format!(
            "report STP/ANTT {}/{} do not follow from its rows ({stp}/{antt})",
            r.stp(),
            r.antt()
        )
    });
}

/// Per-layer figures: the daemon's `handle` driven in-process on the
/// same sessions, the codec halves, the report renderer and the
/// daemon's own decision timings.
fn layers(
    rep: &mut Report,
    pipeline: &mut Pipeline,
    sessions: &[Session],
    client: &ClientSamples,
    decisions: &[NanoStats],
) -> Result<(), String> {
    let (mut handle_ns, mut req_decode, mut resp_encode, mut to_json) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in sessions {
        let mut d = DaemonCore::new(pipeline, PolicyKind::IlpEpoch.build(), daemon_config())
            .map_err(|e| e.to_string())?;
        let mut requests: Vec<Request> = s
            .trace
            .arrivals()
            .iter()
            .enumerate()
            .map(|(i, a)| Request::Submit {
                id: i as u64,
                bench: a.bench,
                at: a.time,
            })
            .collect();
        requests.push(Request::Drain);
        for req in requests {
            let frame = req.encode();
            let t = Instant::now();
            let decoded = Request::decode(&frame).map_err(|e| e.to_string())?;
            req_decode.push(nanos(t));
            let t = Instant::now();
            let resp = d.handle(decoded);
            handle_ns.push(nanos(t));
            let t = Instant::now();
            std::hint::black_box(resp.encode());
            resp_encode.push(nanos(t));
        }
        let t = Instant::now();
        std::hint::black_box(s.reference.to_json());
        to_json.push(secs(t));
    }
    let handle = NanoStats::from_samples(&handle_ns);
    let p50 = |v: &[u64]| NanoStats::from_samples(v).p50_ns as f64;
    let encode = p50(&client.encode_ns) + p50(&resp_encode);
    let decode = p50(&req_decode) + p50(&client.decode_ns);
    let rtt = client.rtt.p50() * 1e9;
    rep.set("sched.daemon.handle_p50_us", handle.p50_ns as f64 / 1e3);
    rep.set("sched.daemon.handle_p99_us", handle.p99_ns as f64 / 1e3);
    let dec = |f: fn(&NanoStats) -> u64| {
        median(&decisions.iter().map(|d| f(d) as f64).collect::<Vec<_>>())
    };
    rep.set("sched.daemon.decision_p50_ns", dec(|d| d.p50_ns));
    rep.set("sched.daemon.decision_p99_ns", dec(|d| d.p99_ns));
    rep.set("sched.proto.encode_ns", encode);
    rep.set("sched.proto.decode_ns", decode);
    rep.set(
        "sched.transport.rtt_us",
        (rtt - handle.p50_ns as f64 - encode - decode) / 1e3,
    );
    rep.set("sched.report.to_json_us", median(&to_json) * 1e6);
    rep.set(
        "sched.report_bytes",
        sessions.iter().map(|s| s.json.len() as f64).sum::<f64>() / sessions.len() as f64,
    );
    rep.set(
        "sched.bytes_per_op",
        client.bytes as f64 / client.ops as f64,
    );
    Ok(())
}
