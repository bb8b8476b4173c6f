//! `--trace 1`: the per-layer ledger, measured outside in.
//!
//! The workload's exact requests are replayed in this process, and each
//! call into a layer's public functions is timed here, in the
//! benchmark's own code; the program itself runs untraced. Two short
//! serving sessions add what only the real server shows: client latency
//! the server's clocks miss, CPU by process role, and the cost of
//! `serve --trace`.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use aa_cli::fleet::parse_ladder;
use aa_cli::proto::{FromWorker, ToWorker, WorkerResult};
use aa_cli::serve::{ServeOpts, ServeRequest, ServeResponse};
use aa_cli::{build_problem, ProblemFile};
use aa_core::fleet::{read_frame, write_frame, MAX_FRAME_BYTES};
use aa_core::shard::{ShardConfig, ShardJob, ShardPool};
use aa_core::{algo2, incremental, linearize, refine, superopt};
use aa_core::{Budget, Problem, Tier, TierStatus, TieredSolver, WarmState};
use aa_utility::{DemandTable, Utility};

use crate::report::Report;
use crate::server::RoleCpu;
use crate::session::{self, Observed, Plan};
use crate::stats::{median, quantile, tail_quantile};
use crate::workload::{body, line, paced_schedule, Generator, Workload};
use crate::{bodies, lag_bound_ms, open_count, serve_args, Tally};

/// Wall time of `f`, microseconds, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Per-request samples of every replayed layer.
#[derive(Default)]
struct Samples {
    req_bytes: Vec<f64>,
    parse_us: Vec<f64>,
    parse_ns_per_byte: Vec<f64>,
    build_us: Vec<f64>,
    req_frame_us: Vec<f64>,
    resp_frame_us: Vec<f64>,
    encode_us: Vec<f64>,
    resp_bytes: Vec<f64>,
    tier_us: Vec<f64>,
    tier_overhead_us: Vec<f64>,
    top_rung: Vec<f64>,
    superopt_us: Vec<f64>,
    linearize_us: Vec<f64>,
    assign_us: Vec<f64>,
    refine_us: Vec<f64>,
    sweeps: Vec<f64>,
    ns_per_thread: Vec<f64>,
    warm_us: Vec<f64>,
    cold_us: Vec<f64>,
    warm_hit: Vec<f64>,
    bytes_per_thread: Vec<f64>,
    frame_bytes_per_thread: Vec<f64>,
    line_envelope: Vec<f64>,
    frame_envelope: Vec<f64>,
}

/// Demand-map sweeps one super-optimal solve performs, read from the
/// allocator's public counter (which counts only while recording).
fn sweeps_per_superopt(p: &Problem) -> f64 {
    let counter = aa_obs::global().counter("aa_bisection_demand_maps_total");
    let collector = aa_obs::Collector::install();
    collector.set_enabled(true);
    let before = counter.get();
    black_box(superopt::super_optimal(p));
    let sweeps = counter.get() - before;
    collector.set_enabled(false);
    sweeps as f64
}

/// One batched demand sweep at the SO water level, ns per thread.
fn kernel_ns_per_thread(p: &Problem, so: &superopt::SuperOptimal) -> f64 {
    let views = p.capped_threads();
    let mut slopes: Vec<f64> = views
        .iter()
        .zip(&so.amounts)
        .filter(|(u, &c)| c > 0.0 && c < u.cap())
        .map(|(u, &c)| u.derivative(c))
        .collect();
    let lambda = if slopes.is_empty() {
        1e-3
    } else {
        median(&mut slopes)
    };
    let mut table = DemandTable::new();
    table.compile(&views);
    let mut out = vec![0.0; views.len()];
    let reps = (20_000 / views.len()).max(4);
    let t = Instant::now();
    for _ in 0..reps {
        table.batch_inverse_derivative(&views, black_box(lambda), &mut out);
        black_box(&out);
    }
    t.elapsed().as_secs_f64() * 1e9 / (reps * views.len()) as f64
}

/// `msg` → payload → frame → bytes → frame → `msg` over the fleet's pipe
/// framing: the payload length and the hop's µs.
fn frame_hop<T: serde::Serialize + serde::Deserialize>(msg: &T) -> (usize, f64) {
    let mut wire = Vec::new();
    let (len, us) = timed(|| {
        let payload = serde_json::to_string(msg).expect("frames serialize");
        write_frame(&mut wire, payload.as_bytes()).expect("in-memory write");
        let read = read_frame(&mut Cursor::new(&wire), MAX_FRAME_BYTES)
            .expect("well-formed frame")
            .expect("one frame");
        black_box(serde_json::from_slice::<T>(&read).expect("frames deserialize"));
        payload.len()
    });
    (len, us)
}

/// Replay request `k` through every layer in process.
#[allow(clippy::too_many_arguments)]
fn replay_one(
    k: usize,
    wl: &Workload,
    stream: u64,
    file: &ProblemFile,
    solver: &TieredSolver,
    tier_warm: &mut HashMap<u64, WarmState>,
    inc_warm: &mut HashMap<u64, WarmState>,
    s: &mut Samples,
) -> Result<(), String> {
    let mut buf = Vec::new();
    line(k as u64 + 1, &body(stream, wl.limit_ms, file), &mut buf);
    let text = std::str::from_utf8(&buf)
        .expect("generated lines are UTF-8")
        .trim_end();
    let n = file.threads.len() as f64;

    // Ingress: the line parse and the problem build.
    let (req, parse_us) = timed(|| serde_json::from_str::<ServeRequest>(text));
    let req = req.map_err(|e| format!("request {k} does not parse: {e}"))?;
    let (p, build_us) = timed(|| build_problem(&req.problem));
    let p = p.map_err(|e| format!("request {k} does not build: {e}"))?;
    s.req_bytes.push(text.len() as f64);
    s.parse_us.push(parse_us);
    s.parse_ns_per_byte.push(parse_us * 1e3 / text.len() as f64);
    s.build_us.push(build_us);
    let empty = ProblemFile {
        threads: Vec::new(),
        ..file.clone()
    };
    let mut bare = Vec::new();
    line(k as u64 + 1, &body(stream, wl.limit_ms, &empty), &mut bare);
    let envelope = (bare.len() - 1) as f64;
    s.line_envelope.push(envelope);
    s.bytes_per_thread.push((text.len() as f64 - envelope) / n);

    // Fleet hop out: the front-end's frame to a worker.
    let to_worker = |problem: ProblemFile| ToWorker::Req {
        seq: k as u64,
        stream: Some(stream),
        budget_ms: Some(wl.limit_ms),
        trace: None,
        problem,
    };
    let (frame_len, req_frame_us) = frame_hop(&to_worker(req.problem.clone()));
    let (bare_frame_len, _) = frame_hop(&to_worker(empty));
    s.req_frame_us.push(req_frame_us);
    s.frame_envelope.push(bare_frame_len as f64);
    s.frame_bytes_per_thread
        .push((frame_len - bare_frame_len) as f64 / n);

    // Tier: the ladder under the request's deadline, warm per stream.
    let warm = tier_warm.entry(stream).or_default();
    let budget = Budget::with_deadline(Duration::from_millis(wl.limit_ms));
    let (solved, tier_us) = timed(|| solver.try_solve_within_warm(&p, &budget, warm));
    let solved = solved.map_err(|e| format!("request {k}: tier solve failed: {e}"))?;
    solved
        .assignment
        .validate(&p)
        .map_err(|e| format!("request {k}: infeasible: {e:?}"))?;
    let top = solved
        .degradation
        .outcomes
        .iter()
        .all(|o| matches!(o.status, TierStatus::Completed | TierStatus::TooLarge));
    s.tier_us.push(tier_us);
    s.top_rung.push(f64::from(u8::from(top)));

    // Algorithm 2, stage by stage, cold.
    let (so, so_us) = timed(|| superopt::super_optimal(&p));
    let (gs, lin_us) = timed(|| linearize::linearize(&p, &so));
    let (a, assign_us) = timed(|| algo2::assign_with(&p, &so, &gs));
    let (_, refine_us) = timed(|| refine::refine_allocation(&p, &a));
    s.superopt_us.push(so_us);
    s.linearize_us.push(lin_us);
    s.assign_us.push(assign_us);
    s.refine_us.push(refine_us);
    let stages = match solved.degradation.tier {
        Tier::Algo2Refined => so_us + lin_us + assign_us + refine_us,
        Tier::Algo2 => so_us + lin_us + assign_us,
        _ => 0.0,
    };
    s.tier_overhead_us.push(tier_us - stages);

    // Kernel: sweeps per superopt and the cost of one sweep.
    s.sweeps.push(sweeps_per_superopt(&p));
    s.ns_per_thread.push(kernel_ns_per_thread(&p, &so));

    // Incremental: the stream's warm state against a cold solve.
    let state = inc_warm.entry(stream).or_default();
    let (_, warm_us) = timed(|| incremental::solve_incremental(&p, state));
    let (_, cold_us) = timed(|| algo2::solve(&p));
    s.warm_us.push(warm_us);
    s.cold_us.push(cold_us);
    s.warm_hit.push(f64::from(u8::from(
        state.last_stats().mode != incremental::SolveMode::Cold,
    )));

    // Fleet hop back, then egress: the response frame and line.
    let result = WorkerResult::Ok {
        tier: solved.degradation.tier.name().to_string(),
        degraded: solved.degradation.degraded,
        utility: solved.utility,
        server: solved.assignment.server.clone(),
        allocation: solved.assignment.amount.clone(),
        solve_micros: tier_us as u64,
    };
    let (_, resp_frame_us) = frame_hop(&FromWorker::Resp {
        seq: k as u64,
        result,
    });
    s.resp_frame_us.push(resp_frame_us);
    let response = ServeResponse::Ok {
        id: req.id,
        tier: solved.degradation.tier.name().to_string(),
        degraded: solved.degradation.degraded,
        utility: solved.utility,
        server: solved.assignment.server,
        allocation: solved.assignment.amount,
        latency_ms: tier_us / 1e3,
    };
    let (encoded, encode_us) = timed(|| serde_json::to_string(&response));
    s.encode_us.push(encode_us);
    s.resp_bytes
        .push(encoded.map_err(|e| e.to_string())?.len() as f64);
    Ok(())
}

/// What the in-process shard pool showed.
#[derive(Default)]
struct ShardSamples {
    queue_wait_us: Vec<f64>,
    overhead_us: Vec<f64>,
    jobs: usize,
    failed: usize,
}

/// Submit the workload's jobs to a pool shaped like the server's at the
/// pinned rate, for `secs`.
fn shard_layer(wl: &Workload, ladder: Option<Vec<Tier>>, seed: u64, secs: f64) -> ShardSamples {
    let count = open_count(wl, secs).max(8);
    let mut g = Generator::new(wl, seed);
    let jobs: Vec<(u64, Problem)> = (0..count)
        .map(|_| {
            let (stream, file) = g.next_request();
            (
                stream,
                build_problem(file).expect("generated problems are valid"),
            )
        })
        .collect();
    let schedule = paced_schedule(count, count as f64 / wl.rate_rps, seed);
    let (tx, rx) = mpsc::channel();
    let registry = aa_obs::Registry::new();
    let pool = ShardPool::new(
        ShardConfig {
            shards: 2,
            ladder,
            ..ShardConfig::default()
        },
        &registry,
        Arc::new(move |c| {
            let _ = tx.send((Instant::now(), c));
        }),
    );
    let start = Instant::now();
    let mut submitted = HashMap::new();
    let mut out = ShardSamples::default();
    for (seq, ((stream, problem), offset)) in jobs.into_iter().zip(schedule).enumerate() {
        let due = start + Duration::from_secs_f64(offset);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let deadline = Instant::now() + Duration::from_millis(wl.limit_ms);
        submitted.insert(seq as u64, Instant::now());
        let job = ShardJob::new(seq as u64, Some(stream), problem, Some(deadline));
        if pool.submit(job).is_err() {
            out.failed += 1;
        }
        out.jobs += 1;
    }
    pool.shutdown();
    for (at, c) in rx.try_iter() {
        if c.outcome.is_err() {
            out.failed += 1;
            continue;
        }
        let total = at.duration_since(submitted[&c.seq]).as_secs_f64() * 1e6;
        out.queue_wait_us.push(c.waited_micros as f64);
        out.overhead_us
            .push(total - c.waited_micros as f64 - c.solve_micros as f64);
    }
    out
}

/// A short open-loop session on the real server; `extra` is appended to
/// the serve arguments.
fn short_session(
    wl: &Workload,
    bin: &Path,
    scratch: &Path,
    seed: u64,
    secs: f64,
    extra: &[String],
) -> Result<(Observed, Tally), String> {
    let warmup = open_count(wl, 0.5).max(4);
    let bodies = bodies(wl, seed, warmup + open_count(wl, secs));
    let counters = scratch.join("counters.json");
    let plan = Plan {
        bin,
        args: serve_args(wl, &counters, extra),
        counters,
        probes: 1,
        warmup,
        rate_rps: wl.rate_rps,
        open_secs: secs,
        blocks: 1,
        seed,
        answer_timeout: Duration::from_secs(30),
    };
    let obs = session::run(&plan, &bodies).map_err(|e| format!("serve session: {e}"))?;
    let tally = Tally::new(wl, seed, &obs);
    Ok((obs, tally))
}

/// `--trace 1`: every per-layer metric for `wl`.
pub fn run(
    wl: &Workload,
    bin: &Path,
    scratch: &Path,
    seed: u64,
    secs: f64,
) -> Result<Report, String> {
    let ladder = wl.ladder().map(parse_ladder).transpose()?;

    // The real server, untraced then traced, on the same schedule.
    let (plain, plain_t) = short_session(wl, bin, scratch, seed, 0.2 * secs, &[])?;
    let trace_file = scratch.join("trace.json");
    let traced_args = ["--trace".to_string(), trace_file.display().to_string()];
    let (traced, traced_t) = short_session(wl, bin, scratch, seed, 0.2 * secs, &traced_args)?;
    let per_req = |cpu: &[RoleCpu], t: &Tally| {
        let cpu = cpu.iter().fold(RoleCpu::default(), |a, c| RoleCpu {
            frontend_ms: a.frontend_ms + c.frontend_ms,
            worker_ms: a.worker_ms + c.worker_ms,
        });
        let n = t.open_ok().max(1) as f64;
        (cpu.total_ms() / n, cpu.frontend_ms / n, cpu.worker_ms / n)
    };
    let (cpu_plain, frontend_ms, worker_ms) = per_req(&plain.block_cpu, &plain_t);
    let (cpu_traced, _, _) = per_req(&traced.block_cpu, &traced_t);

    // The shard pool, in process, at the pinned rate.
    let shard = shard_layer(wl, ladder.clone(), seed, 0.15 * secs);

    // Every other layer: replay the workload's requests in send order.
    let solver = match ladder {
        Some(l) => TieredSolver::with_ladder(l),
        None => TieredSolver::new(),
    };
    let (mut tier_warm, mut inc_warm) = (HashMap::new(), HashMap::new());
    let mut s = Samples::default();
    let mut g = Generator::new(wl, seed);
    let replay_until = Instant::now() + Duration::from_secs_f64(0.3 * secs);
    let mut replayed = 0;
    while replayed < 8 || (Instant::now() < replay_until && replayed < 4096) {
        let (stream, file) = g.next_request();
        replay_one(
            replayed,
            wl,
            stream,
            file,
            &solver,
            &mut tier_warm,
            &mut inc_warm,
            &mut s,
        )?;
        replayed += 1;
    }

    let mut lag = plain.lag_ms.clone();
    let lag_p99 = quantile(&mut lag, 0.99);
    let mut latency = plain_t.latency_ms.concat();
    let latency_p50 = median(&mut latency);
    let q = tail_quantile(latency.len());
    let latency_tail = quantile(&mut latency, q);
    let queue_wait = median(&mut shard.queue_wait_us.clone());
    let path_us = if wl.fleet() {
        median(&mut s.parse_us)
            + 2.0 * median(&mut s.build_us)
            + median(&mut s.req_frame_us)
            + median(&mut s.tier_us)
            + median(&mut s.resp_frame_us)
            + median(&mut s.encode_us)
    } else {
        median(&mut s.parse_us)
            + median(&mut s.build_us)
            + queue_wait
            + median(&mut s.tier_us)
            + median(&mut s.encode_us)
    };
    let max_line = ServeOpts::default().max_line_bytes as f64;
    let bpt = median(&mut s.bytes_per_thread);
    let frame_bpt = median(&mut s.frame_bytes_per_thread);

    let failed = plain_t.failed + traced_t.failed + shard.failed;
    let mut r = Report::new(plain_t.sent + traced_t.sent + shard.jobs + replayed, failed);
    r.correct = plain_t.sound()
        && traced_t.sound()
        && plain.complete
        && traced.complete
        && shard.failed == 0
        && lag_p99 <= lag_bound_ms(wl);
    r.metric("client.latency_p50_ms", latency_p50, "ms");
    r.metric("client.latency_tail_ms", latency_tail, "ms");
    r.metric("host.steal_per_s", plain.steal_per_s, "1/s");
    r.metric("gen.lag_p99_ms", lag_p99, "ms");
    r.metric("ingress.parse_us", median(&mut s.parse_us), "us");
    r.metric(
        "ingress.parse_ns_per_byte",
        median(&mut s.parse_ns_per_byte),
        "ns/B",
    );
    r.metric("ingress.build_us", median(&mut s.build_us), "us");
    r.metric("ingress.req_bytes", median(&mut s.req_bytes), "B");
    r.metric("ingress.bytes_per_thread", bpt, "B");
    r.metric(
        "ingress.unclocked_ms",
        median(&mut plain_t.unclocked_ms.clone()),
        "ms",
    );
    r.metric("egress.encode_us", median(&mut s.encode_us), "us");
    r.metric("egress.resp_bytes", median(&mut s.resp_bytes), "B");
    r.metric("fleet.req_frame_us", median(&mut s.req_frame_us), "us");
    r.metric("fleet.resp_frame_us", median(&mut s.resp_frame_us), "us");
    r.metric("fleet.frontend_cpu_ms_per_req", frontend_ms, "ms");
    r.metric("fleet.worker_cpu_ms_per_req", worker_ms, "ms");
    r.metric("shard.queue_wait_us", queue_wait, "us");
    r.metric(
        "shard.queue_wait_us_p99",
        quantile(&mut shard.queue_wait_us.clone(), 0.99),
        "us",
    );
    r.metric(
        "shard.overhead_us",
        median(&mut shard.overhead_us.clone()),
        "us",
    );
    r.metric("tier.solve_us", median(&mut s.tier_us), "us");
    r.metric("tier.overhead_us", median(&mut s.tier_overhead_us), "us");
    r.metric(
        "tier.top_rung_frac",
        s.top_rung.iter().sum::<f64>() / replayed as f64,
        "ratio",
    );
    r.metric("algo2.superopt_us", median(&mut s.superopt_us), "us");
    r.metric("algo2.linearize_us", median(&mut s.linearize_us), "us");
    r.metric("algo2.assign_us", median(&mut s.assign_us), "us");
    r.metric("algo2.refine_us", median(&mut s.refine_us), "us");
    r.metric("kernel.sweeps_per_solve", median(&mut s.sweeps), "count");
    r.metric("kernel.ns_per_thread", median(&mut s.ns_per_thread), "ns");
    r.metric("incremental.warm_us", median(&mut s.warm_us), "us");
    r.metric("incremental.cold_us", median(&mut s.cold_us), "us");
    r.metric(
        "incremental.warm_hit_frac",
        s.warm_hit.iter().sum::<f64>() / replayed as f64,
        "ratio",
    );
    r.metric(
        "ledger.unattributed_frac",
        1.0 - path_us / (latency_p50 * 1e3),
        "ratio",
    );
    r.metric(
        "obs.trace_overhead_frac",
        cpu_traced / cpu_plain - 1.0,
        "ratio",
    );
    r.metric(
        "cap.max_n_line",
        ((max_line - median(&mut s.line_envelope)) / bpt).floor(),
        "count",
    );
    r.metric(
        "cap.max_n_frame",
        ((MAX_FRAME_BYTES as f64 - median(&mut s.frame_envelope)) / frame_bpt).floor(),
        "count",
    );
    r.note("client_tail_quantile", q);
    r.note("replayed", replayed);
    r.note("shard_jobs", shard.jobs);
    r.note("ledger_path_us", path_us);
    r.note("cpu_ms_per_req_plain", cpu_plain);
    r.note("cpu_ms_per_req_traced", cpu_traced);
    r.note("lag_bound_ms", lag_bound_ms(wl));
    Ok(r)
}
