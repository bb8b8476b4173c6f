//! `aa-solve` — thin argv wrapper over [`aa_cli`].

use std::process::ExitCode;

use aa_cli::fleet::{parse_ladder, run_fleet_chaos, run_fleet_serve, FleetOpts};
use aa_cli::serve::{run_serve, ServeOpts};
use aa_cli::worker::{run_worker, WorkerOpts};
use aa_cli::{bench_document, churn_document, generate_document, solve_document, BenchMode,
             BenchOpts, ChurnOpts, CliError, GenerateOpts, SOLVER_NAMES};
use aa_sim::controller::RepairPolicy;
use aa_sim::faults::FaultScriptConfig;
use aa_sim::{ChaosConfig, FleetChaosConfig, ProcessFault};
use aa_workloads::Distribution;

const USAGE: &str = "\
usage:
  aa-solve solve <problem.json> [--solver NAME] [--seed S] [--pretty]
                 [--trace out.json]
  aa-solve generate [--servers M] [--beta B] [--capacity C]
                    [--dist uniform|normal|powerlaw|discrete]
                    [--alpha A] [--gamma G] [--theta T] [--seed S] [--pretty]
  aa-solve churn <problem.json> [--script script.json] [--epochs N]
                 [--policy never|in-place|migrations|resolve] [--budget K]
                 [--solver NAME] [--seed S] [--crash-rate F] [--recovery-rate F]
                 [--flap-rate F] [--arrival-rate F] [--departure-rate F] [--pretty]
  aa-solve bench [--small] [--mode matrix|incremental|scale|full]
                 [--out BENCH_solver.json] [--seed S] [--reps R]
                 [--threads N] [--max-threads N] [--trace out.json] [--pretty]
  aa-solve serve [--shards N | --fleet N] [--queue N] [--deadline-ms D]
                 [--max-line-bytes B] [--counters PATH]
                 [--metrics-addr HOST:PORT] [--metrics-dump PATH]
                 [--slo-p99-ms P] [--trace out.json]
                 fleet only: [--heartbeat-ms H] [--heartbeat-miss K]
                 [--max-retries R] [--max-restarts N] [--drain-timeout-ms D]
                 [--max-streams N] [--ladder NAME,…] [--seed S]
                 [--worker-cmd PATH]
  aa-solve chaos [--shards N] [--rounds N] [--kills N]
                 [--streams-per-shard N] [--seed S] [--out PATH] [--pretty]
  aa-solve chaos --fleet [--workers N] [--streams-per-worker N] [--rounds N]
                 [--kills N] [--stalls N] [--garbage N] [--stall-millis MS]
                 [--seed S] [--out PATH] [--pretty]
  aa-solve solvers

global flags (any command):
  --log-format pretty|json   stderr diagnostics format (default pretty)

serve reads LDJSON requests {\"id\":…, \"stream\":…, \"deadline_ms\":…,
\"problem\":{…}} on stdin and writes one response per line on stdout;
requests beyond the admission queue are shed with
{\"status\":\"overloaded\",\"retry_after_ms\":…}. --shards N runs N
crash-isolated worker shard threads, each decoding and solving the
requests it takes: requests sharing a \"stream\" key route to a fixed
shard (warm incremental state), a panicking solve
answers {\"status\":\"error\",\"class\":\"solve_panic\"} and a crashed
shard restarts itself in place with backoff while its queue drains as
\"internal\" errors. Lines beyond --max-line-bytes (default 1 MiB) are
answered with a \"parse\" error. Counters are dumped to stderr (and
--counters PATH as JSON) at EOF. --metrics-addr serves GET /metrics
(Prometheus text) and /metrics.json while the loop runs; --metrics-dump
writes the JSON snapshot at EOF.
--fleet N replaces the in-process shards with N worker *processes*
(this binary re-execed in a hidden serve-worker mode) supervised over
stdin/stdout pipes: heartbeats every --heartbeat-ms (dead after
--heartbeat-miss silent rounds), crashed workers restart with backoff
(retired after --max-restarts) while their in-flight requests replay on
survivors (up to --max-retries dispatches each, then a retryable
\"internal\" error; answers are exactly-once throughout). A control
line {\"control\":\"resize\",\"fleet\":N} resizes the fleet live —
removed workers drain in-flight work before exiting, and their ring
ranges hand off to the survivors. On stdin EOF the fleet drains for
--drain-timeout-ms, then answers the remainder with retryable
\"shutdown\" errors. ok responses gain \"worker\", \"attempts\", and
\"solve_micros\" fields; bad control lines are answered with class
\"control\". --ladder NAME,… sets the workers' degradation ladder, top
rung first: any name from `aa-solve solvers` except tiered (default
exact-bb,algo2-refined,algo2,uu). The fleet-only flags are usage errors
without --fleet. Fleet metrics appear as aa_fleet_* series (per-worker
series labeled {worker=…}); each worker also federates its own
registry to the front-end over heartbeats, so /metrics re-exports
worker series with a worker= label plus a worker=\"fleet\" merged
aggregate. --slo-p99-ms P (default 100) sets the end-to-end p99
latency objective tracked by the aa_slo_* series: per-class
aa_slo_e2e_micros histograms plus an error-budget burn rate
(aa_slo_burn_rate, 1.0 = burning exactly the 1% budget). serve
--fleet --trace writes a *merged* Chrome trace at EOF: workers batch
their pipeline spans over the control pipe and the front-end stitches
them — clock-aligned, one lane per worker pid — under its own
per-request admission/queue/dispatch spans, so each request shows one
end-to-end timeline across processes.
chaos runs the seeded kill/stall/panic storm from aa-sim against a real
shard pool (every shard killed --kills times) and prints the chaos
report as JSON; it exits nonzero unless every robustness invariant held
(no request lost or duplicated, every shard restarted, warm latency
recovered). chaos --fleet runs the process-level storm instead: real
worker processes take --kills SIGKILLs, --stalls heartbeat stalls of
--stall-millis, and --garbage corrupt-frame injections at seeded
per-worker solve counts; the gate additionally requires byte-exact
rebalance back to ring owners and solve outputs bit-identical to a
single-process reference. Same seed, same report, byte for byte.
--trace records the solve pipeline's spans and writes a Chrome
trace_event file (open at chrome://tracing or ui.perfetto.dev).

exit codes:
  0  success                      5  deadline exceeded / cancelled
  1  usage error                  6  i/o failure
  2  malformed input (JSON, spec, 7  churn or chaos run failed
     problem validation)          8  metrics endpoint bind failed
  3  unknown solver               9  fleet worker failed to spawn
  4  solve failed (too large, non-finite, infeasible)
";

/// A binary-level failure: either a usage mistake (exit 1, prints the
/// usage text) or an application error (exit code per [`CliError`]
/// class).
enum Failure {
    Usage(String),
    App(CliError),
}

impl Failure {
    fn exit_code(&self) -> u8 {
        match self {
            Failure::Usage(_) => 1,
            Failure::App(e) => e.exit_code(),
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(msg) => write!(f, "{msg}"),
            Failure::App(e) => write!(f, "{e}"),
        }
    }
}

impl From<CliError> for Failure {
    fn from(e: CliError) -> Self {
        Failure::App(e)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            aa_obs::obs_error!("cli", "{failure}");
            if matches!(failure, Failure::Usage(_)) {
                eprint!("{USAGE}");
            }
            ExitCode::from(failure.exit_code())
        }
    }
}

fn run() -> Result<(), Failure> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Configure the logger before dispatch so every diagnostic line —
    // including the error main() prints — honors the requested format.
    let format: aa_obs::LogFormat = parsed_flag(&args, "--log-format", aa_obs::LogFormat::default())?;
    aa_obs::init_logger(aa_obs::log::LogLevel::Info, format);
    let Some(command) = args.first() else {
        return Err(Failure::Usage("missing command".into()));
    };
    // `<command> --help` prints the usage and does nothing else: the
    // subcommands ignore flags they do not know, so without this check
    // `bench --help` would run the benchmark.
    if args[1..].iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return Ok(());
    }
    match command.as_str() {
        "solve" => cmd_solve(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "churn" => cmd_churn(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        // Hidden: the fleet front-end re-execs this binary as its
        // worker processes. Not part of the public surface.
        "serve-worker" => cmd_serve_worker(&args[1..]),
        "chaos" => cmd_chaos(&args[1..]),
        "solvers" => {
            for name in SOLVER_NAMES {
                println!("{name}");
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(Failure::Usage(format!("unknown command {other:?}"))),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, Failure> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| Failure::Usage(format!("{flag} needs a value"))),
    }
}

/// Parse `--flag VALUE` when present (`None` when absent).
fn optional_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, Failure>
where
    T::Err: std::fmt::Display,
{
    flag_value(args, flag)?
        .map(|raw| raw.parse().map_err(|e| Failure::Usage(format!("bad {flag}: {e}"))))
        .transpose()
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, Failure>
where
    T::Err: std::fmt::Display,
{
    Ok(optional_flag(args, flag)?.unwrap_or(default))
}

/// Read a file, classifying failures as i/o errors (exit 6) with the
/// path in the message.
fn read_file(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| {
        Failure::App(CliError::Io(std::io::Error::new(e.kind(), format!("{path}: {e}"))))
    })
}

fn to_json<T: serde::Serialize>(value: &T, pretty: bool) -> Result<String, Failure> {
    if pretty {
        serde_json::to_string_pretty(value)
    } else {
        serde_json::to_string(value)
    }
    .map_err(|e| Failure::App(CliError::Parse(e)))
}

/// Write `contents` to `path`, classifying failures as i/o errors with
/// the path in the message.
fn write_file(path: &str, contents: &str) -> Result<(), Failure> {
    std::fs::write(path, contents.as_bytes()).map_err(|e| {
        Failure::App(CliError::Io(std::io::Error::new(e.kind(), format!("{path}: {e}"))))
    })
}

/// Arm span recording when `--trace PATH` was given: install the
/// process collector (idempotent) and enable it. Returns the path.
fn trace_flag(args: &[String]) -> Result<Option<&str>, Failure> {
    let path = flag_value(args, "--trace")?;
    if path.is_some() {
        aa_obs::Collector::install().set_enabled(true);
    }
    Ok(path)
}

/// Dump the recorded spans as a Chrome trace_event file, if recording
/// was armed by [`trace_flag`].
fn write_trace(path: Option<&str>) -> Result<(), Failure> {
    let Some(path) = path else { return Ok(()) };
    let collector = aa_obs::Collector::install();
    write_file(path, &aa_obs::export::chrome_trace_json(collector))?;
    aa_obs::obs_info!("trace", "trace: {} spans → {path}", collector.len());
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), Failure> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| Failure::Usage("missing problem file path".into()))?;
    let solver = flag_value(args, "--solver")?.unwrap_or("algo2");
    let seed: u64 = parsed_flag(args, "--seed", 2016)?;
    let pretty = args.iter().any(|a| a == "--pretty");
    let trace_path = trace_flag(args)?;

    let json = read_file(path)?;
    let solution = solve_document(&json, solver, seed)?;
    write_trace(trace_path)?;
    println!("{}", to_json(&solution, pretty)?);
    aa_obs::obs_info!(
        "solve",
        "solver={} total={:.6} bound={:.6} ratio={:.4} (guarantee {:.4})",
        solution.solver,
        solution.total_utility,
        solution.upper_bound,
        solution.bound_ratio,
        aa_cli::GUARANTEE
    );
    Ok(())
}

fn cmd_churn(args: &[String]) -> Result<(), Failure> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| Failure::Usage("missing problem file path".into()))?;
    let budget: usize = parsed_flag(args, "--budget", 2)?;
    let policy = match flag_value(args, "--policy")?.unwrap_or("migrations") {
        "never" => RepairPolicy::Never,
        "in-place" => RepairPolicy::InPlace,
        "migrations" => RepairPolicy::Migrations(budget),
        "resolve" => RepairPolicy::Resolve,
        other => return Err(Failure::Usage(format!("unknown policy {other:?}"))),
    };
    let defaults = FaultScriptConfig::default();
    let opts = ChurnOpts {
        policy,
        solver: flag_value(args, "--solver")?.unwrap_or("algo2").to_string(),
        seed: parsed_flag(args, "--seed", 2016)?,
        config: FaultScriptConfig {
            epochs: parsed_flag(args, "--epochs", defaults.epochs)?,
            crash_rate: parsed_flag(args, "--crash-rate", defaults.crash_rate)?,
            recovery_rate: parsed_flag(args, "--recovery-rate", defaults.recovery_rate)?,
            flap_rate: parsed_flag(args, "--flap-rate", defaults.flap_rate)?,
            arrival_rate: parsed_flag(args, "--arrival-rate", defaults.arrival_rate)?,
            departure_rate: parsed_flag(args, "--departure-rate", defaults.departure_rate)?,
            ..defaults
        },
    };

    let json = read_file(path)?;
    let script_json = match flag_value(args, "--script")? {
        Some(script_path) => Some(read_file(script_path)?),
        None => None,
    };
    let report = churn_document(&json, script_json.as_deref(), &opts)?;
    println!("{}", to_json(&report, args.iter().any(|a| a == "--pretty"))?);
    aa_obs::obs_info!(
        "churn",
        "epochs={} mean_retention={:.4} min_retention={:.4} degraded={} evacuated={} migrated={}",
        report.epochs.len(),
        report.mean_retention,
        report.min_retention,
        report.degraded_epochs,
        report.total_evacuations,
        report.total_migrations
    );
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), Failure> {
    let defaults = BenchOpts::default();
    let mode = match flag_value(args, "--mode")?.unwrap_or("full") {
        "matrix" => BenchMode::Matrix,
        "incremental" => BenchMode::Incremental,
        "scale" => BenchMode::Scale,
        "full" => BenchMode::Full,
        other => return Err(Failure::Usage(format!("unknown bench mode {other:?}"))),
    };
    let opts = BenchOpts {
        small: args.iter().any(|a| a == "--small"),
        seed: parsed_flag(args, "--seed", defaults.seed)?,
        reps: parsed_flag(args, "--reps", defaults.reps)?,
        mode,
        max_threads: parsed_flag(args, "--max-threads", defaults.max_threads)?,
    };
    let out_path = flag_value(args, "--out")?.unwrap_or("BENCH_solver.json");
    let threads: usize = parsed_flag(args, "--threads", 0)?;
    let trace_path = trace_flag(args)?;

    let report = if threads > 0 {
        rayon::with_threads(threads, || bench_document(&opts))
    } else {
        bench_document(&opts)
    }?;
    write_trace(trace_path)?;

    let json = to_json(&report, args.iter().any(|a| a == "--pretty"))?;
    write_file(out_path, &json)?;

    aa_obs::obs_info!(
        "bench",
        "bench: solver={} pool_threads={} hardware_threads={} seed={} → {out_path}",
        report.solver, report.pool_threads, report.hardware_threads, report.seed
    );
    if report.pool_threads < 4 {
        aa_obs::obs_warn!(
            "bench",
            "POOL TOO NARROW: pool_threads={} (hardware_threads={}). Every parallel \
             speedup column in this report is ≈1.0 and the par gates are vacuous. \
             Re-run with AA_NUM_THREADS>=4 (or --threads 4) on a multi-core host \
             before reading speedups or committing this report as a baseline.",
            report.pool_threads, report.hardware_threads
        );
    }
    for e in &report.entries {
        aa_obs::obs_info!(
            "bench",
            "  {:<9} {:<6} n={:<6} seq={:>9.3}ms par={:>9.3}ms speedup={:>5.2}x \
             ratio={:.4} identical={} stages so={}µs lin={}µs asg={}µs",
            e.dist, e.size, e.threads, e.seq_millis, e.par_millis, e.speedup,
            e.ratio_vs_so, e.identical,
            e.superopt_micros, e.linearize_micros, e.assign_micros
        );
    }
    for e in &report.discrete_path {
        aa_obs::obs_info!(
            "bench",
            "  {:<16} n={:<6} ladder={:>9.1}µs generic={:>9.1}µs engaged={} identical={}",
            e.name, e.threads, e.ladder_micros, e.generic_micros,
            e.ladder_engaged, e.identical
        );
    }
    for e in &report.incremental {
        aa_obs::obs_info!(
            "bench",
            "  {:<9} {:<12} n={:<6} cold={:>9.3}ms warm={:>9.3}ms speedup={:>5.2}x \
             maps cold={:.1} warm={:.1} warm_epochs={}/{} identical={}",
            e.dist,
            e.size,
            e.threads,
            e.cold_median_millis,
            e.warm_median_millis,
            e.speedup,
            e.cold_demand_maps_mean,
            e.warm_demand_maps_mean,
            e.warm_epochs,
            e.epochs,
            e.identical
        );
    }
    for e in &report.scale {
        aa_obs::obs_info!(
            "bench",
            "  {:<9} {:<11} n={:<8} algo2={:>10.3}ms price={:>10.3}ms speedup={:>5.2}x \
             gap_bound={:.4} gap_algo2={:.4} iters={}+{} converged={} \
             sweep seq={:.1}µs par={:.1}µs ({:.2}x) warm={:.3}ms cold={:.3}ms ({:.2}x) identical={}",
            e.dist, e.size, e.threads, e.algo2_millis, e.price_millis, e.speedup_vs_algo2,
            e.gap_vs_bound, e.gap_vs_algo2, e.iterations, e.refine_iterations, e.converged,
            e.sweep_seq_micros, e.sweep_par_micros, e.sweep_speedup,
            e.warm_millis, e.cold_millis, e.warm_speedup, e.identical
        );
    }
    if report.entries.iter().any(|e| !e.identical) {
        return Err(Failure::App(CliError::Churn(
            "determinism violation: a parallel solve diverged from sequential".into(),
        )));
    }
    if report.incremental.iter().any(|e| !e.identical) {
        return Err(Failure::App(CliError::Churn(
            "determinism violation: a warm incremental solve diverged from cold".into(),
        )));
    }
    if report.discrete_path.iter().any(|e| !e.identical || !e.ladder_engaged) {
        return Err(Failure::App(CliError::Churn(
            "discrete fast path violation: ladder disengaged or diverged from generic".into(),
        )));
    }
    if report.scale.iter().any(|e| !e.identical) {
        return Err(Failure::App(CliError::Churn(
            "determinism violation: a price solve diverged across pool widths".into(),
        )));
    }
    if let Some(e) = report.scale.iter().find(|e| !e.converged || e.gap_vs_bound > 0.05) {
        return Err(Failure::App(CliError::Churn(format!(
            "price convergence violation: {} {} converged={} gap_vs_bound={:.4} \
             (tolerance: converged within the iteration cap, gap ≤ 0.05)",
            e.dist, e.size, e.converged, e.gap_vs_bound
        ))));
    }
    Ok(())
}

/// `serve`: one entry for both modes. The flags they share parse once
/// into [`ServeOpts`]; `--fleet N` swaps the in-process shard pool for N
/// worker processes. Setup (`--metrics-addr`) and teardown (the summary
/// log, `--counters`, `--metrics-dump`) are the same for both.
fn cmd_serve(args: &[String]) -> Result<(), Failure> {
    check_serve_flags(args)?;
    let defaults = ServeOpts::default();
    let opts = ServeOpts {
        queue: parsed_flag(args, "--queue", defaults.queue)?,
        default_deadline_ms: optional_flag(args, "--deadline-ms")?,
        shards: parsed_flag(args, "--shards", defaults.shards)?,
        max_line_bytes: parsed_flag(args, "--max-line-bytes", defaults.max_line_bytes)?,
        slo_p99_ms: optional_flag(args, "--slo-p99-ms")?,
        chaos: None,
    };
    let fleet = match optional_flag::<usize>(args, "--fleet")? {
        Some(0) => return Err(Failure::Usage("--fleet needs at least 1 worker".into())),
        Some(workers) => Some(fleet_opts(args, workers, &opts)?),
        None => {
            if let Some(flag) = FLEET_ONLY.iter().find(|f| args.iter().any(|a| a == *f)) {
                return Err(Failure::Usage(format!("{flag} needs --fleet")));
            }
            None
        }
    };
    // The fleet front-end merges worker span batches into its own trace
    // at shutdown; only the in-process mode records spans here.
    let trace_path = if fleet.is_none() { trace_flag(args)? } else { None };
    let counters_path = flag_value(args, "--counters")?;
    let metrics_dump = flag_value(args, "--metrics-dump")?;
    let registry = aa_obs::global();
    if let Some(addr) = flag_value(args, "--metrics-addr")? {
        let local = aa_obs::export::spawn_metrics_server(addr, registry).map_err(|e| {
            Failure::App(CliError::MetricsBind(std::io::Error::new(
                e.kind(),
                format!("{addr}: {e}"),
            )))
        })?;
        aa_obs::obs_info!("serve", "metrics: http://{local}/metrics");
    }

    let (stdin, stdout) = (std::io::stdin().lock(), std::io::stdout());
    let (counters, mode) = match &fleet {
        Some(f) => {
            let counters = run_fleet_serve(stdin, stdout, f, registry)?;
            (counters, format!("fleet: workers={} ", f.workers))
        }
        None => (run_serve(stdin, stdout, &opts, registry)?, "serve: ".to_string()),
    };

    aa_obs::obs_info!(
        "serve",
        "{mode}received={} solved={} shed={} expired_in_queue={} parse_errors={} \
         solve_errors={} solve_panics={} internal_errors={} deadline_misses={}",
        counters.received,
        counters.solved,
        counters.shed,
        counters.expired_in_queue,
        counters.parse_errors,
        counters.solve_errors,
        counters.solve_panics,
        counters.internal_errors,
        counters.deadline_misses
    );
    // The snapshot lists only tiers that answered, so `answered >= 1`.
    for (tier, c) in &counters.per_tier {
        let mean_ms = c.total_micros as f64 / c.answered as f64 / 1e3;
        aa_obs::obs_info!(
            "serve",
            "  tier {tier}: answered={} mean={mean_ms:.3}ms max={:.3}ms",
            c.answered,
            c.max_micros as f64 / 1e3
        );
    }
    if let Some(path) = counters_path {
        write_file(path, &to_json(&counters, true)?)?;
    }
    if let Some(path) = metrics_dump {
        write_file(path, &aa_obs::export::json_snapshot(registry))?;
    }
    write_trace(trace_path)?;
    Ok(())
}

/// `--ladder exact-bb,algo2,…`, when given.
fn ladder_flag(args: &[String]) -> Result<Option<Vec<aa_core::Tier>>, Failure> {
    flag_value(args, "--ladder")?
        .map(|raw| parse_ladder(raw).map_err(|e| Failure::Usage(format!("bad --ladder: {e}"))))
        .transpose()
}

/// The flags `serve` takes in both modes.
const SERVE_FLAGS: [&str; 10] = [
    "--shards",
    "--fleet",
    "--queue",
    "--deadline-ms",
    "--max-line-bytes",
    "--counters",
    "--metrics-addr",
    "--metrics-dump",
    "--slo-p99-ms",
    "--trace",
];

/// Refuse a `serve` argument that is not one of its flags (or the
/// global `--log-format`). Every one of them takes a value, so a flag
/// sits at every other position.
fn check_serve_flags(args: &[String]) -> Result<(), Failure> {
    let known =
        |a: &str| a == "--log-format" || SERVE_FLAGS.contains(&a) || FLEET_ONLY.contains(&a);
    match args.iter().step_by(2).find(|a| !known(a)) {
        Some(arg) => Err(Failure::Usage(format!("serve does not take {arg:?}"))),
        None => Ok(()),
    }
}

/// The flags [`fleet_opts`] reads; without `--fleet` they are usage
/// errors rather than silently ignored.
const FLEET_ONLY: [&str; 9] = [
    "--ladder",
    "--max-streams",
    "--seed",
    "--heartbeat-ms",
    "--heartbeat-miss",
    "--max-retries",
    "--max-restarts",
    "--drain-timeout-ms",
    "--worker-cmd",
];

/// `serve --fleet N`: the shared serve flags plus the fleet-only ones.
fn fleet_opts(args: &[String], workers: usize, shared: &ServeOpts) -> Result<FleetOpts, Failure> {
    let defaults = FleetOpts::default();
    Ok(FleetOpts {
        workers,
        queue: shared.queue,
        default_deadline_ms: shared.default_deadline_ms,
        max_line_bytes: shared.max_line_bytes,
        heartbeat_ms: parsed_flag(args, "--heartbeat-ms", defaults.heartbeat_ms)?,
        heartbeat_miss_limit: parsed_flag(args, "--heartbeat-miss", defaults.heartbeat_miss_limit)?,
        max_retries: parsed_flag(args, "--max-retries", defaults.max_retries)?,
        max_restarts: parsed_flag(args, "--max-restarts", defaults.max_restarts)?,
        drain_timeout_ms: parsed_flag(args, "--drain-timeout-ms", defaults.drain_timeout_ms)?,
        max_streams: parsed_flag(args, "--max-streams", defaults.max_streams)?,
        ladder: ladder_flag(args)?,
        seed: parsed_flag(args, "--seed", defaults.seed)?,
        worker_cmd: flag_value(args, "--worker-cmd")?.map(std::path::PathBuf::from),
        trace: flag_value(args, "--trace")?.map(std::path::PathBuf::from),
        slo_p99_ms: shared.slo_p99_ms,
        chaos: None,
    })
}

/// Hidden `serve-worker` mode: one fleet worker process, speaking the
/// frame protocol on stdin/stdout. Spawned by the front-end; never by
/// hand.
fn cmd_serve_worker(args: &[String]) -> Result<(), Failure> {
    let defaults = WorkerOpts::default();
    let chaos = match flag_value(args, "--chaos-faults")? {
        None => None,
        Some(raw) => {
            let faults: Vec<(u64, ProcessFault)> = serde_json::from_str(raw)
                .map_err(|e| Failure::Usage(format!("bad --chaos-faults: {e}")))?;
            let offset: u64 = parsed_flag(args, "--chaos-offset", 0)?;
            Some((faults, offset))
        }
    };
    let opts = WorkerOpts {
        index: parsed_flag(args, "--index", defaults.index)?,
        max_streams: parsed_flag(args, "--max-streams", defaults.max_streams)?,
        ladder: ladder_flag(args)?,
        drain_timeout_ms: parsed_flag(args, "--drain-timeout-ms", defaults.drain_timeout_ms)?,
        trace_spans: args.iter().any(|a| a == "--obs-spans"),
        chaos,
    };
    run_worker(std::io::stdin(), std::io::stdout(), &opts)
        .map_err(|e| Failure::App(CliError::Io(e)))
}

/// Print a chaos report as JSON on stdout (`--pretty` to indent) and to
/// `--out PATH` when given.
fn print_report<T: serde::Serialize>(args: &[String], report: &T) -> Result<(), Failure> {
    let json = to_json(report, args.iter().any(|a| a == "--pretty"))?;
    println!("{json}");
    match flag_value(args, "--out")? {
        Some(path) => write_file(path, &json),
        None => Ok(()),
    }
}

/// Run the deterministic chaos storm from `aa-sim` against a real shard
/// pool and gate on its robustness invariants. The report prints to
/// stdout (and `--out PATH`) whether or not the gate passes, so CI can
/// always archive it.
fn cmd_chaos(args: &[String]) -> Result<(), Failure> {
    if args.iter().any(|a| a == "--fleet") {
        return cmd_fleet_chaos(args);
    }
    let defaults = ChaosConfig::default();
    let cfg = ChaosConfig {
        shards: parsed_flag(args, "--shards", defaults.shards)?,
        streams_per_shard: parsed_flag(args, "--streams-per-shard", defaults.streams_per_shard)?,
        rounds: parsed_flag(args, "--rounds", defaults.rounds)?,
        kills_per_shard: parsed_flag(args, "--kills", defaults.kills_per_shard)?,
        seed: parsed_flag(args, "--seed", defaults.seed)?,
        ..defaults
    };
    if cfg.shards == 0 || cfg.rounds == 0 || cfg.streams_per_shard == 0 {
        return Err(Failure::Usage(
            "chaos needs --shards, --rounds, and --streams-per-shard >= 1".into(),
        ));
    }
    let report = aa_sim::run_chaos(&cfg);
    print_report(args, &report)?;
    aa_obs::obs_info!(
        "chaos",
        "chaos: admitted={} completed={} ok={} crashed={} drained={} solve_panics={} \
         restarts={:?} live_shards={}/{} exactly_once={} survived={}",
        report.admitted,
        report.completed,
        report.ok,
        report.crashed,
        report.drained,
        report.solve_panics,
        report.restarts,
        report.live_shards,
        cfg.shards,
        report.exactly_once,
        report.survived
    );
    if !report.healthy() {
        return Err(Failure::App(CliError::Churn(format!(
            "chaos invariants violated: exactly_once={} survived={} live_shards={}/{} \
             restarts={:?} unrecovered_streams={}",
            report.exactly_once,
            report.survived,
            report.live_shards,
            cfg.shards,
            report.restarts,
            report.recoveries.iter().filter(|r| !r.recovered).count()
        ))));
    }
    Ok(())
}

/// `chaos --fleet`: the process-level storm against a real fleet
/// (worker processes re-execed from this binary). Gates on the fleet
/// invariants: exactly-once, scheduled restarts, rebalance back to ring
/// owners, and solve outputs bit-identical to a single-process
/// reference. The report is deterministic: same seed, same bytes.
fn cmd_fleet_chaos(args: &[String]) -> Result<(), Failure> {
    let defaults = FleetChaosConfig::default();
    let cfg = FleetChaosConfig {
        workers: parsed_flag(args, "--workers", defaults.workers)?,
        streams_per_worker: parsed_flag(args, "--streams-per-worker", defaults.streams_per_worker)?,
        rounds: parsed_flag(args, "--rounds", defaults.rounds)?,
        kills: parsed_flag(args, "--kills", defaults.kills)?,
        stalls: parsed_flag(args, "--stalls", defaults.stalls)?,
        garbage: parsed_flag(args, "--garbage", defaults.garbage)?,
        stall_millis: parsed_flag(args, "--stall-millis", defaults.stall_millis)?,
        seed: parsed_flag(args, "--seed", defaults.seed)?,
        slo_p99_micros: parsed_flag(args, "--slo-p99-ms", defaults.slo_p99_micros / 1000)?
            .saturating_mul(1000)
            .max(1),
    };
    if cfg.workers == 0 || cfg.rounds == 0 || cfg.streams_per_worker == 0 {
        return Err(Failure::Usage(
            "chaos --fleet needs --workers, --rounds, and --streams-per-worker >= 1".into(),
        ));
    }
    let report = run_fleet_chaos(&cfg)?;
    print_report(args, &report)?;
    aa_obs::obs_info!(
        "chaos",
        "fleet chaos: admitted={} completed={} ok={} internal={} restarts={:?} \
         exactly_once={} survived={} restarted_on_schedule={} rebalanced={} \
         outputs_identical={} disrupted={} unrecovered={}",
        report.admitted,
        report.completed,
        report.ok,
        report.internal,
        report.restarts,
        report.exactly_once,
        report.survived,
        report.restarted_on_schedule,
        report.rebalanced,
        report.outputs_identical,
        report.disrupted_streams,
        report.unrecovered_streams
    );
    if !report.healthy() {
        return Err(Failure::App(CliError::Churn(format!(
            "fleet chaos invariants violated: exactly_once={} survived={} \
             restarted_on_schedule={} rebalanced={} outputs_identical={} \
             all_recovered={} duplicate_seqs={:?} missing_seqs={:?}",
            report.exactly_once,
            report.survived,
            report.restarted_on_schedule,
            report.rebalanced,
            report.outputs_identical,
            report.all_recovered,
            report.duplicate_seqs,
            report.missing_seqs
        ))));
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), Failure> {
    let defaults = GenerateOpts::default();
    let dist = match flag_value(args, "--dist")?.unwrap_or("uniform") {
        "uniform" => Distribution::Uniform,
        "normal" => Distribution::paper_normal(),
        "powerlaw" => Distribution::PowerLaw {
            alpha: parsed_flag(args, "--alpha", 2.0)?,
        },
        "discrete" => Distribution::Discrete {
            gamma: parsed_flag(args, "--gamma", 0.85)?,
            theta: parsed_flag(args, "--theta", 5.0)?,
        },
        other => return Err(Failure::Usage(format!("unknown distribution {other:?}"))),
    };
    let opts = GenerateOpts {
        servers: parsed_flag(args, "--servers", defaults.servers)?,
        beta: parsed_flag(args, "--beta", defaults.beta)?,
        capacity: parsed_flag(args, "--capacity", defaults.capacity)?,
        dist,
        seed: parsed_flag(args, "--seed", defaults.seed)?,
    };
    let doc = generate_document(&opts);
    println!("{}", to_json(&doc, args.iter().any(|a| a == "--pretty"))?);
    Ok(())
}
