#![warn(missing_docs)]

//! # aa-cli — file-driven solving
//!
//! The `aa-solve` binary turns the library into a tool: problems are
//! JSON documents (servers, capacity, one [`UtilitySpec`] per thread),
//! solutions come back as JSON assignments with per-thread utilities and
//! summary statistics. A `generate` mode emits random paper-style
//! problems for experimentation.
//!
//! ```text
//! aa-solve solve   problem.json [--solver algo2] [--pretty]
//! aa-solve generate --servers 8 --beta 5 --capacity 1000 \
//!                   --dist powerlaw --alpha 2 [--seed S]
//! aa-solve serve   [--queue N] [--deadline-ms D]  # LDJSON request loop
//! aa-solve solvers                      # list available solvers
//! ```
//!
//! This module holds all logic (file formats, solver registry, driver
//! functions) so it is unit-testable; `main.rs` is a thin argv wrapper.
//! The deadline-aware request loop lives in [`serve`].

pub mod fleet;
pub mod proto;
pub mod serve;
pub mod worker;

use aa_core::churn::ClusterEvent;
use aa_core::solver::{batch_seed, Algorithm, SolveError, Solver};
use aa_core::{algo2, superopt, Problem, TieredSolver, ALPHA};
use aa_sim::controller::RepairPolicy;
use aa_sim::faults::{
    generate_script, run_script, ChurnReport, FaultScript, FaultScriptConfig, ScriptedEvent,
};
use aa_utility::{DynUtility, SpecError, UtilitySpec};
use aa_workloads::{Distribution, InstanceSpec};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// A problem document: what `aa-solve solve` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemFile {
    /// Number of servers `m`.
    pub servers: usize,
    /// Per-server capacity `C`.
    pub capacity: f64,
    /// One utility description per thread.
    pub threads: Vec<UtilitySpec>,
}

/// A solution document: what `aa-solve solve` writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolutionFile {
    /// Solver that produced this solution.
    pub solver: String,
    /// Server index per thread.
    pub server: Vec<usize>,
    /// Allocation per thread.
    pub allocation: Vec<f64>,
    /// Utility per thread at its allocation.
    pub utility: Vec<f64>,
    /// Total utility.
    pub total_utility: f64,
    /// The super-optimal upper bound `F̂`.
    pub upper_bound: f64,
    /// `total_utility / upper_bound` (≥ α for the approximation
    /// algorithms).
    pub bound_ratio: f64,
}

/// Everything that can go wrong driving a solve from a file.
#[derive(Debug)]
pub enum CliError {
    /// JSON syntax or schema problems.
    Parse(serde_json::Error),
    /// A thread's utility spec failed validation.
    Spec {
        /// Index of the offending thread in the file.
        thread: usize,
        /// What was wrong with it.
        source: SpecError,
    },
    /// Problem-level validation failed.
    Problem(aa_core::ProblemError),
    /// Unknown solver name.
    UnknownSolver(String),
    /// I/O failure.
    Io(std::io::Error),
    /// A churn run failed (unrepairable event or invalid intermediate
    /// assignment).
    Churn(String),
    /// The solve itself failed (oversized instance, non-finite utility
    /// curve, infeasible output, budget expiry, cancellation).
    Solve(SolveError),
    /// `--metrics-addr` could not be bound. Distinct from [`CliError::Io`]
    /// so orchestrators can tell "the observability endpoint is taken"
    /// (retry on another port) from a failed data read.
    MetricsBind(std::io::Error),
    /// A fleet worker process could not be spawned at startup
    /// (`--fleet`). Distinct from [`CliError::Io`] so orchestrators can
    /// tell "the binary cannot re-exec itself" (bad PATH, exec
    /// permissions, fork limits) from a failed data read.
    WorkerSpawn(std::io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Parse(e) => write!(f, "could not parse input file: {e}"),
            CliError::Spec { thread, source } => {
                write!(f, "thread {thread}: invalid utility: {source}")
            }
            CliError::Problem(e) => write!(f, "invalid problem: {e}"),
            CliError::UnknownSolver(name) => {
                write!(f, "unknown solver {name:?}; run `aa-solve solvers` for the list")
            }
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Churn(msg) => write!(f, "churn run failed: {msg}"),
            CliError::Solve(e) => write!(f, "solve failed: {e}"),
            CliError::MetricsBind(e) => write!(f, "could not bind metrics endpoint: {e}"),
            CliError::WorkerSpawn(e) => write!(f, "could not spawn fleet worker: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// The process exit code for this error class, as documented in the
    /// binary's usage text. Stable: scripts may dispatch on these.
    ///
    /// | code | class |
    /// |---|---|
    /// | 2 | malformed input (JSON, utility spec, problem validation) |
    /// | 3 | unknown solver name |
    /// | 4 | solve failed (too large, non-finite curve, infeasible) |
    /// | 5 | deadline exceeded or cancelled |
    /// | 6 | i/o failure |
    /// | 7 | churn run failed |
    /// | 8 | metrics endpoint bind failed (`--metrics-addr` taken/invalid) |
    /// | 9 | fleet worker spawn failed at startup (`--fleet`) |
    ///
    /// (0 is success; 1 is reserved for usage errors in the binary.)
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Parse(_) | CliError::Spec { .. } | CliError::Problem(_) => 2,
            CliError::UnknownSolver(_) => 3,
            CliError::Solve(SolveError::DeadlineExceeded | SolveError::Cancelled) => 5,
            CliError::Solve(_) => 4,
            CliError::Io(_) => 6,
            CliError::Churn(_) => 7,
            CliError::MetricsBind(_) => 8,
            CliError::WorkerSpawn(_) => 9,
        }
    }
}

impl From<SolveError> for CliError {
    fn from(e: SolveError) -> Self {
        CliError::Solve(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Parse(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// A boxed solver, `Send + Sync` so it can drive the parallel
/// batch/churn entry points.
type BoxedSolver = Box<dyn Solver + Send + Sync>;

/// Build the solver registered under `name`: `"tiered"` (the default
/// degradation ladder) or an [`Algorithm`].
pub fn solver_by_name(name: &str) -> Result<BoxedSolver, CliError> {
    if name == "tiered" {
        return Ok(Box::new(TieredSolver::new()));
    }
    Algorithm::parse(name)
        .map(|a| Box::new(a) as BoxedSolver)
        .ok_or_else(|| CliError::UnknownSolver(name.to_string()))
}

/// Names accepted by [`solver_by_name`], in help order: the
/// [`Algorithm`] registry, then `tiered`.
pub const SOLVER_NAMES: &[&str] = &{
    let mut names = ["tiered"; Algorithm::ALL.len() + 1];
    let mut i = 0;
    while i < Algorithm::ALL.len() {
        names[i] = Algorithm::ALL[i].name();
        i += 1;
    }
    names
};

/// Build the live [`Problem`] from a parsed file.
pub fn build_problem(file: &ProblemFile) -> Result<Problem, CliError> {
    build_problem_from(file, &[])
}

/// [`build_problem`] against the threads of a previous build: thread
/// `i` reuses `previous[i]` (the same [`Arc`](std::sync::Arc)) when its
/// spec is exactly what built that object
/// ([`UtilitySpec::build_reusing`]); every other thread is built fresh,
/// with the same errors. A stream's next request built against its
/// last one keeps its unchanged curves, so the warm solve skips them.
pub fn build_problem_from(
    file: &ProblemFile,
    previous: &[DynUtility],
) -> Result<Problem, CliError> {
    let mut threads = Vec::with_capacity(file.threads.len());
    for (i, spec) in file.threads.iter().enumerate() {
        threads.push(
            spec.build_reusing(previous.get(i))
                .map_err(|source| CliError::Spec { thread: i, source })?,
        );
    }
    Problem::new(file.servers, file.capacity, threads).map_err(CliError::Problem)
}

/// Parse, solve, and package a solution document.
pub fn solve_document(json: &str, solver_name: &str, seed: u64) -> Result<SolutionFile, CliError> {
    let file: ProblemFile = serde_json::from_str(json)?;
    let problem = build_problem(&file)?;
    let solver = solver_by_name(solver_name)?;
    let mut rng = StdRng::seed_from_u64(seed);
    // The panic-free path: hostile input (oversized exact instances,
    // non-finite curves) comes back as a typed error and its own exit
    // code instead of an abort.
    let assignment = solver.try_solve_with(&problem, &mut rng)?;

    let utility: Vec<f64> = (0..problem.len())
        .map(|i| problem.utility_of(i, assignment.amount[i]))
        .collect();
    let total: f64 = utility.iter().sum();
    let bound = superopt::super_optimal(&problem).utility;
    Ok(SolutionFile {
        solver: solver.name().to_string(),
        server: assignment.server,
        allocation: assignment.amount,
        utility,
        total_utility: total,
        upper_bound: bound,
        bound_ratio: if bound > 0.0 { total / bound } else { 1.0 },
    })
}

/// Options for `aa-solve generate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerateOpts {
    /// Servers `m`.
    pub servers: usize,
    /// Threads per server `β`.
    pub beta: usize,
    /// Capacity `C`.
    pub capacity: f64,
    /// Workload distribution.
    pub dist: Distribution,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenerateOpts {
    fn default() -> Self {
        GenerateOpts {
            servers: 8,
            beta: 5,
            capacity: 1000.0,
            dist: Distribution::Uniform,
            seed: 2016,
        }
    }
}

/// Generate a random paper-style problem document.
///
/// The generated utilities are emitted as PCHIP control-point specs, so
/// the file round-trips through [`solve_document`] to *exactly* the same
/// functions the in-process generator would build.
pub fn generate_document(opts: &GenerateOpts) -> ProblemFile {
    let spec = InstanceSpec {
        servers: opts.servers,
        beta: opts.beta,
        capacity: opts.capacity,
        dist: opts.dist,
    };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let threads = aa_workloads::genutil::generate_many(
        &spec.dist,
        spec.capacity,
        spec.servers * spec.beta,
        &mut rng,
    )
    .into_iter()
    .map(|g| UtilitySpec::Pchip {
        points: vec![
            (0.0, 0.0),
            (opts.capacity / 2.0, g.v),
            (opts.capacity, g.v + g.w),
        ],
    })
    .collect();
    ProblemFile {
        servers: opts.servers,
        capacity: opts.capacity,
        threads,
    }
}

/// Sanity constant re-exported for the binary's summary line.
pub const GUARANTEE: f64 = ALPHA;

// ---- churn: fault scripts from files or seeds ----

/// One scheduled cluster event, as written in a script file. Arrival
/// utilities are [`UtilitySpec`]s so scripts are self-contained JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum EventSpec {
    /// Server `server` fails at `epoch`.
    ServerDown {
        /// Epoch the event fires.
        epoch: usize,
        /// Failing server (index valid at that point of the script).
        server: usize,
    },
    /// One server rejoins at `epoch`.
    ServerUp {
        /// Epoch the event fires.
        epoch: usize,
    },
    /// Cluster-wide capacity becomes `capacity` at `epoch`.
    CapacityChanged {
        /// Epoch the event fires.
        epoch: usize,
        /// The new per-server capacity.
        capacity: f64,
    },
    /// A thread with the given utility arrives at `epoch`.
    ThreadArrived {
        /// Epoch the event fires.
        epoch: usize,
        /// The arriving thread's utility curve.
        utility: UtilitySpec,
    },
    /// Thread `thread` departs at `epoch`.
    ThreadDeparted {
        /// Epoch the event fires.
        epoch: usize,
        /// Departing thread (index valid at that point of the script).
        thread: usize,
    },
}

/// A fault script document: what `aa-solve churn --script` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScriptFile {
    /// Epochs the run spans (extended if an event is scheduled later).
    pub epochs: usize,
    /// The scheduled events, applied per epoch in listed order.
    pub events: Vec<EventSpec>,
}

/// Build a runnable [`FaultScript`] from a parsed script file.
pub fn build_script(file: &ScriptFile) -> Result<FaultScript, CliError> {
    let mut events = Vec::with_capacity(file.events.len());
    let mut epochs = file.epochs.max(1);
    for (i, spec) in file.events.iter().enumerate() {
        let (epoch, event) = match spec {
            EventSpec::ServerDown { epoch, server } => {
                (*epoch, ClusterEvent::ServerDown { server: *server })
            }
            EventSpec::ServerUp { epoch } => (*epoch, ClusterEvent::ServerUp),
            EventSpec::CapacityChanged { epoch, capacity } => {
                (*epoch, ClusterEvent::CapacityChanged { capacity: *capacity })
            }
            EventSpec::ThreadArrived { epoch, utility } => {
                let built = utility
                    .build()
                    .map_err(|source| CliError::Spec { thread: i, source })?;
                (*epoch, ClusterEvent::ThreadArrived { utility: built })
            }
            EventSpec::ThreadDeparted { epoch, thread } => {
                (*epoch, ClusterEvent::ThreadDeparted { thread: *thread })
            }
        };
        epochs = epochs.max(epoch + 1);
        events.push(ScriptedEvent { epoch, event });
    }
    Ok(FaultScript { events, epochs })
}

/// Options for `aa-solve churn`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOpts {
    /// Repair policy driven through the script.
    pub policy: RepairPolicy,
    /// Solver used for the initial plan and the retention reference.
    pub solver: String,
    /// Seed for script generation (ignored when a script file is given).
    pub seed: u64,
    /// Generator configuration (ignored when a script file is given).
    pub config: FaultScriptConfig,
}

impl Default for ChurnOpts {
    fn default() -> Self {
        ChurnOpts {
            policy: RepairPolicy::Migrations(2),
            solver: "algo2".to_string(),
            seed: 2016,
            config: FaultScriptConfig::default(),
        }
    }
}

/// Parse a problem document, run a churn script against it, and return
/// the retention report. `script_json` overrides seeded generation.
pub fn churn_document(
    problem_json: &str,
    script_json: Option<&str>,
    opts: &ChurnOpts,
) -> Result<ChurnReport, CliError> {
    let file: ProblemFile = serde_json::from_str(problem_json)?;
    let problem = build_problem(&file)?;
    let script = match script_json {
        Some(json) => {
            let file: ScriptFile = serde_json::from_str(json)?;
            build_script(&file)?
        }
        None => generate_script(&problem, &opts.config, opts.seed),
    };
    let solver = solver_by_name(&opts.solver)?;
    run_script(&problem, &script, opts.policy, solver.as_ref())
        .map_err(|e| CliError::Churn(e.to_string()))
}

// ---- bench: the reproducible solver benchmark matrix ----

/// Schema version of [`BenchReport`]; bump on breaking JSON changes.
/// Version 2 added the always-present `incremental` drift entries.
/// Version 3 added the per-stage time breakdowns (`superopt_micros`,
/// `linearize_micros`, `assign_micros`) measured through the `aa-obs`
/// span pipeline.
/// Version 4 added the batched-kernel instrumentation: per-entry
/// `kernel_sweep_micros`/`dispatch_sweep_micros` (now one λ-search
/// sweep, sum included, vs one bare per-element virtual-dispatch loop)
/// and the
/// `discrete_path` entries timing the all-discrete integer ladder
/// against the generic bisection on constructed staircase instances.
/// Version 5 added the `scale` entries (`--mode scale`): the
/// price-discovery backend vs Algorithm 2 on the paper matrix plus
/// `n ∈ {10⁵, 10⁶}` instances — wall clock, iteration counts, utility
/// gaps vs the superopt bound and vs Algo2, per-iteration sweep
/// seq/par timing, and warm-vs-cold drifted re-solve timing. Matrix and
/// scale entries later gained `superopt_rows` and drift entries
/// `cold_rows_mean`/`warm_rows_mean`: demand evaluations of the
/// λ-search, which a report without them reads as 0.
pub const BENCH_VERSION: u32 = 5;

/// Which benchmark suites `aa-solve bench` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchMode {
    /// The seq-vs-par solver matrix only (the original suite).
    Matrix,
    /// The cold-vs-warm incremental drift workload only.
    Incremental,
    /// The price-backend scale suite only (paper matrix + 10⁵/10⁶).
    Scale,
    /// The matrix and incremental suites in one report (`scale` stays
    /// opt-in: its 10⁶ cell is too heavy for the default run).
    Full,
}

/// Options for `aa-solve bench`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchOpts {
    /// Run only the small matrix entries (CI smoke mode).
    pub small: bool,
    /// Base seed; every entry derives its own instance seed from it.
    pub seed: u64,
    /// Timed repetitions per entry; the minimum wall time is reported.
    pub reps: usize,
    /// Which suites to run.
    pub mode: BenchMode,
    /// Upper bound on the scale suite's instance sizes (threads). CI
    /// smoke passes `--max-threads 100000` to skip the 10⁶ cell.
    pub max_threads: usize,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            small: false,
            seed: 2016,
            reps: 3,
            mode: BenchMode::Full,
            max_threads: usize::MAX,
        }
    }
}

/// One cell of the benchmark matrix: a seeded instance of one workload
/// distribution at one size, solved sequentially and in parallel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Workload distribution name (`uniform`/`normal`/`powerlaw`/`discrete`).
    pub dist: String,
    /// Size label: `small` or `large`.
    pub size: String,
    /// Servers `m`.
    pub servers: usize,
    /// Threads `n`.
    pub threads: usize,
    /// Instance seed (derived from the base seed and the entry index).
    pub seed: u64,
    /// Minimum wall time of the sequential solve, milliseconds.
    pub seq_millis: f64,
    /// Minimum wall time of the parallel solve, milliseconds.
    pub par_millis: f64,
    /// `seq_millis / par_millis`.
    pub speedup: f64,
    /// Total utility of the sequential solve.
    pub seq_utility: f64,
    /// Total utility of the parallel solve — must equal `seq_utility`.
    pub par_utility: f64,
    /// Whether the sequential and parallel assignments are exactly equal
    /// (the determinism contract says this is always `true`).
    pub identical: bool,
    /// The super-optimal upper bound `F̂`.
    pub so_bound: f64,
    /// `seq_utility / so_bound` (≥ α by Theorem VI.1).
    pub ratio_vs_so: f64,
    /// Wall time inside the super-optimal bound stage, microseconds
    /// (from an untimed instrumented solve; see [`BENCH_VERSION`]).
    pub superopt_micros: u64,
    /// Wall time inside the linearization stage, microseconds.
    pub linearize_micros: u64,
    /// Wall time inside the assignment stage, microseconds.
    pub assign_micros: u64,
    /// Minimum wall time of one sequential λ-search sweep
    /// (`bisection::sweep` over a market of this instance's capped
    /// views, index-order sum included), microseconds (schema v4).
    pub kernel_sweep_micros: f64,
    /// Minimum wall time of the bare per-element virtual
    /// `inverse_derivative` loop over the same views, microseconds.
    pub dispatch_sweep_micros: f64,
    /// Demand evaluations of the cold super-optimal λ-search.
    #[serde(default)]
    pub superopt_rows: u64,
}

/// One all-discrete fast-path measurement (schema v4): a constructed
/// staircase instance solved through the default entry point (integer
/// ladder engaged) and through the generic-bisection reference arm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscretePathEntry {
    /// Entry label (`staircase-small`/`staircase-large`).
    pub name: String,
    /// Threads `n` in the constructed instance.
    pub threads: usize,
    /// Minimum wall time of the ladder-enabled allocation, microseconds.
    pub ladder_micros: f64,
    /// Minimum wall time of the generic reference arm, microseconds.
    pub generic_micros: f64,
    /// Whether the integer ladder actually engaged on this instance
    /// (it must: the instance is constructed all-staircase).
    pub ladder_engaged: bool,
    /// Whether both arms produced bit-identical allocations (the
    /// ladder's correctness contract; always `true`).
    pub identical: bool,
}

/// One cold-vs-warm drift run: a seeded instance mutated by a small
/// churn fraction each epoch, solved cold (`algo2::solve` from scratch)
/// and warm (`incremental::solve_incremental` with a persistent
/// [`aa_core::WarmState`]) side by side at every epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalEntry {
    /// Workload distribution name.
    pub dist: String,
    /// Size label: `drift-small` or `drift-large`.
    pub size: String,
    /// Servers `m`.
    pub servers: usize,
    /// Threads `n`.
    pub threads: usize,
    /// Epochs driven.
    pub epochs: usize,
    /// Threads mutated per epoch (~1% of `n`, at least 1).
    pub churn_per_epoch: usize,
    /// Instance seed (derived from the base seed and the entry index).
    pub seed: u64,
    /// Median per-epoch wall time of the cold solve, milliseconds.
    pub cold_median_millis: f64,
    /// Median per-epoch wall time of the warm solve, milliseconds.
    pub warm_median_millis: f64,
    /// `cold_median_millis / warm_median_millis`.
    pub speedup: f64,
    /// Mean bisection demand-map evaluations per epoch, cold path.
    pub cold_demand_maps_mean: f64,
    /// Mean bisection demand-map evaluations per epoch, warm path.
    pub warm_demand_maps_mean: f64,
    /// Mean demand evaluations of the bisection per epoch, cold path.
    #[serde(default)]
    pub cold_rows_mean: f64,
    /// Mean demand evaluations of the bisection per epoch, warm path.
    #[serde(default)]
    pub warm_rows_mean: f64,
    /// Epochs (after the first) the engine solved on the warm path
    /// rather than a structural rebuild.
    pub warm_epochs: usize,
    /// Whether warm and cold assignments were exactly equal at *every*
    /// epoch (the incremental engine's bit-identity contract).
    pub identical: bool,
}

/// One scale-suite cell (schema v5): the price-discovery backend and
/// Algorithm 2 solving the same seeded instance, with the price
/// backend's convergence and warm-restart behaviour instrumented.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleEntry {
    /// Workload distribution name.
    pub dist: String,
    /// Size label: `paper-large`, `100k`, or `1m`.
    pub size: String,
    /// Servers `m`.
    pub servers: usize,
    /// Threads `n`.
    pub threads: usize,
    /// Instance seed (derived from the base seed and the entry index).
    pub seed: u64,
    /// Minimum wall time of `algo2::solve`, milliseconds.
    pub algo2_millis: f64,
    /// Minimum wall time of the cold price solve, milliseconds.
    pub price_millis: f64,
    /// `algo2_millis / price_millis` (> 1 where price wins).
    pub speedup_vs_algo2: f64,
    /// Total utility of the Algo2 assignment.
    pub algo2_utility: f64,
    /// Total utility of the price assignment.
    pub price_utility: f64,
    /// The super-optimal upper bound `F̂`.
    pub superopt_bound: f64,
    /// `(superopt_bound − price_utility) / superopt_bound`.
    pub gap_vs_bound: f64,
    /// `(algo2_utility − price_utility) / algo2_utility` (negative when
    /// price beats Algo2).
    pub gap_vs_algo2: f64,
    /// Global price-discovery iterations of the cold solve.
    pub iterations: u64,
    /// Per-server refinement iterations (summed) of the cold solve.
    pub refine_iterations: u64,
    /// Total demand sweeps of the cold solve.
    pub sweeps: u64,
    /// Whether the global market cleared within tolerance under the
    /// iteration cap.
    pub converged: bool,
    /// Minimum wall time of one sequential full-width demand sweep,
    /// microseconds.
    pub sweep_seq_micros: f64,
    /// Minimum wall time of the same sweep through the pool, microseconds.
    pub sweep_par_micros: f64,
    /// `sweep_seq_micros / sweep_par_micros` — the per-iteration
    /// speedup the backend's scaling rests on. Expect ≥ 2× only at
    /// `pool_threads ≥ 4`.
    pub sweep_speedup: f64,
    /// Wall time of a cold price solve on the ~1%-drifted instance,
    /// milliseconds.
    pub cold_millis: f64,
    /// Wall time of a warm price solve (carried [`aa_core::PriceWarmState`])
    /// on the same drifted instance, milliseconds.
    pub warm_millis: f64,
    /// `cold_millis / warm_millis`.
    pub warm_speedup: f64,
    /// Global iterations of the warm drifted re-solve (expect far fewer
    /// than `iterations`).
    pub warm_iterations: u64,
    /// Whether the price solve is bit-identical run at 1 pool thread and
    /// at the ambient pool width (the determinism contract).
    pub identical: bool,
    /// Demand evaluations of Algo2's cold super-optimal λ-search.
    #[serde(default)]
    pub superopt_rows: u64,
}

/// The benchmark document written to `BENCH_solver.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_VERSION`]).
    pub version: u32,
    /// Solver benchmarked (`algo2` — the paper's headline algorithm).
    pub solver: String,
    /// Effective pool thread count the parallel entries ran with.
    pub pool_threads: usize,
    /// Hardware threads the host reports (`available_parallelism`).
    /// Speedup expectations only apply when this is ≥ 4.
    pub hardware_threads: usize,
    /// Base seed of the matrix.
    pub seed: u64,
    /// One entry per (distribution × size) cell; empty in
    /// [`BenchMode::Incremental`] runs.
    pub entries: Vec<BenchEntry>,
    /// One entry per drift run; empty in [`BenchMode::Matrix`] runs.
    pub incremental: Vec<IncrementalEntry>,
    /// All-discrete ladder measurements, one per matrix size; empty in
    /// [`BenchMode::Incremental`] runs (schema v4).
    pub discrete_path: Vec<DiscretePathEntry>,
    /// Price-backend scale suite; populated only in [`BenchMode::Scale`]
    /// runs (schema v5).
    #[serde(default)]
    pub scale: Vec<ScaleEntry>,
}

/// The four paper workload distributions, in reporting order.
fn bench_distributions() -> Vec<(&'static str, Distribution)> {
    vec![
        ("uniform", Distribution::Uniform),
        ("normal", Distribution::paper_normal()),
        ("powerlaw", Distribution::PowerLaw { alpha: 2.0 }),
        ("discrete", Distribution::Discrete { gamma: 0.85, theta: 5.0 }),
    ]
}

/// Matrix sizes: the small cell stays under the allocator's parallel
/// threshold (it measures overhead, not speedup); the large cell's
/// `n = 8192` clears [`aa_allocator::par_threshold`] so the
/// pool path genuinely runs.
fn bench_sizes(small_only: bool) -> Vec<(&'static str, usize, usize)> {
    if small_only {
        vec![("small", 8, 8)]
    } else {
        vec![("small", 8, 8), ("large", 16, 512)]
    }
}

/// Per-stage wall-time breakdown of one `algo2::solve`, measured through
/// the aa-obs span pipeline: install (or reuse) the process collector,
/// open a uniquely-identified probe span, run one *untimed* solve under
/// it, and sum the recorded `superopt`/`linearize`/`assign` spans that
/// chain back to this probe. Filtering by parent id (rather than
/// clearing the buffer) keeps the probe correct when other recording —
/// `--trace`, concurrent tests — shares the collector. Returns
/// `(superopt, linearize, assign)` in microseconds; all zeros if the
/// probe's events were lost (buffer full, or recording raced off).
fn stage_breakdown(problem: &Problem) -> (u64, u64, u64) {
    let collector = aa_obs::Collector::install();
    let was_enabled = collector.is_enabled();
    collector.set_enabled(true);
    let probe = aa_obs::trace::SpanGuard::enter("bench_probe");
    let probe_id = probe.id();
    let _ = algo2::solve(problem);
    drop(probe);
    collector.set_enabled(was_enabled);
    let Some(probe_id) = probe_id else { return (0, 0, 0) };
    let events = collector.events();
    let Some(algo2_id) = events
        .iter()
        .find(|e| e.name == "algo2" && e.parent_id == probe_id)
        .map(|e| e.id)
    else {
        return (0, 0, 0);
    };
    let mut sums = (0_u64, 0_u64, 0_u64);
    for e in &events {
        if e.parent_id != algo2_id {
            continue;
        }
        match e.name {
            "superopt" => sums.0 += e.duration_micros,
            "linearize" => sums.1 += e.duration_micros,
            "assign" => sums.2 += e.duration_micros,
            _ => {}
        }
    }
    sums
}

/// Demand evaluations of one cold super-optimal λ-search on `problem`:
/// the search `superopt::super_optimal` runs, through a fresh cache.
fn superopt_rows(problem: &Problem) -> u64 {
    let mut cache = aa_allocator::WarmCache::new();
    let pool = problem.servers() as f64 * problem.capacity();
    let views = problem.capped_threads();
    aa_allocator::bisection::allocate_warm_into(&views, pool, &mut cache, &mut Vec::new()).rows
}

/// Time one whole-slice demand sweep two ways — the λ-search's own
/// sequential [`sweep`](aa_allocator::bisection::sweep) over a market
/// (values and index-order sum), and the bare per-element virtual
/// `inverse_derivative` loop — over a spread of probe prices. Returns
/// the minimum per-sweep wall time of each path in microseconds. Both
/// write the same values; the gap is what the search's sweep adds to
/// the demand evaluations themselves.
fn kernel_vs_dispatch(problem: &Problem, reps: usize) -> (f64, f64) {
    use aa_allocator::bisection::{sweep, Fan, Market};
    use aa_utility::{DemandTable, Utility};
    let utils = problem.capped_threads();
    let market = Market {
        table: &DemandTable::new(),
        utils: &utils,
        rows: None,
        fan: Fan::Seq,
        supply: 0.0,
        total_cap: 0.0,
    };
    let lambdas: [f64; 6] = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0];
    let mut out = vec![0.0; utils.len()];
    let mut best_kernel = f64::INFINITY;
    let mut best_dispatch = f64::INFINITY;
    let mut sink = 0.0_f64;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        for &l in &lambdas {
            sink += sweep(&market, l, &mut out).expect("untokened sweeps complete");
        }
        best_kernel = best_kernel.min(t0.elapsed().as_secs_f64() * 1e6 / lambdas.len() as f64);
        let t1 = std::time::Instant::now();
        for &l in &lambdas {
            for (slot, u) in out.iter_mut().zip(&utils) {
                *slot = u.inverse_derivative(l);
            }
            sink += out[0];
        }
        best_dispatch =
            best_dispatch.min(t1.elapsed().as_secs_f64() * 1e6 / lambdas.len() as f64);
    }
    std::hint::black_box(sink);
    (best_kernel, best_dispatch)
}

/// Measure the all-discrete integer ladder against the generic
/// bisection on a constructed staircase instance of `n` capped-linear
/// threads (random slopes and knees from `entry_seed`), at a budget
/// chosen below the total knee mass so the marginal price sits on the
/// ladder and the fast path provably engages.
fn discrete_path_entry(name: &str, n: usize, reps: usize, entry_seed: u64) -> DiscretePathEntry {
    use aa_allocator::bisection::{allocate, allocate_generic, discrete_ladder_bracket};
    use rand::Rng;

    let mut rng = StdRng::seed_from_u64(entry_seed);
    let utils: Vec<aa_utility::CappedLinear> = (0..n)
        .map(|_| {
            let slope = rng.gen_range(0.1..10.0);
            let knee = rng.gen_range(1.0..50.0);
            aa_utility::CappedLinear::new(slope, knee, knee + rng.gen_range(0.0..10.0))
        })
        .collect();
    let total_knee: f64 = utils.iter().map(|u| u.knee()).sum();
    let budget = 0.4 * total_knee;

    let ladder_engaged = discrete_ladder_bracket(&utils, budget).is_some();
    let mut ladder_micros = f64::INFINITY;
    let mut generic_micros = f64::INFINITY;
    let mut fast = None;
    let mut generic = None;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        fast = Some(allocate(&utils, budget));
        ladder_micros = ladder_micros.min(t0.elapsed().as_secs_f64() * 1e6);
        let t1 = std::time::Instant::now();
        generic = Some(allocate_generic(&utils, budget));
        generic_micros = generic_micros.min(t1.elapsed().as_secs_f64() * 1e6);
    }
    let (fast, generic) = (fast.expect("reps ≥ 1"), generic.expect("reps ≥ 1"));
    let identical = fast.amounts.len() == generic.amounts.len()
        && fast
            .amounts
            .iter()
            .zip(&generic.amounts)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && fast.utility.to_bits() == generic.utility.to_bits();

    DiscretePathEntry {
        name: name.to_string(),
        threads: n,
        ladder_micros,
        generic_micros,
        ladder_engaged,
        identical,
    }
}

fn time_best<F: FnMut() -> aa_core::Assignment>(reps: usize, mut f: F) -> (f64, aa_core::Assignment) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        let a = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(a);
    }
    (best, out.expect("reps ≥ 1"))
}

/// Median by nearest rank (lower middle for even counts); 0 when empty.
fn median_ms(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

/// Drift sizes: the acceptance workload (64 servers × 512 threads,
/// 100 epochs) plus a CI-sized small run.
fn drift_sizes(small_only: bool) -> Vec<(&'static str, usize, usize, usize)> {
    if small_only {
        vec![("drift-small", 8, 8, 30)]
    } else {
        vec![("drift-small", 8, 8, 30), ("drift-large", 64, 8, 100)]
    }
}

/// Run one seeded drift workload: every epoch mutates ~1% of the
/// threads (fresh utility curves from the same distribution) and solves
/// the instance twice — cold from scratch and warm through a persistent
/// [`aa_core::WarmState`] — recording per-epoch wall times, bisection
/// demand-map counts, and exact output equality.
///
/// An untimed fresh-state solve runs first each epoch: it supplies the
/// cold path's demand-map count (the bisection work `algo2::solve` does
/// without reporting) and touches every buffer, so both timed solves
/// run on warm memory.
fn drift_entry(
    dist_name: &str,
    dist: &Distribution,
    size: &str,
    servers: usize,
    beta: usize,
    epochs: usize,
    entry_seed: u64,
) -> Result<IncrementalEntry, CliError> {
    use aa_core::incremental::solve_incremental;
    use aa_core::{SolveMode, WarmState};

    let capacity = 1000.0;
    let mut rng = StdRng::seed_from_u64(entry_seed);
    let n = servers * beta;
    let mut threads: Vec<DynUtility> =
        aa_workloads::genutil::generate_many(dist, capacity, n, &mut rng)
            .into_iter()
            .map(|g| g.utility)
            .collect();
    let churn = (n / 100).max(1);

    let mut warm = WarmState::new();
    let mut cold_ms = Vec::with_capacity(epochs);
    let mut warm_ms = Vec::with_capacity(epochs);
    let mut cold_maps = 0_u64;
    let mut warm_maps = 0_u64;
    let (mut cold_rows, mut warm_rows) = (0_u64, 0_u64);
    let mut warm_epochs = 0_usize;
    let mut identical = true;

    for epoch in 0..epochs {
        if epoch > 0 {
            for g in aa_workloads::genutil::generate_many(dist, capacity, churn, &mut rng) {
                let at = (rng.next_u64() % n as u64) as usize;
                threads[at] = g.utility;
            }
        }
        // Unchanged threads keep their `Arc` identity, as a stream's
        // carried build hands them back.
        let problem =
            Problem::new(servers, capacity, threads.clone()).map_err(CliError::Problem)?;

        let mut fresh = WarmState::new();
        solve_incremental(&problem, &mut fresh);
        cold_maps += u64::from(fresh.last_stats().warm.demand_maps);
        cold_rows += fresh.last_stats().warm.rows;

        let t0 = std::time::Instant::now();
        let cold = algo2::solve(&problem);
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let t1 = std::time::Instant::now();
        let warm_a = solve_incremental(&problem, &mut warm);
        warm_ms.push(t1.elapsed().as_secs_f64() * 1e3);

        let stats = warm.last_stats();
        warm_maps += u64::from(stats.warm.demand_maps);
        warm_rows += stats.warm.rows;
        warm_epochs += usize::from(stats.mode == SolveMode::Warm);
        identical &= cold == warm_a;
    }

    let cold_median_millis = median_ms(&mut cold_ms);
    let warm_median_millis = median_ms(&mut warm_ms);
    Ok(IncrementalEntry {
        dist: dist_name.to_string(),
        size: size.to_string(),
        servers,
        threads: n,
        epochs,
        churn_per_epoch: churn,
        seed: entry_seed,
        cold_median_millis,
        warm_median_millis,
        speedup: cold_median_millis / warm_median_millis.max(1e-9),
        cold_demand_maps_mean: cold_maps as f64 / epochs as f64,
        warm_demand_maps_mean: warm_maps as f64 / epochs as f64,
        cold_rows_mean: cold_rows as f64 / epochs as f64,
        warm_rows_mean: warm_rows as f64 / epochs as f64,
        warm_epochs,
        identical,
    })
}

/// Scale-suite cells: the four paper distributions at the paper's large
/// matrix size, plus uniform instances at `n = 10⁵` and `n = 10⁶` (16
/// servers; see [`InstanceSpec::scale`]). Cells above `max_threads`
/// are dropped — CI smoke passes `--max-threads 100000`.
fn scale_specs(max_threads: usize) -> Vec<(&'static str, &'static str, InstanceSpec)> {
    let mut specs = Vec::new();
    for (dist_name, dist) in bench_distributions() {
        specs.push((
            dist_name,
            "paper-large",
            InstanceSpec { servers: 16, beta: 512, capacity: 1000.0, dist },
        ));
    }
    specs.push(("uniform", "100k", InstanceSpec::scale(Distribution::Uniform, 100_000)));
    specs.push(("uniform", "1m", InstanceSpec::scale(Distribution::Uniform, 1_000_000)));
    specs.retain(|(_, _, s)| s.threads() <= max_threads);
    specs
}

/// Run one scale-suite cell: Algo2 and the price backend on the same
/// seeded instance, plus the price backend's sweep-level seq/par
/// timing, a ~1% drift warm-vs-cold re-solve, and a 1-thread-vs-pool
/// bit-identity check. Heavy cells (`n ≥ 5·10⁵`) run one rep.
fn scale_entry(
    dist_name: &str,
    size: &str,
    spec: &InstanceSpec,
    reps: usize,
    entry_seed: u64,
) -> Result<ScaleEntry, CliError> {
    use aa_allocator::bisection::{sweep, Fan, Market};
    use aa_core::price::{self, PriceWarmState};
    use aa_utility::DemandTable;

    let mut rng = StdRng::seed_from_u64(entry_seed);
    let problem = spec.generate(&mut rng).map_err(CliError::Problem)?;
    let n = problem.len();
    let reps = if n >= 500_000 { 1 } else { reps.max(1) };

    let (algo2_millis, a2) = time_best(reps, || algo2::solve_par(&problem));
    let mut price_millis = f64::INFINITY;
    let mut price_a = None;
    let mut stats = aa_core::PriceStats::default();
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let (a, s) = price::solve_with(&problem, None, None)
            .expect("unbudgeted price solve cannot fail");
        price_millis = price_millis.min(t0.elapsed().as_secs_f64() * 1e3);
        price_a = Some(a);
        stats = s;
    }
    let price_a = price_a.expect("reps ≥ 1");
    let algo2_utility = a2.total_utility(&problem);
    let price_utility = price_a.total_utility(&problem);
    let superopt_bound = superopt::super_optimal_par(&problem).utility;

    // Per-iteration sweep timing: one full-width demand sweep,
    // sequential vs through the pool, minimum over reps and probe
    // prices. This is the quantity the backend's scaling rests on.
    let utils = problem.capped_threads();
    let mut table = DemandTable::new();
    table.compile(&utils);
    let seq = Market {
        table: &table,
        utils: &utils,
        rows: None,
        fan: Fan::Seq,
        supply: 0.0,
        total_cap: 0.0,
    };
    let pool = Market {
        fan: Fan::Pool(None),
        ..seq
    };
    let mut out = Vec::with_capacity(n);
    let lambdas: [f64; 4] = [1e-2, 0.1, 1.0, 10.0];
    let mut sweep_seq_micros = f64::INFINITY;
    let mut sweep_par_micros = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        for &l in &lambdas {
            sweep(&seq, l, &mut out);
        }
        sweep_seq_micros =
            sweep_seq_micros.min(t0.elapsed().as_secs_f64() * 1e6 / lambdas.len() as f64);
        let t1 = std::time::Instant::now();
        for &l in &lambdas {
            sweep(&pool, l, &mut out);
        }
        sweep_par_micros =
            sweep_par_micros.min(t1.elapsed().as_secs_f64() * 1e6 / lambdas.len() as f64);
    }
    std::hint::black_box(out[0]);

    // Warm-vs-cold drifted re-solve: converge a warm state on the
    // original instance, mutate ~1% of the threads, then solve the
    // drifted instance cold and through the carried prices.
    let mut base_state = PriceWarmState::new();
    let _ = price::solve_warm(&problem, &mut base_state)
        .expect("unbudgeted price solve cannot fail");
    let mut threads: Vec<DynUtility> = problem.threads().to_vec();
    let churn = (n / 100).max(1);
    for g in aa_workloads::genutil::generate_many(&spec.dist, spec.capacity, churn, &mut rng) {
        let at = (rng.next_u64() % n as u64) as usize;
        threads[at] = g.utility;
    }
    let drifted =
        Problem::new(spec.servers, spec.capacity, threads).map_err(CliError::Problem)?;
    let mut cold_millis = f64::INFINITY;
    let mut warm_millis = f64::INFINITY;
    let mut warm_iterations = 0_u64;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let _ = price::solve(&drifted);
        cold_millis = cold_millis.min(t0.elapsed().as_secs_f64() * 1e3);
        // Fresh clone per rep so every warm run starts from the same
        // pre-drift prices.
        let mut state = base_state.clone();
        let t1 = std::time::Instant::now();
        let _ = price::solve_warm(&drifted, &mut state)
            .expect("unbudgeted price solve cannot fail");
        warm_millis = warm_millis.min(t1.elapsed().as_secs_f64() * 1e3);
        warm_iterations = state.last_stats().iterations;
    }

    // Determinism: the cold solve at one pool thread must be
    // bit-identical to the ambient-pool solve above.
    let one = rayon::with_threads(1, || price::solve(&problem));
    let identical = one == price_a;

    Ok(ScaleEntry {
        dist: dist_name.to_string(),
        size: size.to_string(),
        servers: spec.servers,
        threads: n,
        seed: entry_seed,
        algo2_millis,
        price_millis,
        speedup_vs_algo2: algo2_millis / price_millis.max(1e-9),
        algo2_utility,
        price_utility,
        superopt_bound,
        gap_vs_bound: if superopt_bound > 0.0 {
            (superopt_bound - price_utility) / superopt_bound
        } else {
            0.0
        },
        gap_vs_algo2: if algo2_utility > 0.0 {
            (algo2_utility - price_utility) / algo2_utility
        } else {
            0.0
        },
        iterations: stats.iterations,
        refine_iterations: stats.refine_iterations,
        sweeps: stats.sweeps,
        converged: stats.converged,
        sweep_seq_micros,
        sweep_par_micros,
        sweep_speedup: sweep_seq_micros / sweep_par_micros.max(1e-9),
        cold_millis,
        warm_millis,
        warm_speedup: cold_millis / warm_millis.max(1e-9),
        warm_iterations,
        identical,
        superopt_rows: superopt_rows(&problem),
    })
}

/// Run the fixed benchmark matrix: every paper distribution × every size
/// × {sequential, parallel} Algorithm 2, on instances derived
/// deterministically from `opts.seed`. Timing varies run to run; every
/// other field is reproducible, and `identical` is `true` in every entry
/// by the determinism contract (the binary test and CI smoke job fail
/// otherwise).
pub fn bench_document(opts: &BenchOpts) -> Result<BenchReport, CliError> {
    let run_matrix = matches!(opts.mode, BenchMode::Matrix | BenchMode::Full);
    let run_incremental = matches!(opts.mode, BenchMode::Incremental | BenchMode::Full);
    let run_scale = matches!(opts.mode, BenchMode::Scale);

    let mut entries = Vec::new();
    let mut index = 0_usize;
    for (size, servers, beta) in if run_matrix { bench_sizes(opts.small) } else { Vec::new() } {
        for (dist_name, dist) in bench_distributions() {
            let spec = InstanceSpec { servers, beta, capacity: 1000.0, dist };
            let entry_seed = batch_seed(opts.seed, index);
            index += 1;
            let mut rng = StdRng::seed_from_u64(entry_seed);
            let problem = spec
                .generate(&mut rng)
                .map_err(CliError::Problem)?;

            let (seq_millis, seq) = time_best(opts.reps, || algo2::solve(&problem));
            let (par_millis, par) = time_best(opts.reps, || algo2::solve_par(&problem));
            let seq_utility = seq.total_utility(&problem);
            let par_utility = par.total_utility(&problem);
            let so_bound = superopt::super_optimal(&problem).utility;
            let (superopt_micros, linearize_micros, assign_micros) = stage_breakdown(&problem);
            let (kernel_sweep_micros, dispatch_sweep_micros) =
                kernel_vs_dispatch(&problem, opts.reps);
            entries.push(BenchEntry {
                dist: dist_name.to_string(),
                size: size.to_string(),
                servers,
                threads: spec.threads(),
                seed: entry_seed,
                seq_millis,
                par_millis,
                speedup: seq_millis / par_millis.max(1e-9),
                seq_utility,
                par_utility,
                identical: seq == par,
                so_bound,
                ratio_vs_so: if so_bound > 0.0 { seq_utility / so_bound } else { 1.0 },
                superopt_micros,
                linearize_micros,
                assign_micros,
                kernel_sweep_micros,
                dispatch_sweep_micros,
                superopt_rows: superopt_rows(&problem),
            });
        }
    }
    let mut discrete_path = Vec::new();
    if run_matrix {
        // Seeds decoupled from both other blocks (same convention as the
        // drift suite) so adding cells never reshuffles instances.
        for (ladder_index, (size, servers, beta)) in
            bench_sizes(opts.small).into_iter().enumerate()
        {
            let entry_seed = batch_seed(opts.seed, 2000 + ladder_index);
            discrete_path.push(discrete_path_entry(
                &format!("staircase-{size}"),
                servers * beta,
                opts.reps,
                entry_seed,
            ));
        }
    }
    let mut incremental = Vec::new();
    if run_incremental {
        // Seeds decoupled from the matrix block so adding matrix cells
        // never reshuffles drift instances.
        let mut drift_index = 1000_usize;
        for (size, servers, beta, epochs) in drift_sizes(opts.small) {
            for (dist_name, dist) in bench_distributions() {
                let entry_seed = batch_seed(opts.seed, drift_index);
                drift_index += 1;
                incremental.push(drift_entry(
                    dist_name, &dist, size, servers, beta, epochs, entry_seed,
                )?);
            }
        }
    }

    let mut scale = Vec::new();
    if run_scale {
        // Seeds decoupled from the matrix (0..), drift (1000..) and
        // ladder (2000..) blocks so adding cells anywhere never
        // reshuffles another suite's instances.
        // `--small` caps the suite at 10^5; an explicit tighter
        // `--max-threads` composes rather than being ignored.
        let max = if opts.small {
            opts.max_threads.min(100_000)
        } else {
            opts.max_threads
        };
        for (scale_index, (dist_name, size, spec)) in
            scale_specs(max).into_iter().enumerate()
        {
            let entry_seed = batch_seed(opts.seed, 3000 + scale_index);
            scale.push(scale_entry(dist_name, size, &spec, opts.reps, entry_seed)?);
        }
    }

    Ok(BenchReport {
        version: BENCH_VERSION,
        solver: "algo2".to_string(),
        pool_threads: rayon::current_num_threads(),
        hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: opts.seed,
        entries,
        incremental,
        discrete_path,
        scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_problem_json() -> String {
        serde_json::to_string(&ProblemFile {
            servers: 2,
            capacity: 10.0,
            threads: vec![
                UtilitySpec::Power { scale: 4.0, beta: 0.5, cap: 10.0 },
                UtilitySpec::Log { scale: 3.0, rate: 1.0, cap: 10.0 },
                UtilitySpec::CappedLinear { slope: 2.0, knee: 3.0, cap: 10.0 },
            ],
        })
        .unwrap()
    }

    #[test]
    fn solve_round_trip() {
        let sol = solve_document(&tiny_problem_json(), "algo2", 0).unwrap();
        assert_eq!(sol.solver, "algo2");
        assert_eq!(sol.server.len(), 3);
        assert!(sol.total_utility > 0.0);
        assert!(sol.bound_ratio >= GUARANTEE - 1e-9);
        assert!(sol.bound_ratio <= 1.0 + 1e-9);
        // The solution document itself serializes (floats may move by an
        // ulp through JSON text, so compare with tolerance).
        let json = serde_json::to_string(&sol).unwrap();
        let back: SolutionFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.solver, sol.solver);
        assert_eq!(back.server, sol.server);
        assert!((back.total_utility - sol.total_utility).abs() < 1e-12);
        assert!((back.bound_ratio - sol.bound_ratio).abs() < 1e-12);
    }

    #[test]
    fn every_registered_solver_runs() {
        for name in SOLVER_NAMES {
            // `exact` is fine here: only 3 threads.
            let sol = solve_document(&tiny_problem_json(), name, 1)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&sol.solver.as_str(), name);
        }
    }

    #[test]
    fn unknown_solver_is_reported() {
        let err = solve_document(&tiny_problem_json(), "quantum", 0).unwrap_err();
        assert!(matches!(err, CliError::UnknownSolver(_)));
        assert!(err.to_string().contains("quantum"));
    }

    #[test]
    fn bad_spec_names_the_thread() {
        let json = serde_json::to_string(&ProblemFile {
            servers: 1,
            capacity: 5.0,
            threads: vec![
                UtilitySpec::Power { scale: 1.0, beta: 0.5, cap: 5.0 },
                UtilitySpec::Power { scale: 1.0, beta: 7.0, cap: 5.0 }, // convex
            ],
        })
        .unwrap();
        let err = solve_document(&json, "algo2", 0).unwrap_err();
        match err {
            CliError::Spec { thread, .. } => assert_eq!(thread, 1),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let err = solve_document("{nope", "algo2", 0).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)));
    }

    #[test]
    fn generated_documents_solve() {
        let opts = GenerateOpts {
            servers: 4,
            beta: 3,
            capacity: 100.0,
            dist: Distribution::Discrete { gamma: 0.85, theta: 5.0 },
            seed: 7,
        };
        let doc = generate_document(&opts);
        assert_eq!(doc.threads.len(), 12);
        let json = serde_json::to_string(&doc).unwrap();
        let sol = solve_document(&json, "algo2", 0).unwrap();
        assert!(sol.bound_ratio >= GUARANTEE - 1e-9);
    }

    #[test]
    fn generation_is_deterministic() {
        let opts = GenerateOpts::default();
        assert_eq!(generate_document(&opts), generate_document(&opts));
    }

    #[test]
    fn churn_with_generated_script_runs() {
        let report = churn_document(&tiny_problem_json(), None, &ChurnOpts::default()).unwrap();
        assert_eq!(report.epochs.len(), FaultScriptConfig::default().epochs);
        assert!(report.mean_retention.is_finite());
        for e in &report.epochs {
            assert!(e.utility >= e.naive_utility - 1e-9 || e.events == 0);
        }
        // Report round-trips through JSON.
        let json = serde_json::to_string(&report).unwrap();
        let back: ChurnReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.epochs.len(), report.epochs.len());
    }

    #[test]
    fn churn_with_script_file_runs() {
        let script = serde_json::to_string(&ScriptFile {
            epochs: 6,
            events: vec![
                EventSpec::ServerDown { epoch: 1, server: 0 },
                EventSpec::ThreadArrived {
                    epoch: 2,
                    utility: UtilitySpec::Power { scale: 2.0, beta: 0.5, cap: 10.0 },
                },
                EventSpec::ServerUp { epoch: 3 },
                EventSpec::ThreadDeparted { epoch: 4, thread: 1 },
                EventSpec::CapacityChanged { epoch: 5, capacity: 8.0 },
            ],
        })
        .unwrap();
        let report =
            churn_document(&tiny_problem_json(), Some(&script), &ChurnOpts::default()).unwrap();
        assert_eq!(report.epochs.len(), 6);
        // Down at 1 evacuates; up at 3 restores the second server.
        assert!(report.total_evacuations >= 1);
        assert_eq!(report.epochs[3].servers, 2);
        assert_eq!(report.epochs[5].threads, 3);
    }

    #[test]
    fn churn_script_with_bad_event_is_reported() {
        let script = serde_json::to_string(&ScriptFile {
            epochs: 2,
            events: vec![EventSpec::ServerDown { epoch: 0, server: 99 }],
        })
        .unwrap();
        let err = churn_document(&tiny_problem_json(), Some(&script), &ChurnOpts::default())
            .unwrap_err();
        assert!(matches!(err, CliError::Churn(_)), "{err}");
    }

    #[test]
    fn bench_small_matrix_is_identical_and_within_guarantee() {
        let opts = BenchOpts { small: true, seed: 7, reps: 1, mode: BenchMode::Matrix, ..BenchOpts::default() };
        let report = bench_document(&opts).unwrap();
        assert_eq!(report.version, BENCH_VERSION);
        assert_eq!(report.entries.len(), 4); // four distributions × one size
        assert!(report.incremental.is_empty(), "matrix mode ran the drift suite");
        for e in &report.entries {
            assert!(e.identical, "{}: seq/par assignments diverged", e.dist);
            assert_eq!(e.seq_utility.to_bits(), e.par_utility.to_bits(), "{}", e.dist);
            assert!(e.ratio_vs_so >= GUARANTEE - 1e-9, "{}: {}", e.dist, e.ratio_vs_so);
            assert!(e.ratio_vs_so <= 1.0 + 1e-9);
            assert!(e.seq_millis >= 0.0 && e.par_millis >= 0.0);
            assert_eq!(e.threads, 64);
        }
        // Utilities (not timings) are seed-reproducible.
        let again = bench_document(&opts).unwrap();
        for (a, b) in report.entries.iter().zip(&again.entries) {
            assert_eq!(a.seq_utility.to_bits(), b.seq_utility.to_bits());
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn bench_report_round_trips_through_json() {
        let opts = BenchOpts { small: true, seed: 1, reps: 1, mode: BenchMode::Full, ..BenchOpts::default() };
        let report = bench_document(&opts).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries.len(), report.entries.len());
        assert_eq!(back.incremental.len(), report.incremental.len());
        assert_eq!(back.solver, "algo2");
    }

    #[test]
    fn bench_incremental_mode_is_bit_identical_and_stays_warm() {
        let opts = BenchOpts { small: true, seed: 3, reps: 1, mode: BenchMode::Incremental, ..BenchOpts::default() };
        let report = bench_document(&opts).unwrap();
        assert!(report.entries.is_empty(), "incremental mode ran the matrix");
        assert_eq!(report.incremental.len(), 4); // four distributions × one size
        for e in &report.incremental {
            assert!(e.identical, "{}: warm/cold assignments diverged", e.dist);
            assert_eq!(e.threads, 64);
            assert_eq!(e.epochs, 30);
            assert_eq!(e.churn_per_epoch, 1);
            // Every post-baseline epoch mutates ≤1% of the threads, so
            // the engine must stay on the warm path throughout.
            assert_eq!(e.warm_epochs, e.epochs - 1, "{}", e.dist);
            assert!(e.cold_demand_maps_mean > 0.0 && e.warm_demand_maps_mean > 0.0);
            // The warm bracket must not cost *more* bisection work than
            // cold on a drift workload (latency is asserted in CI with
            // tolerance, not here — unit tests run under load).
            assert!(
                e.warm_demand_maps_mean <= e.cold_demand_maps_mean,
                "{}: warm {} maps vs cold {}",
                e.dist,
                e.warm_demand_maps_mean,
                e.cold_demand_maps_mean
            );
        }
        // Non-timing fields are seed-reproducible.
        let again = bench_document(&opts).unwrap();
        for (a, b) in report.incremental.iter().zip(&again.incremental) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.warm_demand_maps_mean, b.warm_demand_maps_mean);
            assert_eq!(a.warm_epochs, b.warm_epochs);
        }
    }

    #[test]
    fn script_files_round_trip() {
        let file = ScriptFile {
            epochs: 3,
            events: vec![
                EventSpec::ServerUp { epoch: 0 },
                EventSpec::ThreadArrived {
                    epoch: 1,
                    utility: UtilitySpec::Log { scale: 1.0, rate: 2.0, cap: 4.0 },
                },
            ],
        };
        let json = serde_json::to_string_pretty(&file).unwrap();
        let back: ScriptFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn late_events_extend_the_epoch_count() {
        let script = build_script(&ScriptFile {
            epochs: 2,
            events: vec![EventSpec::ServerUp { epoch: 9 }],
        })
        .unwrap();
        assert_eq!(script.epochs, 10);
    }

    #[test]
    fn generated_specs_match_in_process_generator() {
        // The PCHIP spec written to the file must rebuild the exact same
        // function the workload generator produced.
        let opts = GenerateOpts { servers: 2, beta: 2, ..Default::default() };
        let doc = generate_document(&opts);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let direct = aa_workloads::genutil::generate_many(
            &opts.dist,
            opts.capacity,
            4,
            &mut rng,
        );
        for (spec, g) in doc.threads.iter().zip(&direct) {
            let built = spec.build().unwrap();
            for x in [0.0, 123.0, 500.0, 987.0] {
                assert!(
                    (aa_utility::Utility::value(built.as_ref(), x)
                        - aa_utility::Utility::value(g.utility.as_ref(), x))
                    .abs()
                        < 1e-9
                );
            }
        }
    }
}
