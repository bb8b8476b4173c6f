//! `perfbench` — the client-timed benchmark of `aa-solve serve`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout, after `cargo build --release -p
//! aa-cli` (`perfbench/run.sh` does both). `--trace 0` drives the real
//! server and prints the end-to-end metrics; `--trace 1` prints the
//! per-layer ledger. The last stdout line is the result object; the
//! line before it is the run record. See `perfbench/README.md`.

mod check;
mod layers;
mod report;
mod server;
mod session;
mod stats;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, SystemTime};

use check::{check, Expected, Verdict};
use report::Report;
use session::{Bodies, Observed, Plan};
use workload::{body, Generator, Workload};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must lie in [1, 60]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}: expected 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The files a build of `aa-solve` depends on, sorted.
fn sources(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut out = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut out);
    walk(&root.join("vendor"), &mut out);
    out.sort();
    out
}

/// Refuse an `aa-solve` older than any of its sources: a stale binary
/// would measure code that is not in the checkout.
fn check_fresh(bin: &Path, sources: &[PathBuf]) -> Result<(), String> {
    let mtime = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let built = mtime(bin).ok_or(format!(
        "{} not found; build it with `cargo build --release -p aa-cli`",
        bin.display()
    ))?;
    let newest = sources
        .iter()
        .filter_map(|p| mtime(p).map(|t| (t, p)))
        .max();
    match newest {
        Some((t, p)) if t > built => Err(format!(
            "{} is older than {}; rebuild with `cargo build --release -p aa-cli`",
            bin.display(),
            p.display()
        )),
        _ => Ok(()),
    }
}

/// FNV-1a over the sources' paths and contents: identifies the code
/// measured when the checkout is not a git repository.
fn source_hash(root: &Path, sources: &[PathBuf]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in sources {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(p).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_hash(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let wl = workload::by_name(&args.workload).ok_or(format!(
        "unknown workload {:?}; expected one of {:?}",
        args.workload,
        workload::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
    ))?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run from the root of an aa checkout (crates/cli is missing)".into());
    }
    let target = root.join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let bin = target.join("release/aa-solve");
    let sources = sources(&root);
    check_fresh(&bin, &sources)?;
    let scratch = target
        .join("perfbench")
        .join(format!("{}-{}", wl.name, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let started = SystemTime::now();
    let mut report = if args.trace {
        layers::run(wl, &bin, &scratch, args.seed, args.seconds)
    } else {
        end_to_end(wl, &bin, &scratch, args.seed, args.seconds)
    }?;
    let _ = std::fs::remove_dir_all(&scratch);

    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    report.note("workload", wl.name);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", args.trace);
    report.note(
        "nproc",
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    report.note(
        "loadavg",
        loadavg
            .split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.note("git", git_hash(&root));
    report.note("source_hash", source_hash(&root, &sources));
    report.note(
        "wall_s",
        started.elapsed().unwrap_or(Duration::ZERO).as_secs_f64(),
    );
    Ok(report.print())
}

/// The request bodies a session sends, serialized up front: one per pool
/// slot, or `count` in send order for drift workloads.
pub fn bodies(wl: &Workload, seed: u64, count: usize) -> Bodies {
    let mut g = Generator::new(wl, seed);
    let n = if wl.drift { count } else { wl.pool };
    let bodies = (0..n)
        .map(|_| {
            let (stream, problem) = g.next_request();
            body(stream, wl.limit_ms, problem)
        })
        .collect();
    Bodies {
        bodies,
        cycle: !wl.drift,
    }
}

/// Server arguments for `wl`, dumping counters to `counters`.
pub fn serve_args(wl: &Workload, counters: &Path, extra: &[String]) -> Vec<String> {
    let mut args: Vec<String> = wl.serve_args.iter().map(|s| (*s).to_string()).collect();
    args.push("--counters".into());
    args.push(counters.display().to_string());
    args.extend_from_slice(extra);
    args
}

/// Open-loop requests in a window of `secs`.
pub fn open_count(wl: &Workload, secs: f64) -> usize {
    (wl.rate_rps * secs).round() as usize
}

/// Generator lag (p99) beyond which a run is void: the client, not the
/// server, would be setting the pace.
pub fn lag_bound_ms(wl: &Workload) -> f64 {
    wl.limit_ms as f64 / 4.0
}

/// A session's answers, checked: latency samples, quality and counts.
#[derive(Default)]
pub struct Tally {
    /// Requests sent (set-up probes excluded).
    pub sent: usize,
    /// Open-loop requests sent.
    pub open_sent: usize,
    /// `ok` answers that passed every check.
    pub ok: usize,
    /// Open-loop answers within the latency limit.
    pub open_in_limit: usize,
    /// Open-loop client latency per `ok` answer, ms, by time block.
    pub latency_ms: Vec<Vec<f64>>,
    /// Client latency minus the server's `latency_ms`, per open `ok`.
    pub unclocked_ms: Vec<f64>,
    /// Σ utility ÷ SO bound over `ok` answers.
    pub quality_sum: f64,
    /// Shed, error, or invalid answers.
    pub failed: usize,
    /// `ok` answers that failed a check.
    pub invalid: usize,
    /// Requests with no answer.
    pub missing: usize,
    /// Requests answered more than once.
    pub duplicated: usize,
    /// Answers to no request this session sent.
    pub stray: usize,
    /// The server's counters agree with the client's.
    pub counters_agree: bool,
}

impl Tally {
    /// Check every answer of `obs` against the problems regenerated from
    /// `seed`.
    pub fn new(wl: &Workload, seed: u64, obs: &Observed) -> Tally {
        let mut by_id: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, r) in obs.responses.iter().enumerate() {
            by_id.entry(r.id).or_default().push(i);
        }
        let mut t = Tally {
            sent: obs.sent.len(),
            ..Tally::default()
        };
        let mut g = Generator::new(wl, seed);
        let mut pool: Vec<Option<Expected>> = (0..wl.pool).map(|_| None).collect();
        let mut drift_expected = None;
        for s in &obs.sent {
            let slot = g.pool_index(s.k);
            let (_, problem) = g.next_request();
            let expected = match slot {
                Some(j) => &*pool[j].get_or_insert_with(|| Expected::new(problem)),
                None => &*drift_expected.insert(Expected::new(problem)),
            };
            t.open_sent += usize::from(s.block.is_some());
            let answers = by_id.remove(&(s.k as u64 + 1)).unwrap_or_default();
            match answers.len() {
                0 => t.missing += 1,
                1 => {}
                _ => t.duplicated += 1,
            }
            let Some(&first) = answers.first() else {
                continue;
            };
            let r = &obs.responses[first];
            match check(&r.line, expected) {
                Verdict::Ok(c) => {
                    t.ok += 1;
                    t.quality_sum += c.quality;
                    if let Some(block) = s.block {
                        let ms = r.at.duration_since(s.due).as_secs_f64() * 1e3;
                        t.open_in_limit += usize::from(ms <= wl.limit_ms as f64);
                        if t.latency_ms.len() <= block {
                            t.latency_ms.resize(block + 1, Vec::new());
                        }
                        t.latency_ms[block].push(ms);
                        t.unclocked_ms.push(ms - c.server_ms);
                    }
                }
                Verdict::NotOk(class) => {
                    eprintln!("perfbench: request {} answered {class}", s.k + 1);
                    t.failed += 1;
                }
                Verdict::Invalid(why) => {
                    eprintln!("perfbench: request {} got a wrong answer: {why}", s.k + 1);
                    t.failed += 1;
                    t.invalid += 1;
                }
            }
        }
        t.stray = by_id.values().map(Vec::len).sum();
        // The probe is one more request, answered ok.
        let counter = |name: &str| obs.counters.as_ref().and_then(|c| c[name].as_u64());
        t.counters_agree = counter("received") == Some(t.sent as u64 + 1)
            && counter("solved") == Some(t.ok as u64 + 1);
        t
    }

    /// Open-loop `ok` answers.
    pub fn open_ok(&self) -> usize {
        self.latency_ms.iter().map(Vec::len).sum()
    }

    /// Exactly once, nothing wrong, and the server agrees.
    pub fn sound(&self) -> bool {
        self.missing == 0
            && self.duplicated == 0
            && self.invalid == 0
            && self.stray == 0
            && self.counters_agree
    }
}

/// Time blocks for `n` open-loop requests: up to ten, at least 20
/// requests each. CPU per request is the median over blocks, so a
/// stretch in which the host slowed this guest down moves it no more than
/// its share of blocks allows.
pub fn block_count(n: usize) -> usize {
    (n / 20).clamp(1, 10)
}

/// `--trace 0`: the end-to-end metrics from one untraced session.
fn end_to_end(
    wl: &Workload,
    bin: &Path,
    scratch: &Path,
    seed: u64,
    secs: f64,
) -> Result<Report, String> {
    let warmup = open_count(wl, 0.5).max(4);
    let open = open_count(wl, secs);
    let bodies = bodies(wl, seed, warmup + open);
    let counters = scratch.join("counters.json");
    let blocks = block_count(open);
    let plan = Plan {
        bin,
        args: serve_args(wl, &counters, &[]),
        counters,
        probes: 11,
        warmup,
        rate_rps: wl.rate_rps,
        open_secs: secs,
        blocks,
        seed,
        answer_timeout: Duration::from_secs(30),
    };
    let obs = session::run(&plan, &bodies).map_err(|e| format!("serve session: {e}"))?;
    let mut t = Tally::new(wl, seed, &obs);
    t.latency_ms.resize(blocks, Vec::new());
    let lag_p99 = stats::quantile(&mut obs.lag_ms.clone(), 0.99);
    let q = stats::tail_quantile(open);
    let mut latency = t.latency_ms.concat();
    let block_cpu: Vec<f64> = obs
        .block_cpu
        .iter()
        .zip(&t.latency_ms)
        .map(|(c, b)| c.total_ms() / b.len().max(1) as f64)
        .collect();

    let mut r = Report::new(t.sent, t.failed);
    r.correct = t.sound() && obs.complete && obs.clean_exit && lag_p99 <= lag_bound_ms(wl);
    r.metric("setup_s", stats::median(&mut obs.setup_cpu_s.clone()), "s");
    r.metric(
        "cpu_ms_per_req",
        stats::median(&mut block_cpu.clone()),
        "ms",
    );
    let slo_attain = t.open_in_limit as f64 / t.open_sent.max(1) as f64;
    r.metric("slo_attain", slo_attain, "ratio");
    r.metric("ok_frac", t.ok as f64 / t.sent.max(1) as f64, "ratio");
    r.metric("quality_ratio", t.quality_sum / t.ok.max(1) as f64, "ratio");
    r.metric("rss_peak_mb", obs.rss_mib, "MiB");
    r.note("latency_p50_ms", stats::median(&mut latency));
    r.note("latency_tail_ms", stats::quantile(&mut latency, q));
    r.note("tail_quantile", q);
    r.note("steal_per_s", obs.steal_per_s);
    r.note(
        "setup_wall_ms",
        obs.setup_wall_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    r.note(
        "setup_cpu_ms",
        obs.setup_cpu_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    r.note("block_cpu_ms", block_cpu);
    r.note("open_sent", t.open_sent);
    r.note("open_ok", t.open_ok());
    r.note("lag_p99_ms", lag_p99);
    r.note("lag_bound_ms", lag_bound_ms(wl));
    r.note("missing", t.missing);
    r.note("duplicated", t.duplicated);
    r.note("invalid", t.invalid);
    r.note("stray", t.stray);
    r.note("counters_agree", t.counters_agree);
    r.note("clean_exit", obs.clean_exit);
    Ok(r)
}
