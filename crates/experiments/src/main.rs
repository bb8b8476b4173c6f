//! `aa-experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! aa-experiments [COMMAND] [--trials N] [--seed S] [--out DIR]
//!
//! Commands:
//!   fig1a fig1b fig2a fig2b fig3a fig3b fig3c   one figure
//!   figures                                     all seven figures
//!   timing                                      §VII timing claim (E8)
//!   ratio                                       Alg2 vs exact OPT (E9)
//!   tightness                                   Theorem V.17 instance (E10)
//!   ablation                                    design-choice ablations (A1/A2)
//!   all                                         everything above (default)
//!
//! Defaults: --trials 1000 (the paper's count), --seed 2016,
//! --out target/experiments. CSV and JSON are written per figure;
//! tables are printed to stdout.
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use aa_experiments::{ablation, discrete, figures, hetero, ratio, report, timing};
use aa_workloads::Distribution;

struct Opts {
    command: String,
    trials: usize,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut command = String::from("all");
    let mut trials = 1000_usize;
    let mut seed = 2016_u64;
    let mut out = PathBuf::from("target/experiments");
    let mut saw_command = false;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => {
                trials = args
                    .next()
                    .ok_or("--trials needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --trials: {e}"))?;
            }
            "--seed" => {
                seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => {
                out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--help" | "-h" => {
                return Err(String::new()); // triggers usage print
            }
            other if !saw_command && !other.starts_with('-') => {
                command = other.to_string();
                saw_command = true;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts { command, trials, seed, out })
}

/// Print the figure's table, then write its CSV and JSON under `out`;
/// the error names the files that could not be written.
fn run_figure(fig: figures::Figure, out: &Path) -> Result<(), String> {
    print!("{}", report::to_table(&fig));
    let files = format!("{}/{}.csv, .json", out.display(), fig.id);
    report::write_files(&fig, out).map_err(|e| format!("could not write {files}: {e}"))?;
    println!("  → {files}\n");
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: aa-experiments [fig1a|fig1b|fig2a|fig2b|fig3a|fig3b|fig3c|figures|timing|ratio|tightness|ablation|hetero|discrete|all] [--trials N] [--seed S] [--out DIR]"
            );
            return if msg.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };
    let Opts { command, trials, seed, out } = opts;
    println!("aa-experiments: command={command} trials={trials} seed={seed}\n");

    let run_all = command == "all";
    let mut matched = run_all;

    type FigureFn = fn(usize, u64) -> figures::Figure;
    let single: &[(&str, FigureFn)] = &[
        ("fig1a", figures::fig1a),
        ("fig1b", figures::fig1b),
        ("fig2a", figures::fig2a),
        ("fig2b", figures::fig2b),
        ("fig3a", figures::fig3a),
        ("fig3b", figures::fig3b),
        ("fig3c", figures::fig3c),
    ];
    for (name, f) in single {
        if command == *name || run_all || command == "figures" {
            if let Err(e) = run_figure(f(trials, seed), &out) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            matched = true;
        }
    }

    if command == "timing" || run_all {
        let runs = trials.clamp(1, 100);
        let r = timing::paper_timing(runs, seed);
        println!(
            "timing (E8): m={} n={} C={} — mean {:.6}s, min {:.6}s, max {:.6}s over {} runs",
            r.servers, r.threads, r.capacity, r.mean_secs, r.min_secs, r.max_secs, r.runs
        );
        println!("  paper (unoptimized Matlab): 0.02s\n");
        matched = true;
    }

    if command == "ratio" || run_all {
        let t = trials.clamp(1, 200);
        let r = ratio::exact_ratio(t, seed);
        println!(
            "exact-ratio (E9): mean Alg2/OPT = {:.4}, worst = {:.4}; mean SO/OPT = {:.4}, max = {:.4} ({} trials)",
            r.mean_vs_opt, r.min_vs_opt, r.mean_bound_slack, r.max_bound_slack, r.trials
        );
        println!("  paper claim: ≥ 99% of optimal on average\n");
        matched = true;
    }

    if command == "tightness" || run_all {
        let (got, opt, ratio) = aa_experiments::tightness_run();
        println!(
            "tightness (E10, Thm V.17): Algorithm 2 = {got}, OPT = {opt}, ratio = {ratio:.4} (paper: 5/6 ≈ 0.8333)\n"
        );
        matched = true;
    }

    if command == "hetero" || run_all {
        let t = trials.clamp(1, 200);
        let pts = hetero::hetero_sweep(
            Distribution::Uniform,
            5,
            &[1.0, 1.5, 2.0, 3.0, 5.0],
            t,
            seed,
        );
        print!("{}", hetero::to_table(&pts));
        println!();
        matched = true;
    }

    if command == "discrete" || run_all {
        let t = trials.clamp(1, 200);
        for (name, dist) in [
            ("uniform", Distribution::Uniform),
            ("discrete(γ=0.85, θ=5)", Distribution::Discrete { gamma: 0.85, theta: 5.0 }),
        ] {
            let pts = discrete::discrete_sweep(dist, 5, &[2, 4, 8, 16, 64, 256], t, seed);
            print!("{}", discrete::to_table(name, &pts));
            println!();
        }
        matched = true;
    }

    if command == "ablation" || run_all {
        let t = trials.clamp(1, 200);
        let betas = [1, 3, 5, 10, 15];
        for (name, dist) in [
            ("uniform", Distribution::Uniform),
            ("discrete(γ=0.85, θ=10)", Distribution::Discrete { gamma: 0.85, theta: 10.0 }),
        ] {
            let pts = ablation::ablation_sweep(dist, &betas, t, seed);
            print!("{}", ablation::to_table(name, &pts));
            println!();
        }
        matched = true;
    }

    if !matched {
        eprintln!("unknown command {command}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
