//! True end-to-end tests of the `aa-solve` binary: spawn the compiled
//! executable, round-trip JSON through temp files, check exit codes.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aa-solve"))
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aa-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_then_solve_pipeline() {
    let dir = tempdir();
    let problem_path = dir.join("problem.json");

    let gen = bin()
        .args([
            "generate", "--servers", "3", "--beta", "4", "--capacity", "100",
            "--dist", "powerlaw", "--alpha", "2.5", "--seed", "11",
        ])
        .output()
        .expect("binary runs");
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    std::fs::write(&problem_path, &gen.stdout).unwrap();

    let solve = bin()
        .args(["solve", problem_path.to_str().unwrap(), "--solver", "algo2"])
        .output()
        .expect("binary runs");
    assert!(solve.status.success(), "{}", String::from_utf8_lossy(&solve.stderr));

    let solution: serde_json::Value = serde_json::from_slice(&solve.stdout).unwrap();
    assert_eq!(solution["solver"], "algo2");
    assert_eq!(solution["server"].as_array().unwrap().len(), 12);
    let ratio = solution["bound_ratio"].as_f64().unwrap();
    assert!((0.828..=1.0 + 1e-9).contains(&ratio), "ratio {ratio}");

    // The human summary goes to stderr so stdout stays machine-parsable.
    let err = String::from_utf8_lossy(&solve.stderr);
    assert!(err.contains("ratio="), "missing summary: {err}");
}

#[test]
fn solver_list_and_each_solver_runs() {
    let list = bin().arg("solvers").output().unwrap();
    assert!(list.status.success());
    let names: Vec<String> = String::from_utf8_lossy(&list.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert!(names.contains(&"algo2".to_string()));
    assert!(names.contains(&"exact".to_string()));

    // A tiny problem every solver (even exact) can handle.
    let dir = tempdir();
    let path = dir.join("tiny.json");
    let gen = bin()
        .args(["generate", "--servers", "2", "--beta", "2", "--capacity", "10", "--seed", "3"])
        .output()
        .unwrap();
    std::fs::write(&path, &gen.stdout).unwrap();
    for name in &names {
        let out = bin()
            .args(["solve", path.to_str().unwrap(), "--solver", name])
            .output()
            .unwrap();
        assert!(out.status.success(), "{name} failed");
    }
}

#[test]
fn churn_with_generated_script() {
    let dir = tempdir();
    let path = dir.join("churn-gen.json");
    let gen = bin()
        .args(["generate", "--servers", "3", "--beta", "3", "--capacity", "50", "--seed", "7"])
        .output()
        .unwrap();
    std::fs::write(&path, &gen.stdout).unwrap();

    let out = bin()
        .args([
            "churn", path.to_str().unwrap(), "--epochs", "8", "--seed", "42",
            "--policy", "migrations", "--budget", "3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(report["epochs"].as_array().unwrap().len(), 8);
    let mean = report["mean_retention"].as_f64().unwrap();
    assert!(mean.is_finite() && mean > 0.0, "mean retention {mean}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mean_retention="), "missing summary: {err}");
}

#[test]
fn churn_with_script_file() {
    let dir = tempdir();
    let problem_path = dir.join("churn-problem.json");
    let script_path = dir.join("churn-script.json");
    let gen = bin()
        .args(["generate", "--servers", "3", "--beta", "3", "--capacity", "50", "--seed", "9"])
        .output()
        .unwrap();
    std::fs::write(&problem_path, &gen.stdout).unwrap();
    std::fs::write(
        &script_path,
        r#"{
          "epochs": 6,
          "events": [
            {"kind": "server_down", "epoch": 1, "server": 2},
            {"kind": "thread_arrived", "epoch": 2,
             "utility": {"kind": "power", "scale": 2.0, "beta": 0.5, "cap": 50.0}},
            {"kind": "server_up", "epoch": 3},
            {"kind": "thread_departed", "epoch": 4, "thread": 0},
            {"kind": "capacity_changed", "epoch": 5, "capacity": 40.0}
          ]
        }"#,
    )
    .unwrap();

    let out = bin()
        .args([
            "churn", problem_path.to_str().unwrap(),
            "--script", script_path.to_str().unwrap(), "--pretty",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(report["epochs"].as_array().unwrap().len(), 6);
}

#[test]
fn churn_rejects_unknown_policy() {
    let dir = tempdir();
    let path = dir.join("churn-policy.json");
    let gen = bin()
        .args(["generate", "--servers", "2", "--beta", "1", "--capacity", "10"])
        .output()
        .unwrap();
    std::fs::write(&path, &gen.stdout).unwrap();
    let out = bin()
        .args(["churn", path.to_str().unwrap(), "--policy", "hope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("hope"));
}

#[test]
fn malformed_input_fails_cleanly() {
    let dir = tempdir();
    let path = dir.join("broken.json");
    std::fs::write(&path, "{ definitely not json").unwrap();
    let out = bin()
        .args(["solve", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "unhelpful stderr: {err}");
}

#[test]
fn unknown_solver_fails_with_hint() {
    let dir = tempdir();
    let path = dir.join("p.json");
    let gen = bin()
        .args(["generate", "--servers", "2", "--beta", "1", "--capacity", "10"])
        .output()
        .unwrap();
    std::fs::write(&path, &gen.stdout).unwrap();
    let out = bin()
        .args(["solve", path.to_str().unwrap(), "--solver", "magic"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("magic"));
}

#[test]
fn missing_command_prints_usage() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn subcommand_help_prints_usage_and_runs_nothing() {
    // `bench` writes BENCH_solver.json into its working directory and
    // `chaos` runs a storm: with --help neither may do anything.
    let dir = tempdir().join("subcommand-help");
    std::fs::create_dir_all(&dir).unwrap();
    for command in ["bench", "chaos"] {
        for flag in ["--help", "-h"] {
            let out = bin().current_dir(&dir).args([command, flag]).output().unwrap();
            assert_eq!(out.status.code(), Some(0), "{command} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with("usage:"), "{command} {flag}: {stdout}");
        }
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "help created files: {left:?}");
}

#[test]
fn serve_rejects_fleet_only_flags_without_fleet() {
    // Shard threads are not heartbeaten and not spawned from a command,
    // so without --fleet these flags are usage errors rather than
    // silently ignored; so is a bad value of a flag every mode reads.
    for (flag, value) in [
        ("--heartbeat-ms", "50"),
        ("--heartbeat-miss", "3"),
        ("--worker-cmd", "/bin/true"),
        ("--ladder", "nonsense"),
    ] {
        for mode in [&["--shards", "2"][..], &[]] {
            let out = bin()
                .arg("serve")
                .args(mode)
                .args([flag, value])
                .stdin(std::process::Stdio::null())
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(1), "{mode:?} {flag} {value}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(flag), "{mode:?} {flag}: {stderr}");
            assert!(out.stdout.is_empty(), "{mode:?} {flag}: answered anyway");
        }
    }
}

/// The supervisor's width is bounded: `--shards N` and `--fleet N` past
/// it are usage errors, and a resize line past it is answered like any
/// other unsupported control line — nothing is spawned for it.
#[test]
fn executor_width_is_bounded() {
    for mode in [["--shards", "100000"], ["--fleet", "100000"], ["--shards", "0"], ["--fleet", "257"]] {
        let out = bin()
            .arg("serve")
            .args(mode)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{mode:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(mode[0]) && stderr.contains("256"), "{mode:?}: {stderr}");
    }
    let input = format!(
        "{}\n{}\n{}\n",
        r#"{"control":"resize","fleet":9007199254740992,"id":"huge"}"#,
        r#"{"control":"resize","fleet":257,"id":"over"}"#,
        serve_request(1, None, 4)
    );
    let (out, responses) = serve_lines(&["--fleet", "1"], input);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(responses.len(), 3, "{responses:?}");
    for id in ["huge", "over"] {
        let r = responses.iter().find(|r| r["id"] == id).unwrap();
        assert_eq!((r["status"].as_str(), r["class"].as_str()), (Some("error"), Some("control")));
    }
    assert!(responses.iter().any(|r| r["status"] == "ok" && r["id"].as_u64() == Some(1)));
}

#[test]
fn serve_refuses_flags_it_does_not_take() {
    // The grace window and the tier breaker are constants; their old
    // flags (and typos of real ones) must not be ignored silently.
    for flag in ["--grace-ms", "--breaker", "--cooldown", "--queues"] {
        for mode in [&["--shards", "2"][..], &["--fleet", "1"]] {
            let out = bin()
                .arg("serve")
                .args(mode)
                .args([flag, "5"])
                .stdin(std::process::Stdio::null())
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(1), "{mode:?} {flag}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(flag), "{mode:?} {flag}: {stderr}");
            assert!(out.stdout.is_empty(), "{mode:?} {flag}: answered anyway");
        }
    }
}

#[test]
fn pretty_flag_pretty_prints() {
    let out = bin()
        .args(["generate", "--servers", "2", "--beta", "1", "--capacity", "5", "--pretty"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains('\n') && text.contains("  "), "not pretty-printed");
}

#[test]
#[ignore = "timing gate (par ≥ 0.95× seq); flaky beside other tests, CI's timing-gates job runs it alone"]
fn bench_small_writes_valid_schema_with_matching_utilities() {
    let dir = tempdir();
    let out_path = dir.join("BENCH_solver.json");
    let run = || -> serde_json::Value {
        let out = bin()
            .args([
                "bench", "--small", "--mode", "matrix", "--reps", "20", "--seed", "5",
                "--out", out_path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        // The human summary goes to stderr; the JSON goes to the file.
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("speedup="), "missing summary: {err}");
        serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap()
    };

    let report = run();
    assert_eq!(report["version"].as_u64(), Some(5));
    assert_eq!(report["solver"], "algo2");
    assert!(report["pool_threads"].as_u64().unwrap() >= 1);
    assert!(report["hardware_threads"].as_u64().unwrap() >= 1);
    assert_eq!(report["seed"].as_u64(), Some(5));

    let entries = report["entries"].as_array().unwrap();
    assert_eq!(entries.len(), 4, "four distributions in the small matrix");
    let mut dists: Vec<&str> = entries.iter().map(|e| e["dist"].as_str().unwrap()).collect();
    dists.sort_unstable();
    assert_eq!(dists, ["discrete", "normal", "powerlaw", "uniform"]);
    for e in entries {
        for field in [
            "seq_millis", "par_millis", "speedup", "seq_utility", "par_utility",
            "so_bound", "ratio_vs_so",
            // Schema v4: the batched-kernel vs dispatch sweep times.
            "kernel_sweep_micros", "dispatch_sweep_micros",
        ] {
            assert!(e[field].as_f64().is_some(), "missing {field}: {e:?}");
        }
        // Schema v3: per-stage breakdowns are always present.
        for field in ["superopt_micros", "linearize_micros", "assign_micros"] {
            assert!(e[field].as_u64().is_some(), "missing {field}: {e:?}");
        }
        assert_eq!(e["size"], "small");
        assert_eq!(e["threads"].as_u64(), Some(64));
        // The determinism contract, visible from outside the process.
        assert_eq!(e["identical"].as_bool(), Some(true));
        assert_eq!(
            e["seq_utility"].as_f64().unwrap(),
            e["par_utility"].as_f64().unwrap(),
            "sequential and parallel utilities diverged: {e:?}"
        );
        let ratio = e["ratio_vs_so"].as_f64().unwrap();
        assert!((0.828..=1.0 + 1e-9).contains(&ratio), "ratio {ratio}");
    }

    // Schema v4: the all-discrete ladder entry, one per matrix size.
    let ladder = report["discrete_path"].as_array().unwrap();
    assert_eq!(ladder.len(), 1, "one staircase entry in the small matrix");
    let e = &ladder[0];
    assert_eq!(e["name"], "staircase-small");
    assert_eq!(e["threads"].as_u64(), Some(64));
    assert_eq!(e["ladder_engaged"].as_bool(), Some(true), "{e:?}");
    assert_eq!(e["identical"].as_bool(), Some(true), "{e:?}");
    assert!(e["ladder_micros"].as_f64().unwrap() >= 0.0);
    assert!(e["generic_micros"].as_f64().unwrap() >= 0.0);

    // Every matrix entry must hold par ≥ 0.95× seq. Small instances sit
    // below the parallel threshold, where `algo2::solve` runs the
    // sequential path at any pool width — identical code, so any
    // shortfall is pure timing noise. Retry the whole bench before declaring a
    // real (systematic) slowdown.
    let all_fast = |r: &serde_json::Value| {
        r["entries"]
            .as_array()
            .unwrap()
            .iter()
            .all(|e| e["speedup"].as_f64().unwrap() >= 0.95)
    };
    let mut ok = all_fast(&report);
    for _ in 0..2 {
        if ok {
            break;
        }
        ok = all_fast(&run());
    }
    assert!(ok, "parallel slowdown persisted across three bench runs");
}

#[test]
fn bench_incremental_mode_reports_warm_vs_cold() {
    let dir = tempdir();
    let out_path = dir.join("BENCH_incremental.json");
    let out = bin()
        .args([
            "bench", "--small", "--mode", "incremental", "--seed", "5",
            "--out", out_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warm="), "missing drift summary: {err}");

    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(report["version"].as_u64(), Some(5));
    assert!(report["entries"].as_array().unwrap().is_empty());
    assert!(report["discrete_path"].as_array().unwrap().is_empty());
    let incremental = report["incremental"].as_array().unwrap();
    assert_eq!(incremental.len(), 4, "four distributions in the small drift suite");
    for e in incremental {
        for field in [
            "cold_median_millis", "warm_median_millis", "speedup",
            "cold_demand_maps_mean", "warm_demand_maps_mean",
        ] {
            assert!(e[field].as_f64().is_some(), "missing {field}: {e:?}");
        }
        // The bit-identity contract, visible from outside the process.
        assert_eq!(e["identical"].as_bool(), Some(true), "{e:?}");
        let epochs = e["epochs"].as_u64().unwrap();
        assert_eq!(e["warm_epochs"].as_u64(), Some(epochs - 1), "fell off the warm path: {e:?}");
    }
}

// ---- exit-code contract ----
//
// Each error class maps to a distinct, documented exit code so scripts
// can dispatch on failures without parsing stderr.

#[test]
fn exit_code_contract_is_documented_in_help() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("exit codes"), "help is missing the exit-code table: {text}");
    assert!(text.contains("serve"), "help is missing the serve command: {text}");
}

#[test]
fn unknown_command_exits_1_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn malformed_json_exits_2() {
    let dir = tempdir();
    let path = dir.join("garbage.json");
    std::fs::write(&path, "{ nope").unwrap();
    let out = bin().args(["solve", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn unknown_solver_exits_3() {
    let dir = tempdir();
    let path = dir.join("p3.json");
    let gen = bin()
        .args(["generate", "--servers", "2", "--beta", "1", "--capacity", "10"])
        .output()
        .unwrap();
    std::fs::write(&path, &gen.stdout).unwrap();
    let out = bin()
        .args(["solve", path.to_str().unwrap(), "--solver", "magic"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn oversized_exact_instance_exits_4() {
    // 8 servers × 8 threads/server = 64 threads, far past the exact
    // enumerator's limit: a typed SolveError, not a panic.
    let dir = tempdir();
    let path = dir.join("big.json");
    let gen = bin()
        .args(["generate", "--servers", "8", "--beta", "8", "--capacity", "10"])
        .output()
        .unwrap();
    std::fs::write(&path, &gen.stdout).unwrap();
    let out = bin()
        .args(["solve", path.to_str().unwrap(), "--solver", "exact"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("solve failed"));
}

#[test]
fn missing_input_file_exits_6() {
    let out = bin()
        .args(["solve", "/definitely/not/a/file.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(6), "{}", String::from_utf8_lossy(&out.stderr));
}

// ---- serve ----

fn serve_request(id: u64, deadline_ms: Option<u64>, threads: usize) -> String {
    let specs: Vec<String> = (0..threads)
        .map(|i| {
            format!(
                r#"{{"kind":"power","scale":{}.0,"beta":0.5,"cap":100.0}}"#,
                1 + (i % 7)
            )
        })
        .collect();
    let problem = format!(
        r#"{{"servers":4,"capacity":100.0,"threads":[{}]}}"#,
        specs.join(",")
    );
    match deadline_ms {
        Some(d) => format!(r#"{{"id":{id},"deadline_ms":{d},"problem":{problem}}}"#),
        None => format!(r#"{{"id":{id},"problem":{problem}}}"#),
    }
}

#[test]
fn serve_end_to_end_sheds_overload_and_exits_cleanly() {
    use std::io::Write as _;
    use std::process::Stdio;

    let dir = tempdir();
    let counters_path = dir.join("serve-counters.json");

    // A large unbudgeted head request keeps the worker busy for many
    // milliseconds while the burst behind it hits a queue of depth 1,
    // plus one tiny-deadline request that must degrade, not fail.
    let mut input = serve_request(0, None, 3000);
    for i in 1..=6 {
        input.push('\n');
        input.push_str(&serve_request(i, None, 4));
    }
    input.push('\n');
    input.push_str(&serve_request(7, Some(1), 500));
    input.push('\n');

    let mut child = bin()
        .args(["serve", "--queue", "1", "--counters", counters_path.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || {
        stdin.write_all(input.as_bytes()).unwrap();
        // Dropping stdin closes the pipe: EOF ends the serve loop.
    });
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap();

    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let responses: Vec<serde_json::Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 8, "one response per request");
    let shed = responses.iter().filter(|r| r["status"] == "overloaded").count();
    assert!(shed > 0, "burst was not shed: {responses:?}");
    for r in responses.iter().filter(|r| r["status"] == "overloaded") {
        assert!(r["retry_after_ms"].as_u64().unwrap() >= 1);
    }
    // Admitted requests either solve or expire in queue behind the big
    // head request; nothing may fail for any other reason.
    for r in responses.iter().filter(|r| r["status"] == "error") {
        assert_eq!(r["class"], "deadline", "unexpected failure: {r:?}");
    }

    // The shutdown dump: human summary on stderr, JSON in --counters.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("serve: received=8"), "missing summary: {err}");
    let counters: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&counters_path).unwrap()).unwrap();
    assert_eq!(counters["received"].as_u64(), Some(8));
    assert_eq!(counters["shed"].as_u64(), Some(shed as u64));
    assert_eq!(counters["deadline_misses"].as_u64(), Some(0));
    let solved = counters["solved"].as_u64().unwrap();
    let expired = counters["expired_in_queue"].as_u64().unwrap();
    assert_eq!(solved + shed as u64 + expired, 8);
    // Per-request latency percentiles in the dump: positive (at least
    // the head request solved) and ordered.
    let p50 = counters["latency_p50_ms"].as_f64().unwrap();
    let p99 = counters["latency_p99_ms"].as_f64().unwrap();
    assert!(p50 > 0.0, "p50 {p50} with {solved} solved");
    assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
}

// ---- observability ----

#[test]
fn solve_trace_writes_chrome_trace_covering_the_pipeline() {
    let dir = tempdir();
    let problem_path = dir.join("trace-problem.json");
    let trace_path = dir.join("solve-trace.json");
    let gen = bin()
        .args(["generate", "--servers", "4", "--beta", "8", "--capacity", "100", "--seed", "21"])
        .output()
        .unwrap();
    std::fs::write(&problem_path, &gen.stdout).unwrap();

    let out = bin()
        .args([
            "solve", problem_path.to_str().unwrap(),
            "--trace", trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();
    assert!(!events.is_empty(), "no spans recorded");
    let names: Vec<&str> = events.iter().map(|e| e["name"].as_str().unwrap()).collect();
    for stage in ["algo2", "superopt", "linearize", "assign"] {
        assert!(names.contains(&stage), "missing {stage} span in {names:?}");
    }
    for e in events {
        assert_eq!(e["ph"], "X", "{e:?}");
        assert!(e["ts"].as_u64().is_some(), "{e:?}");
        assert!(e["dur"].as_u64().is_some(), "{e:?}");
        assert!(e["tid"].as_u64().is_some(), "{e:?}");
    }
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace:"), "missing trace summary: {err}");
}

#[test]
fn bench_trace_covers_matrix_and_incremental_stages() {
    let dir = tempdir();
    let out_path = dir.join("bench-traced.json");
    let trace_path = dir.join("bench-trace.json");
    let out = bin()
        .args([
            "bench", "--small", "--mode", "full", "--reps", "1", "--seed", "5",
            "--out", out_path.to_str().unwrap(),
            "--trace", trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();
    let names: Vec<&str> = events.iter().map(|e| e["name"].as_str().unwrap()).collect();
    for stage in ["bench_probe", "algo2", "superopt", "linearize", "assign", "incremental"] {
        assert!(names.contains(&stage), "missing {stage} span in trace");
    }

    // With recording armed, the report's stage breakdowns must be live:
    // the probe's untimed solve cannot lose its spans to a race because
    // --trace keeps the collector enabled for the whole run.
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    for e in report["entries"].as_array().unwrap() {
        let total = e["superopt_micros"].as_u64().unwrap()
            + e["linearize_micros"].as_u64().unwrap()
            + e["assign_micros"].as_u64().unwrap();
        assert!(total > 0, "empty stage breakdown: {e:?}");
    }
}

#[test]
fn serve_metrics_endpoint_and_dump_expose_the_registry() {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    use std::process::Stdio;

    let dir = tempdir();
    let dump_path = dir.join("serve-metrics.json");
    let mut child = bin()
        .args([
            "serve",
            "--metrics-addr", "127.0.0.1:0",
            "--metrics-dump", dump_path.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");

    // The bound address is announced on stderr before the loop starts.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("metrics: http://")
        .and_then(|rest| rest.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("unexpected metrics line: {line:?}"))
        .to_string();

    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(serve_request(1, None, 4).as_bytes()).unwrap();
    stdin.write_all(b"\n").unwrap();
    stdin.write_all(serve_request(2, None, 4).as_bytes()).unwrap();
    stdin.write_all(b"\n").unwrap();
    stdin.flush().unwrap();

    // Scrape until both requests are visible (requests are counted on
    // read, but give the loop time to pick them up).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut scrape = String::new();
    loop {
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        scrape.clear();
        conn.read_to_string(&mut scrape).unwrap();
        if scrape.contains("aa_serve_received_total 2") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "metrics never caught up: {scrape}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "{scrape}");
    assert!(scrape.contains("# TYPE aa_serve_received_total counter"), "{scrape}");

    // The JSON endpoint serves the same registry.
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    conn.write_all(b"GET /metrics.json HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut json_scrape = String::new();
    conn.read_to_string(&mut json_scrape).unwrap();
    assert!(json_scrape.contains("\"aa_serve_received_total\":2"), "{json_scrape}");

    drop(stdin); // EOF ends the loop and triggers the dump.
    let status = child.wait().unwrap();
    assert!(status.success());

    let dump: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&dump_path).unwrap()).unwrap();
    assert_eq!(dump["counters"]["aa_serve_received_total"].as_u64(), Some(2));
    assert_eq!(dump["counters"]["aa_serve_solved_total"].as_u64(), Some(2));
    let latency = &dump["histograms"]["aa_serve_latency_micros"];
    assert_eq!(latency["count"].as_u64(), Some(2));
    assert!(latency["p50_micros"].as_u64().unwrap() >= 1);
}

#[test]
fn log_format_json_emits_one_object_per_line() {
    let dir = tempdir();
    let path = dir.join("log-json.json");
    let gen = bin()
        .args(["generate", "--servers", "2", "--beta", "2", "--capacity", "10", "--seed", "4"])
        .output()
        .unwrap();
    std::fs::write(&path, &gen.stdout).unwrap();

    let out = bin()
        .args(["solve", path.to_str().unwrap(), "--log-format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    let mut saw_summary = false;
    for line in err.lines().filter(|l| !l.is_empty()) {
        let record: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("non-JSON log {line:?}: {e}"));
        assert!(record["level"].as_str().is_some(), "{record:?}");
        saw_summary |= record["msg"].as_str().is_some_and(|m| m.contains("ratio="));
    }
    assert!(saw_summary, "summary line missing from JSON stderr: {err}");

    // Errors honor the format too, and the exit-code contract is intact.
    let bad = bin()
        .args(["solve", "/definitely/not/a/file.json", "--log-format", "json"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(6));
    let first = String::from_utf8_lossy(&bad.stderr);
    let record: serde_json::Value =
        serde_json::from_str(first.lines().next().unwrap()).unwrap();
    assert_eq!(record["level"], "error");
}

#[test]
fn bench_thread_override_changes_reported_pool_size_not_results() {
    let dir = tempdir();
    let a_path = dir.join("bench-t1.json");
    let b_path = dir.join("bench-t4.json");
    for (threads, path) in [("1", &a_path), ("4", &b_path)] {
        let out = bin()
            .args([
                "bench", "--small", "--mode", "matrix", "--reps", "1", "--seed", "9",
                "--threads", threads, "--out", path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let a: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&a_path).unwrap()).unwrap();
    let b: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&b_path).unwrap()).unwrap();
    assert_eq!(a["pool_threads"].as_u64(), Some(1));
    assert_eq!(b["pool_threads"].as_u64(), Some(4));
    for (ea, eb) in a["entries"]
        .as_array()
        .unwrap()
        .iter()
        .zip(b["entries"].as_array().unwrap())
    {
        assert_eq!(ea["seq_utility"], eb["seq_utility"], "thread count changed output");
        assert_eq!(ea["par_utility"], eb["par_utility"], "thread count changed output");
    }
}

#[test]
fn serve_oversized_line_gets_parse_error_not_oom() {
    use std::io::Write as _;
    use std::process::Stdio;

    // A multi-megabyte line (past the default 1 MiB cap) followed by a
    // valid request: the loop answers the monster with a parse error and
    // keeps serving instead of buffering it whole.
    let mut input = String::with_capacity(3 << 20);
    input.push_str(r#"{"id":0,"problem":""#);
    input.push_str(&"x".repeat(3 << 20));
    input.push_str("\"}\n");
    input.push_str(&serve_request(1, None, 4));
    input.push('\n');

    let mut child = bin()
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || {
        stdin.write_all(input.as_bytes()).unwrap();
    });
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap();

    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let responses: Vec<serde_json::Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 2, "{responses:?}");
    let parse = responses.iter().find(|r| r["status"] == "error").unwrap();
    assert_eq!(parse["class"], "parse", "{parse:?}");
    assert_eq!(parse["id"], serde_json::Value::Null);
    assert!(
        parse["error"].as_str().unwrap().contains("max-line-bytes"),
        "{parse:?}"
    );
    assert!(
        responses.iter().any(|r| r["status"] == "ok" && r["id"].as_u64() == Some(1)),
        "{responses:?}"
    );
}

#[test]
fn serve_with_shards_answers_keyed_streams() {
    use std::io::Write as _;
    use std::process::Stdio;

    let mut input = String::new();
    for i in 0..8u64 {
        input.push_str(&format!(
            r#"{{"id":{i},"stream":{},"problem":{{"servers":4,"capacity":100.0,"threads":[{{"kind":"power","scale":2.0,"beta":0.5,"cap":100.0}}]}}}}"#,
            i % 4
        ));
        input.push('\n');
    }

    let mut child = bin()
        .args(["serve", "--shards", "2", "--queue", "32"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || {
        stdin.write_all(input.as_bytes()).unwrap();
    });
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap();

    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let responses: Vec<serde_json::Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 8);
    assert!(responses.iter().all(|r| r["status"] == "ok"), "{responses:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("serve: received=8"), "missing summary: {err}");
}

/// Run `aa-solve serve <mode…>` over `input`, returning the exit status
/// and the response lines.
fn serve_lines(mode: &[&str], input: String) -> (std::process::Output, Vec<serde_json::Value>) {
    use std::io::Write as _;
    use std::process::Stdio;

    let mut child = bin()
        .arg("serve")
        .args(mode)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || {
        stdin.write_all(input.as_bytes()).unwrap();
    });
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap();
    let responses = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    (out, responses)
}

#[test]
fn serve_answers_a_deeply_nested_line_with_a_parse_error_in_every_mode() {
    // 200 KB of `[` is well under the 1 MiB line cap; without a nesting
    // limit the parser's recursion overflows the stack and aborts.
    let input = format!("{}\n{}\n", "[".repeat(200 * 1024), serve_request(1, None, 4));
    for mode in [&[][..], &["--shards", "2"], &["--fleet", "2"]] {
        let (out, responses) = serve_lines(mode, input.clone());
        assert!(out.status.success(), "{mode:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(responses.len(), 2, "{mode:?}: {responses:?}");
        let parse = responses.iter().find(|r| r["status"] == "error").unwrap();
        assert_eq!(parse["class"], "parse", "{mode:?}: {parse:?}");
        assert_eq!(parse["id"], serde_json::Value::Null);
        assert!(
            responses.iter().any(|r| r["status"] == "ok" && r["id"].as_u64() == Some(1)),
            "{mode:?}: {responses:?}"
        );
    }
}

/// Hostile and valid lines that every serving mode must answer alike:
/// syntax errors (no id), schema errors (no id), problem errors (id
/// echoed), envelope errors, a duplicate `problem` key, an escaped top-
/// level key, a rejected control line, and valid requests in between.
fn hostile_corpus() -> Vec<String> {
    let valid = |id: u64| serve_request(id, None, 4);
    let power = r#"{"kind":"power","scale":1.0,"beta":0.5,"cap":10.0}"#;
    let with_problem = |id: u64, problem: &str| format!(r#"{{"id":{id},"problem":{problem}}}"#);
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    vec![
        valid(100),
        // Syntax: truncated, bad escape, 129 levels deep (the object
        // itself is level 1), trailing garbage, a short \u escape.
        r#"{"id":1,"problem":{"servers":2,"capacity":10.0,"thr"#.to_string(),
        r#"{"id":"a\q","problem":{}}"#.to_string(),
        with_problem(3, &nested(128)),
        format!("{} x", valid(4)),
        r#"{"id":"\u00e","problem":{}}"#.to_string(),
        String::new(),
        // 128 levels is legal syntax; the problem is then the wrong type.
        with_problem(6, &nested(127)),
        "[1,2]".to_string(),
        // Schema: no problem, threads of the wrong type, unknown kind.
        r#"{"id":7}"#.to_string(),
        with_problem(8, r#"{"servers":2,"capacity":10.0,"threads":"x"}"#),
        with_problem(
            9,
            r#"{"servers":2,"capacity":10.0,"threads":[{"kind":"cubic","cap":10.0}]}"#,
        ),
        valid(101),
        // Problem: no servers, negative capacity, infinite capacity.
        with_problem(10, &format!(r#"{{"servers":0,"capacity":10.0,"threads":[{power}]}}"#)),
        with_problem(11, &format!(r#"{{"servers":2,"capacity":-5.0,"threads":[{power}]}}"#)),
        with_problem(12, &format!(r#"{{"servers":2,"capacity":1e400,"threads":[{power}]}}"#)),
        // Envelope: a non-integer stream, a negative deadline.
        format!(r#"{{"id":13,"stream":"x","problem":{{"servers":2,"capacity":10.0,"threads":[{power}]}}}}"#),
        format!(r#"{{"id":14,"deadline_ms":-1,"problem":{{"servers":2,"capacity":10.0,"threads":[{power}]}}}}"#),
        "   ".to_string(),
        // The first of two `problem` keys wins (this one solves).
        format!(
            r#"{{"id":15,"problem":{{"servers":2,"capacity":10.0,"threads":[{power}]}},"problem":{{"servers":0}}}}"#
        ),
        // An escaped key still names the envelope field.
        format!(r#"{{"\u0069d":16, "problem" : {{"servers":2,"capacity":10.0,"threads":[{power}]}} }}"#),
        r#"{"control":"bogus","id":17}"#.to_string(),
        valid(102),
    ]
}

#[test]
fn hostile_lines_get_identical_answers_in_every_mode() {
    let corpus = hostile_corpus();
    let lines = corpus.iter().filter(|l| !l.trim().is_empty()).count();
    let mut answers_by_mode = Vec::new();
    for mode in [&["--queue", "64"][..], &["--shards", "2", "--queue", "64"], &["--fleet", "2", "--queue", "64"]]
    {
        let input: String = corpus.iter().map(|l| format!("{l}\n")).collect();
        let (out, responses) = serve_lines(mode, input);
        assert!(out.status.success(), "{mode:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(responses.len(), lines, "{mode:?}: one answer per line: {responses:?}");
        let mut answers: Vec<String> = responses
            .iter()
            .map(|r| {
                // A rejected control line names the mode's own control
                // vocabulary; everything else must match word for word.
                let error = if r["class"] == "control" {
                    assert!(
                        r["error"].as_str().unwrap().starts_with("unsupported control line"),
                        "{mode:?}: {r:?}"
                    );
                    serde_json::Value::Null
                } else {
                    r["error"].clone()
                };
                let key = [r["id"].clone(), r["status"].clone(), r["class"].clone(), error];
                serde_json::to_string(&key.to_vec()).unwrap()
            })
            .collect();
        answers.sort();
        answers_by_mode.push(answers);
    }
    assert_eq!(answers_by_mode[0], answers_by_mode[1], "serve vs --shards 2");
    assert_eq!(answers_by_mode[0], answers_by_mode[2], "serve vs --fleet 2");
    // Every id that was given (and parsed) is answered exactly once.
    let ids: Vec<&String> = answers_by_mode[0].iter().filter(|a| !a.starts_with("[null")).collect();
    let mut unique = ids.clone();
    unique.dedup();
    assert_eq!(ids, unique, "an id answered twice: {ids:?}");
}

/// A `\u` surrogate pair in a request id decodes to its one char and
/// echoes back as that char in every mode; a lone half stays U+FFFD.
#[test]
fn escaped_surrogate_pair_ids_echo_back_in_every_mode() {
    let line = serve_request(1, None, 3).replacen(r#""id":1"#, r#""id":"\ud83d\ude00 \ud83d""#, 1);
    for mode in [&["--queue", "4"][..], &["--shards", "2"], &["--fleet", "2"]] {
        let (out, responses) = serve_lines(mode, format!("{line}\n"));
        assert!(out.status.success(), "{mode:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(responses.len(), 1, "{mode:?}: {responses:?}");
        assert_eq!(responses[0]["status"], "ok", "{mode:?}: {responses:?}");
        assert_eq!(responses[0]["id"], "\u{1F600} \u{FFFD}", "{mode:?}");
        let raw = String::from_utf8_lossy(&out.stdout);
        assert!(raw.contains("\"id\":\"\u{1F600} \u{FFFD}\""), "{mode:?}: {raw}");
    }
}

#[test]
fn shards_answer_control_lines_with_the_control_class() {
    let input = format!(
        "{}\n{}\n",
        r#"{"control":"resize","fleet":3,"id":9}"#,
        serve_request(1, None, 4)
    );
    let (out, responses) = serve_lines(&["--shards", "2"], input);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(responses.len(), 2, "{responses:?}");
    let control = responses.iter().find(|r| r["id"].as_u64() == Some(9)).unwrap();
    assert_eq!(control["status"], "error", "{control:?}");
    assert_eq!(control["class"], "control", "{control:?}");
    assert!(
        responses.iter().any(|r| r["status"] == "ok" && r["id"].as_u64() == Some(1)),
        "{responses:?}"
    );
}

#[test]
fn metrics_addr_bind_failure_exits_8() {
    // Occupy a port, then ask serve to bind it: the distinct exit code
    // lets orchestrators tell "metrics endpoint taken" from data i/o
    // failures (exit 6).
    let holder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = holder.local_addr().unwrap().to_string();
    let out = bin()
        .args(["serve", "--metrics-addr", &addr])
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(8), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("could not bind metrics endpoint"), "{err}");

    // The code is part of the documented contract.
    let help = bin().arg("help").output().unwrap();
    let text = String::from_utf8_lossy(&help.stdout);
    assert!(text.contains("8  metrics endpoint bind failed"), "{text}");
}

// ---- chaos ----

#[test]
#[ignore = "timing gate (trailing-p99 recovery); flaky beside other tests, CI's timing-gates job runs it alone"]
fn chaos_command_gates_on_robustness_invariants() {
    let dir = tempdir();
    // Small storm (CI runs on few cores): 2 shards each killed twice,
    // with a contained panic and a stall each. Run twice: the same seed
    // must write the same report, byte for byte.
    let run = |name: &str| {
        let path = dir.join(name);
        let out = bin()
            .args([
                "chaos", "--shards", "2", "--streams-per-worker", "1", "--rounds", "40",
                "--kills", "4", "--panics", "2", "--stalls", "2", "--stall-millis", "1",
                "--seed", "7", "--out", path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "chaos gate failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        // stdout carries the same JSON for piping.
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), written);
        written
    };
    let first = run("chaos-report.json");
    assert_eq!(first, run("chaos-replay.json"), "same seed, different report");

    let report: serde_json::Value = serde_json::from_str(&first).unwrap();
    assert_eq!(report["config"]["link"], "thread", "{report:?}");
    assert_eq!(report["exactly_once"].as_bool(), Some(true), "{report:?}");
    assert_eq!(report["survived"].as_bool(), Some(true), "{report:?}");
    assert_eq!(report["live"].as_u64(), Some(2), "{report:?}");
    assert_eq!(report["solve_panics"].as_u64(), Some(2), "{report:?}");
    assert!(report["missing_seqs"].as_array().unwrap().is_empty(), "{report:?}");
    assert!(report["duplicate_seqs"].as_array().unwrap().is_empty(), "{report:?}");
    for r in report["restarts"].as_array().unwrap() {
        assert!(r.as_u64().unwrap() >= 2, "a shard was not killed twice: {report:?}");
    }
}

// ---- idle cost ----

/// `root` and every process below it, from each thread's `children` list.
fn process_tree(root: u32) -> Vec<u32> {
    let mut tree = vec![root];
    let mut i = 0;
    while let Some(&pid) = tree.get(i) {
        for task in std::fs::read_dir(format!("/proc/{pid}/task")).into_iter().flatten().flatten() {
            let children = std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
            tree.extend(children.split_whitespace().filter_map(|c| c.parse::<u32>().ok()));
        }
        i += 1;
    }
    tree
}

/// On-CPU nanoseconds (utime + stime) of every thread in `pids`, from
/// `/proc/<pid>/task/<tid>/schedstat`: the scheduler's own count, at
/// nanosecond rather than clock-tick resolution.
fn cpu_ns(pids: &[u32]) -> u64 {
    pids.iter()
        .filter_map(|pid| std::fs::read_dir(format!("/proc/{pid}/task")).ok())
        .flatten()
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

#[test]
#[ignore = "timing gate (idle CPU ≤ 2 ms/s); flaky beside other tests, CI's timing-gates job runs it alone"]
fn idle_serve_uses_no_cpu_to_wait() {
    use std::process::Stdio;

    let children = format!("/proc/self/task/{}/children", std::process::id());
    if !std::path::Path::new(&children).exists() {
        eprintln!("skipped: no /proc");
        return;
    }
    const WINDOW: std::time::Duration = std::time::Duration::from_secs(3);
    // Front-end plus workers once the mode has started.
    for (mode, processes) in [(["--shards", "2"], 1), (["--fleet", "2"], 3)] {
        let mut child = bin()
            .arg("serve")
            .args(mode)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary runs");
        let started = std::time::Instant::now();
        while process_tree(child.id()).len() < processes {
            assert!(started.elapsed().as_secs() < 10, "{mode:?} never started its workers");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // Let start-up work settle before the idle window opens.
        std::thread::sleep(std::time::Duration::from_millis(500));
        let tree = process_tree(child.id());
        let before = cpu_ns(&tree);
        std::thread::sleep(WINDOW);
        let after = cpu_ns(&tree);
        drop(child.stdin.take());
        assert!(child.wait().unwrap().success(), "{mode:?} failed at EOF");
        if before == 0 {
            eprintln!("skipped {mode:?}: this kernel reports no per-task CPU time");
            continue;
        }
        let ms_per_s = (after - before) as f64 / 1e6 / WINDOW.as_secs_f64();
        eprintln!("idle serve {mode:?}: {ms_per_s:.3} ms/s of CPU over {WINDOW:?}");
        assert!(ms_per_s <= 2.0, "idle serve {mode:?} burned {ms_per_s:.3} ms/s of CPU");
    }
}
