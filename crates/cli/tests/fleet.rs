//! End-to-end tests of `aa-solve serve --fleet`: real worker processes
//! spawned from the compiled binary, supervised over pipes.

use std::io::Write;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aa-solve"))
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aa-fleet-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One request line; `salt` varies the problem deterministically.
fn request(id: u64, stream: Option<u64>, salt: u64) -> String {
    let threads: Vec<String> = (0..3 + salt % 3)
        .map(|i| {
            let scale = 1 + (salt + i) % 5;
            if (salt + i) % 2 == 0 {
                format!(r#"{{"kind":"power","scale":{scale}.0,"beta":0.5,"cap":64.0}}"#)
            } else {
                format!(r#"{{"kind":"log","scale":{scale}.0,"rate":0.7,"cap":64.0}}"#)
            }
        })
        .collect();
    let problem = format!(
        r#"{{"servers":{},"capacity":64.0,"threads":[{}]}}"#,
        2 + salt % 2,
        threads.join(",")
    );
    match stream {
        Some(s) => format!(r#"{{"id":{id},"stream":{s},"problem":{problem}}}"#),
        None => format!(r#"{{"id":{id},"problem":{problem}}}"#),
    }
}

/// Run a serve invocation over the given stdin lines, returning stdout
/// lines parsed as JSON.
fn run_serve(args: &[&str], lines: &[String]) -> Vec<serde_json::Value> {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    {
        let mut stdin = child.stdin.take().unwrap();
        for line in lines {
            writeln!(stdin, "{line}").unwrap();
        }
    }
    let out = child.wait_with_output().expect("binary runs");
    assert!(
        out.status.success(),
        "serve {args:?} exited {:?}",
        out.status.code()
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("every output line is JSON"))
        .collect()
}

#[test]
fn fleet_answers_are_bit_identical_to_single_process_serve() {
    let lines: Vec<String> = (0..12)
        .map(|i| request(i, if i % 3 == 0 { None } else { Some(i % 5) }, i))
        .collect();
    let single = run_serve(&["serve"], &lines);
    let fleet = run_serve(&["serve", "--fleet", "3"], &lines);
    assert_eq!(single.len(), 12);
    assert_eq!(fleet.len(), 12);

    let by_id = |resps: &[serde_json::Value], id: u64| -> serde_json::Value {
        resps
            .iter()
            .find(|r| r.get("id").and_then(|v| v.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("no response for id {id}"))
            .clone()
    };
    for id in 0..12 {
        let s = by_id(&single, id);
        let f = by_id(&fleet, id);
        assert_eq!(s["status"].as_str(), Some("ok"), "single {s:?}");
        assert_eq!(f["status"].as_str(), Some("ok"), "fleet {f:?}");
        assert_eq!(
            s["utility"].as_f64().unwrap().to_bits(),
            f["utility"].as_f64().unwrap().to_bits(),
            "utility bits diverge for id {id}"
        );
        assert_eq!(s["server"], f["server"], "assignment diverges for id {id}");
        let sa: Vec<u64> = s["allocation"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap().to_bits())
            .collect();
        let fa: Vec<u64> = f["allocation"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap().to_bits())
            .collect();
        assert_eq!(sa, fa, "allocation bits diverge for id {id}");
        assert_eq!(s["tier"], f["tier"], "tier diverges for id {id}");
        // Fleet-only routing fields.
        assert!(f["worker"].as_u64().is_some());
        assert!(f["attempts"].as_u64().unwrap() >= 1);
        assert!(f["solve_micros"].as_u64().is_some());
    }
}

/// A drifting stream (one curve rescaled per request, with exact
/// repeats in between) answers exactly what a cold per-request solve
/// answers, while the worker builds each request against the stream's
/// previous threads: the repeats take the identical fast path and the
/// drifts the warm path, which only carried curves make possible.
fn drifting_streams_ride_the_warm_path(mode: &[&str]) {
    use aa_cli::{build_problem, generate_document, GenerateOpts, ProblemFile};
    use aa_utility::UtilitySpec;

    let dir = tempdir(&format!("drift{}", mode[0]));
    let (trace, dump) = (dir.join("trace.json"), dir.join("metrics.json"));
    let mut files: Vec<ProblemFile> = (0..2)
        .map(|seed| {
            generate_document(&GenerateOpts {
                servers: 4,
                beta: 8,
                capacity: 50.0,
                dist: aa_workloads::Distribution::Uniform,
                seed,
            })
        })
        .collect();
    let mut sent = Vec::new();
    let mut lines = Vec::new();
    for k in 0..16u64 {
        let stream = k % 2;
        let file = &mut files[stream as usize];
        if k >= 2 && k % 4 < 2 {
            let i = (k as usize * 7) % file.threads.len();
            if let UtilitySpec::Pchip { points } = &mut file.threads[i] {
                points.iter_mut().for_each(|p| p.1 *= 1.05);
            }
        }
        let problem = serde_json::to_string(&*file).unwrap();
        lines.push(format!(r#"{{"id":{k},"stream":{stream},"problem":{problem}}}"#));
        sent.push(file.clone());
    }
    let mut args = vec!["serve"];
    args.extend_from_slice(mode);
    args.extend_from_slice(&[
        "--ladder", "algo2,uu",
        "--trace", trace.to_str().unwrap(),
        "--metrics-dump", dump.to_str().unwrap(),
    ]);
    let resps = run_serve(&args, &lines);
    assert_eq!(resps.len(), sent.len());
    for r in &resps {
        let id = r["id"].as_u64().unwrap();
        assert_eq!(r["status"].as_str(), Some("ok"), "{r:?}");
        assert_eq!(r["tier"].as_str(), Some("algo2"), "id {id}");
        let problem = build_problem(&sent[id as usize]).unwrap();
        let cold = aa_core::algo2::solve(&problem);
        let server: Vec<usize> =
            r["server"].as_array().unwrap().iter().map(|v| v.as_u64().unwrap() as usize).collect();
        let amount: Vec<u64> =
            r["allocation"].as_array().unwrap().iter().map(|v| v.as_f64().unwrap().to_bits()).collect();
        assert_eq!(server, cold.server, "assignment diverges for id {id}");
        let cold_amount: Vec<u64> = cold.amount.iter().map(|a| a.to_bits()).collect();
        assert_eq!(amount, cold_amount, "allocation bits diverge for id {id}");
        assert_eq!(
            r["utility"].as_f64().unwrap().to_bits(),
            cold.total_utility(&problem).to_bits(),
            "utility bits diverge for id {id}"
        );
    }
    // Worker processes federate their registries through the trace's
    // per-solve frames (worker= labels); shard threads count in the
    // front-end's own. Sum the incremental mode counters either way.
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&dump).unwrap()).unwrap();
    let total = |name: &str| -> u64 {
        metrics["counters"]
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&format!("{name}{{")))
            .map(|(_, v)| v.as_u64().unwrap())
            .sum()
    };
    assert!(total("aa_incremental_identical_total") > 0, "no repeat took the identical path");
    assert!(total("aa_incremental_warm_total") > 0, "no drift took the warm path");
}

#[test]
fn drifting_streams_answer_like_cold_solves_and_ride_the_warm_path() {
    drifting_streams_ride_the_warm_path(&["--fleet", "2"]);
}

#[test]
fn drifting_shard_streams_answer_like_cold_solves_and_ride_the_warm_path() {
    drifting_streams_ride_the_warm_path(&["--shards", "2"]);
}

/// A stream's second request, one curve changed and one respelled,
/// through `mode`: its `build` span (under the request's `fleet_solve`)
/// and `aa_build_threads_total` say which threads were carried unread
/// from the first request's text, which were decoded and matched the
/// first request's object, and which were built anew.
fn a_drift_counts_its_carried_threads(mode: &[&str]) {
    let dir = tempdir(&format!("build{}", mode[0]));
    let (trace, dump) = (dir.join("trace.json"), dir.join("metrics.json"));
    let thread = |scale: &str| format!(r#"{{"kind":"power","scale":{scale},"beta":0.5,"cap":64.0}}"#);
    let line = |id: u64, threads: &[String]| {
        let threads = threads.join(",");
        format!(r#"{{"id":{id},"stream":3,"problem":{{"servers":2,"capacity":64.0,"threads":[{threads}]}}}}"#)
    };
    let first: Vec<String> = (1..=6).map(|k| thread(&format!("{k}.0"))).collect();
    let mut second = first.clone();
    second[0] = thread("1.5");
    second[1] = thread("2e0");
    let mut args = vec!["serve"];
    args.extend_from_slice(mode);
    args.extend_from_slice(&[
        "--ladder", "algo2,uu",
        "--trace", trace.to_str().unwrap(),
        "--metrics-dump", dump.to_str().unwrap(),
    ]);
    let resps = run_serve(&args, &[line(1, &first), line(2, &second)]);
    assert!(resps.iter().all(|r| r["status"] == "ok"), "{resps:?}");

    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = trace["traceEvents"].as_array().unwrap();
    let builds: Vec<&serde_json::Value> = events.iter().filter(|e| e["name"] == "build").collect();
    assert_eq!(builds.len(), 2, "one build per request: {builds:?}");
    let arg = |e: &serde_json::Value, k: &str| e["args"][k].as_u64().unwrap();
    for (build, want) in builds.iter().zip([(6, 0, 6), (6, 4, 2)]) {
        assert_eq!((arg(build, "threads"), arg(build, "carried"), arg(build, "decoded")), want);
        let parent = events.iter().find(|e| e["args"]["id"] == build["args"]["parent"]);
        assert_eq!(parent.and_then(|e| e["name"].as_str()), Some("fleet_solve"), "{build:?}");
    }
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&dump).unwrap()).unwrap();
    let via = |v: &str| -> u64 {
        let key = format!(r#"aa_build_threads_total{{via="{v}""#);
        let counters = metrics["counters"].as_object().unwrap();
        counters.iter().filter(|(k, _)| k.starts_with(&key)).map(|(_, n)| n.as_u64().unwrap()).sum()
    };
    assert_eq!((via("text"), via("spec"), via("fresh")), (4, 1, 7));
}

#[test]
fn a_fleet_drift_counts_its_carried_threads() {
    a_drift_counts_its_carried_threads(&["--fleet", "1"]);
}

#[test]
fn a_shard_drift_counts_its_carried_threads() {
    a_drift_counts_its_carried_threads(&["--shards", "1"]);
}

#[test]
fn resize_control_acks_and_fleet_keeps_serving() {
    let lines = vec![
        request(1, Some(9), 1),
        r#"{"control":"resize","fleet":4,"id":"grow"}"#.to_string(),
        request(2, Some(9), 2),
        r#"{"control":"resize","fleet":1,"id":"shrink"}"#.to_string(),
        request(3, Some(9), 3),
        r#"{"control":"resize","fleet":0,"id":"bad"}"#.to_string(),
        r#"{"control":"noop"}"#.to_string(),
    ];
    let resps = run_serve(&["serve", "--fleet", "2"], &lines);
    assert_eq!(resps.len(), 7);
    let find = |pred: &dyn Fn(&serde_json::Value) -> bool| {
        resps.iter().find(|r| pred(r)).cloned().unwrap_or_else(|| {
            panic!("missing expected response in {resps:?}")
        })
    };
    let grow = find(&|r| r["id"] == "grow");
    assert_eq!(grow["status"].as_str(), Some("resized"));
    assert_eq!(grow["fleet"].as_u64(), Some(4));
    assert_eq!(grow["was"].as_u64(), Some(2));
    let shrink = find(&|r| r["id"] == "shrink");
    assert_eq!(shrink["fleet"].as_u64(), Some(1));
    assert_eq!(shrink["was"].as_u64(), Some(4));
    let bad = find(&|r| r["id"] == "bad");
    assert_eq!(bad["status"].as_str(), Some("error"));
    assert_eq!(bad["class"].as_str(), Some("control"));
    let noop = find(&|r| r["class"].as_str() == Some("control") && matches!(r["id"], serde_json::Value::Null));
    assert_eq!(noop["status"].as_str(), Some("error"));
    for id in 1..=3u64 {
        let r = find(&|r| r["id"].as_u64() == Some(id));
        assert_eq!(r["status"].as_str(), Some("ok"), "id {id}: {r:?}");
    }
}

#[test]
fn worker_spawn_failure_exits_9() {
    let mut child = bin()
        .args(["serve", "--fleet", "2", "--worker-cmd", "/nonexistent/worker-binary"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    drop(child.stdin.take());
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(9), "spawn failure must exit 9");
}

#[test]
fn malformed_worker_frames_count_as_a_crash_and_replay() {
    let dir = tempdir("garbage");
    let marker = dir.join("first-run-done");
    let _ = std::fs::remove_file(&marker);
    let stub = dir.join("stub-worker.sh");
    // First incarnation emits a garbage frame and exits; every later one
    // execs the real worker. The front-end must treat the garbage as a
    // crash, restart, and still answer every request.
    std::fs::write(
        &stub,
        format!(
            "#!/bin/sh\n\
             if [ ! -e {marker} ]; then\n\
               touch {marker}\n\
               echo 'this is not a frame'\n\
               exit 0\n\
             fi\n\
             exec {real} \"$@\"\n",
            marker = marker.display(),
            real = env!("CARGO_BIN_EXE_aa-solve"),
        ),
    )
    .unwrap();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let dump = dir.join("metrics.json");
    let lines = vec![request(1, Some(3), 1), request(2, Some(3), 2)];
    let resps = run_serve(
        &[
            "serve",
            "--fleet",
            "1",
            "--worker-cmd",
            stub.to_str().unwrap(),
            "--metrics-dump",
            dump.to_str().unwrap(),
        ],
        &lines,
    );
    assert!(marker.exists(), "the garbage incarnation must have run");
    assert_eq!(resps.len(), 2);
    for r in &resps {
        assert_eq!(r["status"].as_str(), Some("ok"), "request lost to garbage worker: {r:?}");
    }
    let metrics = std::fs::read_to_string(&dump).unwrap();
    assert!(
        metrics.contains("aa_fleet_restarts_total"),
        "restart counter missing from metrics dump"
    );
}

#[test]
fn shutdown_drain_answers_stuck_requests_with_shutdown_class() {
    let dir = tempdir("drain");
    let stub = dir.join("mute-worker.sh");
    // A worker that never speaks: requests can never be answered, so
    // EOF + drain timeout must flush them as retryable shutdown errors.
    std::fs::write(&stub, "#!/bin/sh\nexec sleep 1000\n").unwrap();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let lines = vec![request(1, Some(1), 1), request(2, None, 2)];
    let resps = run_serve(
        &[
            "serve",
            "--fleet",
            "1",
            "--worker-cmd",
            stub.to_str().unwrap(),
            "--drain-timeout-ms",
            "200",
        ],
        &lines,
    );
    assert_eq!(resps.len(), 2);
    for r in &resps {
        assert_eq!(r["status"].as_str(), Some("error"), "{r:?}");
        assert_eq!(r["class"].as_str(), Some("shutdown"), "{r:?}");
    }
}

#[test]
#[ignore = "timing gate (trailing-p99 recovery); flaky beside other tests, CI's timing-gates job runs it alone"]
fn fleet_chaos_reports_are_deterministic_and_healthy() {
    let run = || {
        let out = bin()
            .args([
                "chaos", "--fleet", "--rounds", "25", "--kills", "2", "--stalls", "1",
                "--seed", "99",
            ])
            .stderr(Stdio::null())
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "fleet chaos gate failed: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        out.stdout
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "same seed must produce a byte-identical chaos report"
    );
    let report: serde_json::Value = serde_json::from_slice(&first).unwrap();
    assert_eq!(report["exactly_once"].as_bool(), Some(true));
    assert_eq!(report["rebalanced"].as_bool(), Some(true));
    assert_eq!(report["outputs_identical"].as_bool(), Some(true));
    let restarts: Vec<u64> = report["restarts"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert!(restarts.iter().sum::<u64>() >= 3, "storm must have restarted workers");
}

#[test]
fn traced_fleet_answers_are_bit_identical_to_untraced() {
    let dir = tempdir("traced");
    let trace = dir.join("trace.json");
    let dump = dir.join("metrics.json");
    // Distinct streams so the storm of spans comes from several workers.
    let lines: Vec<String> = (0..16).map(|i| request(i, Some(i), i)).collect();
    let plain = run_serve(&["serve", "--fleet", "3", "--seed", "7"], &lines);
    let traced = run_serve(
        &[
            "serve", "--fleet", "3", "--seed", "7",
            "--trace", trace.to_str().unwrap(),
            "--metrics-dump", dump.to_str().unwrap(),
            "--slo-p99-ms", "500",
        ],
        &lines,
    );
    assert_eq!(plain.len(), 16);
    assert_eq!(traced.len(), 16);
    let by_id = |resps: &[serde_json::Value], id: u64| -> serde_json::Value {
        resps
            .iter()
            .find(|r| r.get("id").and_then(|v| v.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("no response for id {id}"))
            .clone()
    };
    for id in 0..16 {
        let p = by_id(&plain, id);
        let t = by_id(&traced, id);
        assert_eq!(p["status"].as_str(), Some("ok"), "plain {p:?}");
        assert_eq!(t["status"].as_str(), Some("ok"), "traced {t:?}");
        // Observability must never perturb the answer: utility and
        // allocation bits, assignment, and tier are all byte-equal.
        assert_eq!(
            p["utility"].as_f64().unwrap().to_bits(),
            t["utility"].as_f64().unwrap().to_bits(),
            "utility bits diverge under --trace for id {id}"
        );
        let bits = |r: &serde_json::Value| -> Vec<u64> {
            r["allocation"]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap().to_bits())
                .collect()
        };
        assert_eq!(bits(&p), bits(&t), "allocation bits diverge for id {id}");
        assert_eq!(p["server"], t["server"], "assignment diverges for id {id}");
        assert_eq!(p["tier"], t["tier"], "tier diverges for id {id}");
        // NOT compared: "worker" — stream ranges hash over the workers
        // that are up at dispatch time, so routing is timing-dependent
        // (the answer bits above must not be).
    }

    // The merged trace holds every front-end request span, and worker
    // solve spans from a real (non-front-end) pid link under them.
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();
    let request_ids: Vec<u64> = events
        .iter()
        .filter(|e| e["ph"] == "X" && e["name"] == "request")
        .map(|e| e["args"]["id"].as_u64().unwrap())
        .collect();
    assert_eq!(request_ids.len(), 16, "one request span per admitted request");
    let linked_roots = events
        .iter()
        .filter(|e| {
            e["ph"] == "X"
                && e["name"] == "fleet_solve"
                && e["pid"].as_u64() != Some(1)
                && request_ids.contains(&e["args"]["parent"].as_u64().unwrap())
        })
        .count();
    assert_eq!(linked_roots, 16, "every worker solve links under its request span");

    // The metrics dump federates worker series (worker= label) and the
    // SLO layer tracked every completion against the configured target.
    let metrics = std::fs::read_to_string(&dump).unwrap();
    assert!(metrics.contains("worker=\\\"fleet\\\"") || metrics.contains("worker=\"fleet\""),
        "metrics dump is missing the worker=\"fleet\" aggregate");
    assert!(metrics.contains("aa_slo_target_p99_micros"), "missing SLO target gauge");
    assert!(metrics.contains("aa_slo_e2e_micros"), "missing per-class e2e histograms");
}

#[test]
fn help_documents_fleet_flags_and_exit_code_9() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--fleet",
        "--heartbeat-ms",
        "--max-retries",
        "--drain-timeout-ms",
        "--worker-cmd",
        "9  fleet worker failed to spawn",
        "\"control\":\"resize\"",
        "--stall-millis",
    ] {
        assert!(text.contains(needle), "help is missing {needle:?}:\n{text}");
    }
}
