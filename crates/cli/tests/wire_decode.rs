//! Differential test for the CLI's documents: `serde_json::from_str`
//! into a problem file, a worker frame or a solution file gives exactly
//! what `from_value` gives on the parsed tree — the same value or the
//! same error text — over seeded mutations of well-formed documents.
//! The mutator is the JSON crate's own differential support.

use aa_cli::proto::{
    FromWorker, MetricsSnapshot, SpanBinding, ToWorker, TraceCtx, WireHistogram, WireSpan,
    WorkerResult,
};
use aa_cli::{generate_document, GenerateOpts, ProblemFile, SolutionFile};
use aa_utility::UtilitySpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[path = "../../../vendor/serde_json/tests/support/differential.rs"]
mod differential;
use differential::{agree, mutated_text};

fn points(rng: &mut StdRng) -> Vec<(f64, f64)> {
    (0..rng.gen_range(1..4usize)).map(|i| (i as f64, rng.gen_range(0.0..10.0))).collect()
}

/// Every [`UtilitySpec`] variant.
fn spec(rng: &mut StdRng) -> UtilitySpec {
    let cap = rng.gen_range(1.0..100.0);
    match rng.gen_range(0..6u32) {
        0 => UtilitySpec::Power { scale: rng.gen_range(0.0..5.0), beta: 0.5, cap },
        1 => UtilitySpec::Log { scale: 1.0, rate: rng.gen_range(0.0..2.0), cap },
        2 => UtilitySpec::CappedLinear { slope: 2.0, knee: cap / 2.0, cap },
        3 => UtilitySpec::Piecewise { points: points(rng) },
        4 => UtilitySpec::Pchip { points: points(rng) },
        _ => UtilitySpec::Linearized { c_hat: cap / 3.0, v_hat: 1.5, cap, floor: 0.0 },
    }
}

fn problem(rng: &mut StdRng) -> ProblemFile {
    ProblemFile {
        servers: rng.gen_range(1..5usize),
        capacity: rng.gen_range(1.0..100.0),
        threads: (0..rng.gen_range(0..5usize)).map(|_| spec(rng)).collect(),
    }
}

fn maybe_u64(rng: &mut StdRng) -> Option<u64> {
    rng.gen_bool(0.5).then(|| rng.gen_range(0..1u64 << 53))
}

fn to_worker(rng: &mut StdRng) -> ToWorker {
    if rng.gen_bool(0.2) {
        return ToWorker::Ping { nonce: rng.gen_range(0..1000u64) };
    }
    ToWorker::Req {
        seq: rng.gen_range(0..1000u64),
        stream: maybe_u64(rng),
        budget_ms: maybe_u64(rng),
        trace: rng.gen_bool(0.5).then_some(TraceCtx { trace_id: 7, parent_span: 9 }),
        problem: problem(rng),
    }
}

fn metrics(rng: &mut StdRng) -> Option<MetricsSnapshot> {
    rng.gen_bool(0.5).then(|| MetricsSnapshot {
        counters: vec![("solves".to_string(), rng.gen_range(0..99u64))],
        gauges: vec![("queue{k=\"v\"}".to_string(), rng.gen_range(-1.0..1.0))],
        histograms: vec![WireHistogram {
            key: "lat".to_string(),
            buckets: vec![0, 1, rng.gen_range(0..9u64)],
            count: 3,
            sum_micros: 40,
            max_micros: 20,
        }],
    })
}

fn from_worker(rng: &mut StdRng) -> FromWorker {
    match rng.gen_range(0..5u32) {
        0 => FromWorker::Hello { worker: 1, pid: rng.gen_range(1..99999u32), now_micros: 5 },
        1 => FromWorker::Pong {
            nonce: 3,
            solves: rng.gen_range(0..99u64),
            solve_panics: 0,
            now_micros: 8,
            metrics: metrics(rng),
        },
        2 => FromWorker::Resp {
            seq: rng.gen_range(0..99u64),
            result: WorkerResult::Ok {
                tier: "algo2".to_string(),
                degraded: rng.gen_bool(0.5),
                utility: rng.gen_range(0.0..100.0),
                server: vec![0, 1, rng.gen_range(0..4usize)],
                allocation: vec![rng.gen_range(0.0..9.0), 1.5],
                solve_micros: 120,
            },
        },
        3 => FromWorker::Resp {
            seq: 4,
            result: WorkerResult::Err {
                class: "deadline".to_string(),
                error: "budget \"expired\"".to_string(),
                solve_micros: 0,
                queue_expired: rng.gen_bool(0.5),
            },
        },
        _ => FromWorker::Obs {
            now_micros: 11,
            spans: vec![WireSpan {
                name: "tier.algo2".to_string(),
                start_micros: rng.gen_range(0..999u64),
                duration_micros: 3,
                thread_id: 1,
                id: 2,
                parent_id: 0,
            }],
            bindings: vec![SpanBinding { span: 2, trace_id: 7, parent_span: 9 }],
            dropped: 0,
            metrics: metrics(rng),
        },
    }
}

fn solution(rng: &mut StdRng) -> SolutionFile {
    let n = rng.gen_range(0..4usize);
    SolutionFile {
        solver: "algo2".to_string(),
        server: (0..n).map(|i| i % 2).collect(),
        allocation: (0..n).map(|_| rng.gen_range(0.0..9.0)).collect(),
        utility: (0..n).map(|_| rng.gen_range(0.0..9.0)).collect(),
        total_utility: rng.gen_range(0.0..99.0),
        upper_bound: 100.0,
        bound_ratio: rng.gen_range(0.8..1.0),
    }
}

fn check<T: Serialize + Deserialize + std::fmt::Debug>(
    value: T,
    rng: &mut StdRng,
) -> Result<(), String> {
    agree::<T>(&mutated_text(&value, rng))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]
    #[test]
    fn wire_documents_decode_like_the_tree(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        match rng.gen_range(0..5u32) {
            0 => check(problem(&mut rng), &mut rng)?,
            1 => check(spec(&mut rng), &mut rng)?,
            2 => check(to_worker(&mut rng), &mut rng)?,
            3 => check(from_worker(&mut rng), &mut rng)?,
            _ => check(solution(&mut rng), &mut rng)?,
        }
    }
}

/// In-process decode of a `fleet-large` problem (n = 2048 PCHIP
/// threads, ~174 KB): the typed `from_str` against a tree parse, its
/// `from_value` and the drops, best of 100 interleaved rounds each.
/// Wall-clock gated, so ignored by default; run it on a quiet machine:
/// `cargo test --release -p aa-cli --test wire_decode -- --ignored --nocapture`.
#[test]
#[ignore]
fn typed_decode_is_three_times_faster_than_the_tree() {
    let doc = generate_document(&GenerateOpts { servers: 16, beta: 128, ..Default::default() });
    let text = serde_json::to_string(&doc).unwrap();
    let time = |decode: &dyn Fn() -> ProblemFile| {
        let started = Instant::now();
        drop(black_box(decode()));
        started.elapsed()
    };
    let typed_decode = || serde_json::from_str(black_box(&text)).unwrap();
    let tree_decode = || {
        let tree: Value = serde_json::from_str(black_box(&text)).unwrap();
        ProblemFile::from_value(&tree).unwrap()
    };
    assert_eq!(typed_decode(), tree_decode());
    let (mut typed, mut tree) = (Duration::MAX, Duration::MAX);
    for _ in 0..100 {
        typed = typed.min(time(&typed_decode));
        tree = tree.min(time(&tree_decode));
    }
    let speedup = tree.as_secs_f64() / typed.as_secs_f64();
    eprintln!("{} B: typed {typed:?}, tree + from_value + drop {tree:?}, {speedup:.2}x", text.len());
    assert!(speedup >= 3.0, "typed {typed:?} vs tree {tree:?}: only {speedup:.2}x");
}
