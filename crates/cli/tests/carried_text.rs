//! Differential test for the carried request text: a stream's request
//! decoded against the text of its last build (`serve::build_request`,
//! as both serve links decode every request) answers exactly what
//! today's decode answers — a parse of the whole text, then a build
//! against the stream's previous threads (`build_problem_from`).
//!
//! Each random drift script walks a few streams, at the text level,
//! through exact repeats, numbers respelled (`0.5` against `5e-1`),
//! whitespace inside and between thread values, reordered and duplicate
//! keys, edited, added, removed and swapped threads, threads that break
//! their schema, their syntax or their build, requests that expire in
//! the queue or mid-solve, caught solve panics, and eviction at
//! `max_streams`. Both sides answer through their own
//! [`StreamSolver`]: every answer must agree bit for bit (or in class
//! and text), and wherever today's build reuses a thread object the
//! carried build must reuse its own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aa_cli::serve::build_request;
use aa_cli::{build_problem_from, ProblemFile};
use aa_core::{Built, Previous, ShardError, StreamSolver, Tier, TieredSolve};
use aa_utility::{DynUtility, UtilitySpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

const CAP: f64 = 40.0;

fn random_spec(rng: &mut StdRng) -> UtilitySpec {
    let (v, w) = (rng.gen_range(0.001..50.0), rng.gen_range(0.0..=1.0));
    match rng.gen_range(0..5u32) {
        0 => UtilitySpec::Power { scale: rng.gen_range(0.01..20.0), beta: 0.5, cap: CAP },
        1 => {
            let (scale, rate) = (rng.gen_range(0.01..20.0), rng.gen_range(0.01..5.0));
            UtilitySpec::Log { scale, rate, cap: CAP }
        }
        2 => {
            let slope = rng.gen_range(0.01..20.0);
            UtilitySpec::CappedLinear { slope, knee: w * CAP, cap: CAP }
        }
        3 => UtilitySpec::Pchip { points: vec![(0.0, 0.0), (CAP / 2.0, v), (CAP, v + w * v)] },
        _ => UtilitySpec::Piecewise { points: vec![(0.0, 0.0), (CAP / 2.0, v), (CAP, v + w * v)] },
    }
}

/// One thread as the client spells it: the spec, and how its text is
/// written (a style seed: number spelling, whitespace, key order, a
/// duplicate key). The same thread renders to the same bytes.
#[derive(Debug, Clone)]
struct Thread {
    spec: UtilitySpec,
    style: u64,
}

/// A JSON value written in style `style`.
fn render(v: &Value, style: u64, out: &mut String) {
    let ws = |k: u64| match (style >> k) & 7 {
        0 => " ",
        1 => "\n ",
        _ => "",
    };
    match v {
        Value::Num(x) if style & 1 == 1 => out.push_str(&format!("{x:e}")),
        Value::Num(x) => out.push_str(&format!("{x:?}")),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                out.push_str(ws(4));
                render(item, style, out);
            }
            out.push(']');
        }
        Value::Obj(entries) => {
            let mut entries = entries.clone();
            if (style >> 8) & 15 == 0 {
                // Reordered keys: the tag moves last (the typed decode
                // then declines the text, which is read the long way).
                entries.rotate_left(1);
            }
            if (style >> 16) & 3 == 0 {
                // A duplicate key: the first occurrence counts.
                let (k, _) = entries[entries.len() - 1].clone();
                entries.push((k, Value::Str("ignored".into())));
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                out.push_str(ws(1));
                out.push_str(&format!("{k:?}:"));
                out.push_str(ws(12));
                render(v, style, out);
            }
            out.push('}');
        }
        other => out.push_str(&serde_json::to_string(other).unwrap()),
    }
}

/// One stream's current problem.
#[derive(Debug, Clone)]
struct Stream {
    servers: usize,
    capacity: f64,
    threads: Vec<Thread>,
    /// Whitespace between thread values.
    between: &'static str,
}

impl Stream {
    fn new(rng: &mut StdRng) -> Stream {
        let n = rng.gen_range(1..7usize);
        Stream {
            servers: rng.gen_range(1..4usize),
            capacity: 30.0,
            threads: (0..n).map(|_| Thread { spec: random_spec(rng), style: rng.gen() }).collect(),
            between: "",
        }
    }

    /// The problem text, thread `broken` (if any) replaced by `bad`.
    fn text(&self, broken: Option<(usize, &str)>) -> String {
        let threads: Vec<String> = self
            .threads
            .iter()
            .enumerate()
            .map(|(i, t)| match broken {
                Some((b, bad)) if b == i => bad.to_string(),
                _ => {
                    let mut out = String::new();
                    render(&t.spec.to_value(), t.style, &mut out);
                    out
                }
            })
            .collect();
        let sep = format!(",{}", self.between);
        format!(
            r#"{{"servers":{},"capacity":{:?},"threads":[{}{}]}}"#,
            self.servers,
            self.capacity,
            self.between,
            threads.join(&sep)
        )
    }
}

/// How one request is answered, besides its text.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Solve,
    /// The deadline passed while it was queued: no solve runs.
    Expire,
    /// The solve's budget runs out after this many checks.
    Starve(u64),
    /// The solve panics inside the caught region.
    Panic,
}

/// One step: edit `stream`'s problem, then send it (or a broken variant
/// of it, which leaves the stream's problem as it was).
fn step(rng: &mut StdRng, s: &mut Stream) -> (String, Fate) {
    let n = s.threads.len();
    let i = rng.gen_range(0..n);
    let mut broken = None;
    match rng.gen_range(0..14u32) {
        0 | 1 => {}
        2 => s.threads[i].style ^= 1,
        3 => s.threads[i].style = rng.gen(),
        4 => s.between = ["", " ", "\n", " \t"][rng.gen_range(0..4usize)],
        5 | 6 => s.threads[i].spec = random_spec(rng),
        7 => s.threads.push(Thread { spec: random_spec(rng), style: rng.gen() }),
        8 if n > 1 => {
            s.threads.remove(i);
        }
        9 => s.threads.swap(i, rng.gen_range(0..n)),
        10 => broken = Some(r#"{"kind":"power","scale":"x","beta":0.5,"cap":40.0}"#),
        11 => broken = Some(r#"{"kind":"power","scale":1.0,"beta":0.5,"#),
        12 => broken = Some(r#"{"kind":"power","scale":1.0,"beta":2.0,"cap":40.0}"#),
        _ => s.servers = rng.gen_range(1..4usize),
    }
    let text = s.text(broken.map(|bad| (i, bad)));
    let fate = match rng.gen_range(0..12u32) {
        0 => Fate::Expire,
        1 => Fate::Starve(rng.gen_range(0..40u64)),
        2 => Fate::Panic,
        _ => Fate::Solve,
    };
    (text, fate)
}

/// Today's decode: the whole text parsed, then built against the
/// stream's previous threads; no text is kept.
fn parse_then_build(text: &str, previous: Previous<'_>) -> Result<Built, (&'static str, String)> {
    let file: ProblemFile = serde_json::from_str(text)
        .map_err(|e| ("parse", format!("ServeRequest.problem: {e}")))?;
    build_problem_from(&file, previous.threads)
        .map(|p| (p, None))
        .map_err(|e| ("problem", e.to_string()))
}

/// One answer, as bits: tier, utility, servers, amounts; or the error's
/// class and text.
type Bits = Result<(Tier, u64, Vec<usize>, Vec<u64>), (String, String)>;

fn bits(r: &Result<TieredSolve, ShardError>) -> Bits {
    match r {
        Ok(s) => Ok((
            s.degradation.tier,
            s.utility.to_bits(),
            s.assignment.server.clone(),
            s.assignment.amount.iter().map(|a| a.to_bits()).collect(),
        )),
        Err(e) => Err((e.class().to_string(), e.to_string())),
    }
}

/// Which built threads are the previous request's objects, and each
/// thread's parameters.
fn reuse(built: &[DynUtility], previous: &[DynUtility]) -> (Vec<bool>, Vec<String>) {
    let reused = built.iter().zip(previous).map(|(t, p)| Arc::ptr_eq(t, p));
    let mut reused: Vec<bool> = reused.collect();
    reused.resize(built.len(), false);
    (reused, built.iter().map(|t| format!("{t:?}")).collect())
}

/// What one side's build saw and made.
type Seen = Option<(Vec<bool>, Vec<String>)>;

/// Answer `text` on `stream` through `solver` with `build`, noting which
/// threads the build reused.
fn answer(
    solver: &mut StreamSolver,
    stream: u64,
    fate: Fate,
    build: impl FnOnce(Previous<'_>) -> Result<Built, (&'static str, String)>,
) -> (Result<TieredSolve, ShardError>, Seen) {
    let mut seen = None;
    let deadline = match fate {
        Fate::Expire => Instant::now().checked_sub(Duration::from_secs(1)),
        _ => None,
    };
    let fuel = match fate {
        Fate::Starve(checks) => Some(checks),
        _ => None,
    };
    let panic = matches!(fate, Fate::Panic).then(|| "injected".to_string());
    let (outcome, _) = solver.answer(
        Some(stream),
        |previous| {
            let built = build(previous)?;
            seen = Some(reuse(built.0.threads(), previous.threads));
            Ok(built)
        },
        deadline,
        fuel,
        panic,
    );
    (outcome, seen)
}

/// One request through both sides; `Err` says how they differ.
fn both_answer(
    carried: &mut StreamSolver,
    today: &mut StreamSolver,
    stream: u64,
    text: &str,
    fate: Fate,
) -> Result<(), String> {
    let shared = Arc::new(text.to_string());
    let (a, seen_a) = answer(carried, stream, fate, |p| build_request(&shared, p));
    let (b, seen_b) = answer(today, stream, fate, |p| parse_then_build(text, p));
    if bits(&a) != bits(&b) {
        return Err(format!("carried {a:?} vs today {b:?}"));
    }
    match (seen_a, seen_b) {
        (Some((reused_a, params_a)), Some((reused_b, params_b))) => {
            if params_a != params_b {
                return Err(format!("built {params_a:?} vs {params_b:?}"));
            }
            if reused_b.iter().zip(&reused_a).any(|(&b, &a)| b && !a) {
                return Err(format!("today reused {reused_b:?}, carried {reused_a:?}"));
            }
            Ok(())
        }
        (None, None) => Ok(()),
        _ => Err(format!("one side refused: {a:?} vs {b:?}")),
    }
}

fn ladder(k: u32) -> Option<Vec<Tier>> {
    match k {
        0 => None,
        1 => Some(vec![Tier::Price, Tier::Uu]),
        2 => Some(vec![Tier::Price, Tier::Algo2, Tier::Uu]),
        3 => Some(vec![Tier::Algo2Refined, Tier::Algo2, Tier::Uu]),
        _ => Some(vec![Tier::Algo2, Tier::Uu]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn carried_text_answers_like_parse_then_build(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ladder = ladder(rng.gen_range(0..7u32));
        let max_streams = rng.gen_range(1..4usize);
        let mut carried = StreamSolver::new(ladder.clone(), max_streams);
        let mut today = StreamSolver::new(ladder, max_streams);
        let n = rng.gen_range(1..4usize);
        let mut streams: Vec<Stream> = (0..n).map(|_| Stream::new(&mut rng)).collect();
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut outcome = Ok(());
        for k in 0..rng.gen_range(1..16u32) {
            let stream = rng.gen_range(0..streams.len());
            let (text, fate) = step(&mut rng, &mut streams[stream]);
            if let Err(e) = both_answer(&mut carried, &mut today, stream as u64, &text, fate) {
                outcome = Err(format!("step {k} ({fate:?}) on {text}: {e}"));
                break;
            }
        }
        std::panic::set_hook(quiet);
        outcome?;
    }
}
