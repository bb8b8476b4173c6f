//! Differential test of the observability layer itself.
//!
//! The bit-identity contract from DESIGN.md §9: enabling the span
//! collector may slow a solve down, but it must never change a single
//! bit of output — recording sits entirely outside solver arithmetic.
//! For random instances, every instrumented entry point is solved with
//! recording **off** (the oracle) and again with a live, enabled
//! collector, at 1, 2, and 8 pool threads, and the results must be
//! **exactly equal** (`assert_eq!`, not within-tolerance).
//!
//! The collector is process-global, so sibling tests toggling it
//! concurrently would race; every test in this binary serializes on
//! [`OBS_LOCK`] and runs one enable/disable discipline — the oracle
//! solves happen before the collector flips on, the observed solves
//! after.

use std::sync::{Arc, Mutex};

use aa_core::incremental::{solve_incremental, WarmState};
use aa_core::{algo2, Problem};
use aa_utility::{CappedLinear, DynUtility, LogUtility, Power};
use proptest::prelude::*;

/// Serializes collector enable/disable across the tests in this binary.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Thread counts matching the main differential suite: inline path,
/// minimal fan-out, oversubscribed.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn any_utility(cap: f64) -> impl Strategy<Value = DynUtility> {
    prop_oneof![
        (0.1..10.0f64, 0.2..1.0f64)
            .prop_map(move |(s, b)| Arc::new(Power::new(s, b, cap)) as DynUtility),
        (0.1..10.0f64, 0.1..4.0f64)
            .prop_map(move |(s, r)| Arc::new(LogUtility::new(s, r, cap)) as DynUtility),
        (0.1..10.0f64, 0.05..1.0f64)
            .prop_map(move |(s, k)| Arc::new(CappedLinear::new(s, k * cap, cap)) as DynUtility),
    ]
}

fn any_problem() -> impl Strategy<Value = Problem> {
    (2usize..9, 1usize..40, 1.0..100.0f64).prop_flat_map(|(m, n, cap)| {
        prop::collection::vec(any_utility(cap), n)
            .prop_map(move |threads| Problem::new(m, cap, threads).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recording_is_bit_invisible_to_every_solve_path(p in any_problem()) {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let collector = aa_obs::Collector::install();

        // Oracle pass: recording off.
        collector.set_enabled(false);
        let seq = rayon::with_threads(1, || algo2::solve(&p));
        let pars: Vec<_> = THREAD_COUNTS
            .iter()
            .map(|&t| rayon::with_threads(t, || algo2::solve(&p)))
            .collect();
        let mut warm_off = WarmState::new();
        let inc = solve_incremental(&p, &mut warm_off);
        let inc_again = solve_incremental(&p, &mut warm_off);

        // Observed pass: identical calls under a live collector.
        collector.set_enabled(true);
        let seq_on = rayon::with_threads(1, || algo2::solve(&p));
        prop_assert!(aa_obs::record_enabled(), "collector raced off mid-test");
        for (&threads, par_off) in THREAD_COUNTS.iter().zip(&pars) {
            let par_on = rayon::with_threads(threads, || algo2::solve(&p));
            prop_assert_eq!(par_off, &par_on, "algo2::solve diverged at {} threads", threads);
        }
        let mut warm_on = WarmState::new();
        let inc_on = solve_incremental(&p, &mut warm_on);
        let inc_on_again = solve_incremental(&p, &mut warm_on);
        collector.set_enabled(false);

        prop_assert_eq!(&seq, &seq_on, "algo2::solve diverged under recording");
        prop_assert_eq!(&inc, &inc_on, "cold incremental solve diverged under recording");
        prop_assert_eq!(&inc_again, &inc_on_again, "warm incremental solve diverged");
        // The headline number is bit-identical, not merely close.
        prop_assert_eq!(
            seq.total_utility(&p).to_bits(),
            seq_on.total_utility(&p).to_bits()
        );
    }
}

/// Pin the `aa_bisection_demand_maps_total` granularity: one increment
/// per whole-slice demand **sweep**, not per element. (Until bench
/// schema v4 the cold path counted nothing and the warm wrappers counted
/// per sweep; the batched-kernel rework made per-sweep the uniform
/// semantics everywhere.) The counts below are exact consequences of the
/// search structure, so any drift back to per-element — or a kernel path
/// that forgets to count — moves them by an order of magnitude.
#[test]
fn demand_maps_counter_is_per_sweep() {
    use aa_allocator::bisection::{allocate, allocate_generic};
    use aa_utility::Utility;

    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let collector = aa_obs::Collector::install();
    collector.set_enabled(true);
    let counter = aa_obs::global().counter("aa_bisection_demand_maps_total");

    // All-discrete instance, single ladder knot: the flip needs exactly
    // 4 sweeps — D(knot), the verification at nextafter(knot), and the
    // two epilogue maps. Per-element accounting would report 8 (n = 2).
    let stair = vec![
        CappedLinear::new(1.0, 0.3, 10.0),
        CappedLinear::new(1.0, 0.3, 10.0),
    ];
    let before = counter.get();
    let _ = allocate(&stair, 0.25);
    assert_eq!(counter.get() - before, 4, "ladder path sweep count");

    // The generic arm on the same instance runs the cold search: 2
    // growth sweeps, then 14 probes of the bounded false-position close
    // onto the knot at 1.0, which leave both edges' demands in hand, so
    // no epilogue maps — four times the ladder's 4.
    let before = counter.get();
    let _ = allocate_generic(&stair, 0.25);
    assert_eq!(counter.get() - before, 16, "generic arm sweep count");

    // Smooth instance through the batched kernel: exactly 16 sweeps
    // (halvings from [0, 1] down to the bracket, then the close),
    // deterministic across identical solves, and far below per-element
    // n × sweeps (≥ 64 × 8 here).
    let smooth: Vec<Power> = (0..64).map(|_| Power::new(1.0, 0.5, 100.0)).collect();
    let budget = 0.5 * smooth.iter().map(|u| u.cap()).sum::<f64>();
    let before = counter.get();
    let _ = allocate(&smooth, budget);
    let first = counter.get() - before;
    let before = counter.get();
    let _ = allocate(&smooth, budget);
    let second = counter.get() - before;
    assert_eq!(first, second, "sweep count must be deterministic");
    assert_eq!(first, 16, "smooth sweep count");
    assert!(
        (8..64).contains(&first),
        "per-sweep magnitude expected, got {first} (per-element would be ≈64×)"
    );

    collector.set_enabled(false);
}

/// Every pipeline entry records one span tree and moves its counters
/// once: `algo2::solve` and `algo2::solve_budgeted` the same tree,
/// `algo1::solve` its own, and the warm engine a cold `bisection` on its
/// first solve and a `bisection_warm` once it carries a bracket. The
/// λ-search's span and counter name what ran, not which entry called it.
#[test]
fn each_entry_records_its_span_tree_and_counters() {
    use aa_core::{algo1, Budget};

    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let collector = aa_obs::Collector::install();
    collector.set_enabled(true);
    let registry = aa_obs::global();
    let solves = registry.counter_labeled("aa_solve_total", "solver", "algo2");
    let cold = registry.counter("aa_bisection_cold_total");
    let warm = registry.counter("aa_bisection_warm_total");
    // The span tree one call records (each span's name beside its
    // parent's, `""` for a root, sorted), and how far it moved the
    // algo2 solve, cold search and warm search counters.
    let observe = |call: &mut dyn FnMut()| {
        collector.clear();
        let before = (solves.get(), cold.get(), warm.get());
        call();
        let moved = (solves.get() - before.0, cold.get() - before.1, warm.get() - before.2);
        let events = collector.events();
        let parent = |id: u64| events.iter().find(|e| e.id == id).map_or("", |e| e.name);
        let mut tree: Vec<_> = events.iter().map(|e| (e.name, parent(e.parent_id))).collect();
        tree.sort_unstable();
        (tree, moved)
    };

    let threads = |shift: f64| -> Vec<DynUtility> {
        (0..12)
            .map(|i| Arc::new(Power::new(1.0 + i as f64 * 0.3 + shift, 0.5, 10.0)) as DynUtility)
            .collect()
    };
    let p = Problem::new(3, 10.0, threads(0.0)).unwrap();

    let algo2_tree = vec![
        ("algo2", ""),
        ("assign", "algo2"),
        ("bisection", "superopt"),
        ("linearize", "algo2"),
        ("superopt", "algo2"),
    ];
    let (tree, moved) = observe(&mut || drop(algo2::solve(&p)));
    assert_eq!(tree, algo2_tree, "algo2::solve");
    assert_eq!(moved, (1, 1, 0), "algo2::solve counters");
    let budget = Budget::unlimited();
    let (tree, moved) = observe(&mut || drop(algo2::solve_budgeted(&p, &budget).unwrap()));
    assert_eq!(tree, algo2_tree, "algo2::solve_budgeted");
    assert_eq!(moved, (1, 1, 0), "algo2::solve_budgeted counters");

    let algo1_tree = vec![
        ("algo1", ""),
        ("bisection", "superopt"),
        ("linearize", "algo1"),
        ("superopt", "algo1"),
    ];
    let (tree, moved) = observe(&mut || drop(algo1::solve(&p)));
    assert_eq!(tree, algo1_tree, "algo1::solve");
    assert_eq!(moved, (0, 1, 0), "algo1::solve counters");

    // The warm engine's first solve has no bracket to carry: cold.
    let mut state = WarmState::new();
    let (tree, moved) = observe(&mut || drop(solve_incremental(&p, &mut state)));
    assert!(tree.contains(&("warm_bisection", "incremental")), "{tree:?}");
    assert!(tree.contains(&("bisection", "warm_bisection")), "{tree:?}");
    assert!(!tree.iter().any(|s| s.0 == "bisection_warm"), "{tree:?}");
    assert_eq!(moved, (0, 1, 0), "first warm-engine solve counters");

    // A drifted instance starts from the carried bracket.
    let drifted = Problem::new(3, 10.0, threads(0.01)).unwrap();
    let (tree, moved) = observe(&mut || drop(solve_incremental(&drifted, &mut state)));
    assert!(tree.contains(&("bisection_warm", "warm_bisection")), "{tree:?}");
    assert!(!tree.iter().any(|s| s.0 == "bisection"), "{tree:?}");
    assert_eq!(moved, (0, 0, 1), "drifted warm-engine solve counters");

    collector.set_enabled(false);
}
