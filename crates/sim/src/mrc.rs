//! Miss-ratio curves via Mattson's stack algorithm.
//!
//! LRU has the *stack inclusion* property: the contents of an LRU cache of
//! size `k` are always a subset of one of size `k+1`. Mattson's classic
//! observation: an access hits in a cache of size `k` iff its *stack
//! distance* (the number of distinct lines touched since the previous
//! access to the same line) is at most `k`. One pass over the trace
//! therefore yields the miss ratio at every cache size simultaneously —
//! this is how real systems (and the paper's reference \[4\]) obtain
//! utility curves without rerunning threads per allocation.

use std::collections::HashMap;

use crate::trace::Trace;

/// The per-size hit histogram and derived miss-ratio curve of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MissRatioCurve {
    /// `hits[k]` = number of accesses with stack distance exactly `k+1`
    /// (i.e. hits gained by growing the cache from `k` to `k+1` lines).
    pub hit_histogram: Vec<u64>,
    /// Total accesses (cold misses included).
    pub accesses: u64,
}

impl MissRatioCurve {
    /// Miss ratio with a cache of `lines` lines.
    pub fn miss_ratio(&self, lines: usize) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let hits: u64 = self.hit_histogram.iter().take(lines).sum();
        1.0 - hits as f64 / self.accesses as f64
    }

    /// Hits per access with a cache of `lines` lines (a nondecreasing
    /// function of `lines`: the raw material for a utility curve).
    pub fn hit_ratio(&self, lines: usize) -> f64 {
        1.0 - self.miss_ratio(lines)
    }
}

/// Compute the stack-distance hit histogram of a trace.
///
/// Implementation: an explicit LRU stack (`Vec` of line ids, most recent
/// first). Each access searches for the line (its index is the stack
/// distance), moves it to the front, and records the distance. `O(n·d)`
/// where `d` is the mean stack depth — plenty for the synthetic traces
/// used here; production systems would use a tree-based structure.
pub fn stack_distances(trace: &Trace) -> MissRatioCurve {
    let mut stack: Vec<u64> = Vec::new();
    let mut position: HashMap<u64, ()> = HashMap::new(); // membership only
    let mut hist: Vec<u64> = Vec::new();

    for &line in &trace.accesses {
        if let std::collections::hash_map::Entry::Vacant(e) = position.entry(line) {
            // Cold miss at every size.
            e.insert(());
            stack.insert(0, line);
        } else {
            let idx = stack
                .iter()
                .position(|&l| l == line)
                .expect("membership map and stack agree");
            // Stack distance idx (0-based) means a cache of idx+1 lines hits.
            if hist.len() <= idx {
                hist.resize(idx + 1, 0);
            }
            hist[idx] += 1;
            stack.remove(idx);
            stack.insert(0, line);
        }
    }

    MissRatioCurve {
        hit_histogram: hist,
        accesses: trace.accesses.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn repeated_single_line_hits_at_size_one() {
        let t = Trace { accesses: vec![7, 7, 7, 7] };
        let mrc = stack_distances(&t);
        assert_eq!(mrc.accesses, 4);
        // 3 hits at distance 1; the first access is a cold miss.
        assert!((mrc.miss_ratio(1) - 0.25).abs() < 1e-12);
        assert!((mrc.miss_ratio(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn looping_trace_has_cliff_at_working_set() {
        // Cyclic sweep over 4 lines: LRU of size < 4 never hits; size ≥ 4
        // hits everything after the first lap.
        let mut rng = StdRng::seed_from_u64(1);
        let t = TraceSpec::Looping { lines: 4 }.generate(400, &mut rng);
        let mrc = stack_distances(&t);
        assert!((mrc.miss_ratio(3) - 1.0).abs() < 1e-12, "LRU thrashing expected");
        // 4 cold misses out of 400.
        assert!((mrc.miss_ratio(4) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn streaming_never_hits() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = TraceSpec::Streaming.generate(100, &mut rng);
        let mrc = stack_distances(&t);
        for k in [0, 1, 10, 100] {
            assert!((mrc.miss_ratio(k) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn miss_ratio_is_nonincreasing_in_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = TraceSpec::Zipf { lines: 64, s: 1.0 }.generate(5000, &mut rng);
        let mrc = stack_distances(&t);
        let mut prev = 1.0;
        for k in 0..=64 {
            let m = mrc.miss_ratio(k);
            assert!(m <= prev + 1e-12, "miss ratio rose at size {k}");
            prev = m;
        }
    }

    #[test]
    fn lru_simulation_agrees_with_stack_distance() {
        // Direct LRU simulation at a few fixed sizes must match the
        // histogram-derived miss ratio exactly (stack inclusion).
        let mut rng = StdRng::seed_from_u64(5);
        let t = TraceSpec::Zipf { lines: 40, s: 0.9 }.generate(3000, &mut rng);
        let mrc = stack_distances(&t);
        for size in [1usize, 3, 8, 20, 40] {
            let misses = crate::cache::simulate_lru(&t, size);
            let direct = misses as f64 / t.len() as f64;
            assert!(
                (direct - mrc.miss_ratio(size)).abs() < 1e-12,
                "size {size}: direct {direct} vs mattson {}",
                mrc.miss_ratio(size)
            );
        }
    }

    #[test]
    fn empty_trace_is_all_hits_by_convention() {
        let mrc = stack_distances(&Trace { accesses: vec![] });
        assert_eq!(mrc.miss_ratio(4), 0.0);
    }
}
