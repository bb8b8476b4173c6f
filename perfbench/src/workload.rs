//! The benchmark's workloads: which server they drive, and the seeded
//! request problems and arrival schedule they send it.

use aa_cli::{generate_document, GenerateOpts, ProblemFile};
use aa_utility::UtilitySpec;
use aa_workloads::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-server capacity of every generated problem.
pub const CAPACITY: f64 = 1000.0;

/// One traffic mix against one server configuration.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Arguments after `aa-solve serve`.
    pub serve_args: &'static [&'static str],
    /// Servers `m` per problem.
    pub servers: usize,
    /// Threads per server `β` (so `n = m·β`).
    pub beta: usize,
    /// Distinct `stream` keys the requests spread over.
    pub streams: usize,
    /// Each request is its stream's previous problem with ~1% of the
    /// thread curves perturbed; otherwise requests cycle through a pool
    /// of independent problems.
    pub drift: bool,
    /// Independent problems in the pool (a multiple of `streams`).
    pub pool: usize,
    /// Open-loop offered load, requests per second.
    pub rate_rps: f64,
    /// Latency limit, milliseconds; also every request's `deadline_ms`.
    pub limit_ms: u64,
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "shards-small",
        serve_args: &["--shards", "2"],
        servers: 8,
        beta: 5,
        streams: 16,
        drift: false,
        pool: 256,
        rate_rps: 400.0,
        limit_ms: 100,
    },
    Workload {
        name: "fleet-large",
        serve_args: &["--fleet", "2"],
        servers: 16,
        beta: 128,
        streams: 4,
        drift: false,
        pool: 16,
        rate_rps: 2.5,
        limit_ms: 1500,
    },
    Workload {
        name: "fleet-drift",
        serve_args: &["--fleet", "2", "--ladder", "algo2,uu"],
        servers: 16,
        beta: 32,
        streams: 32,
        drift: true,
        pool: 0,
        rate_rps: 20.0,
        limit_ms: 250,
    },
];

impl Workload {
    /// The server runs worker processes (`--fleet`).
    pub fn fleet(&self) -> bool {
        self.serve_args.contains(&"--fleet")
    }

    /// The server's `--ladder`, `None` for the default ladder.
    pub fn ladder(&self) -> Option<&'static str> {
        let i = self.serve_args.iter().position(|a| *a == "--ladder")?;
        self.serve_args.get(i + 1).copied()
    }
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64 step: decorrelates derived seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The paper's four value distributions, cycled by index.
fn distribution(i: usize) -> Distribution {
    match i % 4 {
        0 => Distribution::Uniform,
        1 => Distribution::paper_normal(),
        2 => Distribution::PowerLaw { alpha: 2.0 },
        _ => Distribution::Discrete {
            gamma: 0.85,
            theta: 5.0,
        },
    }
}

fn paper_problem(wl: &Workload, dist: usize, seed: u64) -> ProblemFile {
    generate_document(&GenerateOpts {
        servers: wl.servers,
        beta: wl.beta,
        capacity: CAPACITY,
        dist: distribution(dist),
        seed,
    })
}

/// The workload's request problems in send order, from the seed alone.
pub struct Generator<'w> {
    wl: &'w Workload,
    /// Pool workloads: the independent problems.
    pool: Vec<ProblemFile>,
    /// Drift workloads: each stream's current problem and its RNG.
    streams: Vec<(ProblemFile, StdRng)>,
    next: usize,
}

impl<'w> Generator<'w> {
    /// Generator for `wl` under `seed`.
    pub fn new(wl: &'w Workload, seed: u64) -> Self {
        let derive = |i: usize| splitmix64(seed ^ splitmix64(i as u64 + 1));
        let (pool, streams) = if wl.drift {
            let streams = (0..wl.streams)
                .map(|s| {
                    (
                        paper_problem(wl, s, derive(s)),
                        StdRng::seed_from_u64(derive(s) ^ 1),
                    )
                })
                .collect();
            (Vec::new(), streams)
        } else {
            let pool = (0..wl.pool)
                .map(|j| paper_problem(wl, j / wl.streams, derive(j)))
                .collect();
            (pool, Vec::new())
        };
        Generator {
            wl,
            pool,
            streams,
            next: 0,
        }
    }

    /// Pool slot of request `k`; `None` for drift workloads, whose every
    /// request is a distinct problem.
    pub fn pool_index(&self, k: usize) -> Option<usize> {
        (!self.wl.drift).then(|| k % self.wl.pool)
    }

    /// Stream key and problem of the next request.
    pub fn next_request(&mut self) -> (u64, &ProblemFile) {
        let k = self.next;
        self.next += 1;
        if let Some(j) = self.pool_index(k) {
            return ((j % self.wl.streams) as u64, &self.pool[j]);
        }
        let s = k % self.wl.streams;
        let (problem, rng) = &mut self.streams[s];
        if k >= self.wl.streams {
            perturb(problem, rng);
        }
        (s as u64, &self.streams[s].0)
    }
}

/// Rescale ~1% of the thread curves (at least one) by a factor in
/// `[0.9, 1.1]`; a rescaled concave curve stays a valid utility.
fn perturb(problem: &mut ProblemFile, rng: &mut StdRng) {
    let n = problem.threads.len();
    for _ in 0..n.div_ceil(100) {
        let f = rng.gen_range(0.9..1.1);
        if let UtilitySpec::Pchip { points } = &mut problem.threads[rng.gen_range(0..n)] {
            for p in points.iter_mut() {
                p.1 *= f;
            }
        }
    }
}

/// A request line minus its `{"id":N,` prefix: the stream key, the
/// deadline, the problem, the closing brace and the newline.
pub fn body(stream: u64, deadline_ms: u64, problem: &ProblemFile) -> Vec<u8> {
    let problem = serde_json::to_string(problem).expect("problem files serialize");
    format!("\"stream\":{stream},\"deadline_ms\":{deadline_ms},\"problem\":{problem}}}\n")
        .into_bytes()
}

/// The whole line for request `id` with the given body.
pub fn line(id: u64, body: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(format!("{{\"id\":{id},").as_bytes());
    out.extend_from_slice(body);
}

/// Open-loop arrival offsets, seconds from the start of the window: the
/// `i`-th of `n` is due at `(i + ½ + u)·secs/n` with `u` drawn from the
/// seed, uniform in `[-0.3, 0.3)`, so gaps lie within 40% of the mean.
/// Near-regular rather than Poisson: on a small shared host, bursts would
/// set the run-to-run spread instead of the code.
pub fn paced_schedule(n: usize, secs: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x9ace_d01e));
    let gap = secs / n.max(1) as f64;
    (0..n)
        .map(|i| (i as f64 + 0.5 + rng.gen_range(-0.3..0.3)) * gap)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        for wl in &WORKLOADS {
            let (mut a, mut b) = (Generator::new(wl, 7), Generator::new(wl, 7));
            for _ in 0..wl.streams + 3 {
                let (sa, pa) = a.next_request();
                let (sa, pa) = (sa, pa.clone());
                let (sb, pb) = b.next_request();
                assert_eq!((sa, &pa), (sb, pb));
            }
        }
    }

    #[test]
    fn drift_changes_about_one_percent_of_threads() {
        let wl = by_name("fleet-drift").unwrap();
        let mut g = Generator::new(wl, 3);
        let first = g.next_request().1.clone();
        for _ in 1..wl.streams {
            g.next_request();
        }
        let second = g.next_request().1;
        let changed = first
            .threads
            .iter()
            .zip(&second.threads)
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            (1..=wl.servers * wl.beta / 100 + 1).contains(&changed),
            "{changed}"
        );
    }

    #[test]
    fn lines_parse_as_serve_requests() {
        let wl = by_name("shards-small").unwrap();
        let mut g = Generator::new(wl, 1);
        let (stream, problem) = g.next_request();
        let mut buf = Vec::new();
        line(42, &body(stream, wl.limit_ms, problem), &mut buf);
        let text = std::str::from_utf8(&buf).unwrap().trim_end();
        let req: aa_cli::serve::ServeRequest = serde_json::from_str(text).unwrap();
        assert_eq!(
            (req.id.as_u64(), req.stream, req.deadline_ms),
            (Some(42), Some(stream), Some(wl.limit_ms))
        );
        assert_eq!(req.problem.threads.len(), 40);
    }

    #[test]
    fn schedule_is_seeded_paced_and_in_window() {
        let p = paced_schedule(100, 2.0, 9);
        assert_eq!(p, paced_schedule(100, 2.0, 9));
        assert_ne!(p, paced_schedule(100, 2.0, 10));
        assert!(p
            .windows(2)
            .all(|w| (0.008..0.032).contains(&(w[1] - w[0]))));
        assert!(p.iter().all(|&t| (0.0..2.0).contains(&t)));
    }
}
