//! One measured serving session: set-up probes, a warm-up, then an
//! open-loop window on the seeded schedule.
//!
//! One process drives it with two threads: this one sends (and sleeps
//! until each request is due), the server's reader thread timestamps
//! answers. Every request line is serialized before the clock starts.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::server::{peak_rss_mib, Response, RoleCpu, Server};
use crate::workload::{line, paced_schedule};

/// The tiny problem every set-up probe solves.
const PROBE: &[u8] = b"{\"id\":0,\"problem\":{\"servers\":2,\"capacity\":10.0,\"threads\":[\
{\"kind\":\"power\",\"scale\":1.0,\"beta\":0.5,\"cap\":10.0},\
{\"kind\":\"power\",\"scale\":2.0,\"beta\":0.5,\"cap\":10.0}]}}\n";

/// Pre-serialized request bodies, indexed by request number.
pub struct Bodies {
    /// One body per pool slot, or one per request for drift workloads.
    pub bodies: Vec<Vec<u8>>,
    /// Bodies cycle (pool) instead of running out (drift).
    pub cycle: bool,
}

impl Bodies {
    fn get(&self, k: usize) -> &[u8] {
        if self.cycle {
            &self.bodies[k % self.bodies.len()]
        } else {
            &self.bodies[k]
        }
    }
}

/// How to run a session.
pub struct Plan<'a> {
    /// The `aa-solve` binary.
    pub bin: &'a Path,
    /// Arguments after `serve`.
    pub args: Vec<String>,
    /// Where the server writes its `--counters` dump.
    pub counters: PathBuf,
    /// Servers spawned to time set-up; the last one is measured.
    pub probes: usize,
    /// Requests before the open-loop window, evenly spaced at the rate.
    pub warmup: usize,
    /// Open-loop offered load, requests per second.
    pub rate_rps: f64,
    /// Open-loop window, seconds.
    pub open_secs: f64,
    /// Equal time blocks the open-loop window is split into.
    pub blocks: usize,
    /// Seed of the arrival schedule.
    pub seed: u64,
    /// Longest wait for an answer before the run is declared broken.
    pub answer_timeout: Duration,
}

/// One request the session sent.
pub struct Sent {
    /// Request number (its id is `k + 1`).
    pub k: usize,
    /// When it was due: its scheduled time (its send time in warm-up).
    pub due: Instant,
    /// Open-loop time block; `None` in warm-up, which is not timed.
    pub block: Option<usize>,
}

/// Everything a session observed.
pub struct Observed {
    /// Spawn → first `ok` probe answer, wall seconds, one per probe.
    pub setup_wall_s: Vec<f64>,
    /// CPU the server processes spent from spawn to that answer, seconds,
    /// one per probe.
    pub setup_cpu_s: Vec<f64>,
    /// Requests in send order.
    pub sent: Vec<Sent>,
    /// Every response line the measured server wrote.
    pub responses: Vec<Response>,
    /// How late the generator woke for each open-loop request, ms
    /// (blocking on a full pipe excluded: that is the server's delay).
    pub lag_ms: Vec<f64>,
    /// Server CPU per open-loop block; the last block runs until the
    /// last answer.
    pub block_cpu: Vec<RoleCpu>,
    /// Host CPU steal over the open-loop window, ticks per second (the
    /// hypervisor running other guests on this guest's CPUs).
    pub steal_per_s: f64,
    /// Summed peak RSS of the server processes, MiB.
    pub rss_mib: f64,
    /// The server's `--counters` dump.
    pub counters: Option<serde_json::Value>,
    /// The server exited with status 0 after stdin closed.
    pub clean_exit: bool,
    /// Every request was answered before the timeout.
    pub complete: bool,
}

/// Host-wide CPU steal so far, in USER_HZ ticks (`/proc/stat`).
fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

fn wait_probe(server: &Server, timeout: Duration) -> Option<Instant> {
    let deadline = Instant::now() + timeout;
    while let Some(r) = server.recv(deadline.saturating_duration_since(Instant::now())) {
        if r.id == 0 && r.line.starts_with("{\"status\":\"ok\"") {
            return Some(r.at);
        }
    }
    None
}

/// Run one session. `Err` only when the server cannot be started.
pub fn run(plan: &Plan<'_>, bodies: &Bodies) -> std::io::Result<Observed> {
    let (mut setup_wall_s, mut setup_cpu_s) = (Vec::new(), Vec::new());
    let mut server = None;
    let _ = std::fs::remove_file(&plan.counters);
    for i in 0..plan.probes.max(1) {
        let mut s = Server::spawn(plan.bin, &plan.args)?;
        s.send(PROBE)?;
        let Some(at) = wait_probe(&s, plan.answer_timeout) else {
            return Err(std::io::Error::other(
                "the server never answered its set-up probe",
            ));
        };
        setup_cpu_s.push(RoleCpu::read(s.pid()).total_ms() / 1e3);
        setup_wall_s.push(at.duration_since(s.spawned).as_secs_f64());
        if i + 1 == plan.probes.max(1) {
            server = Some(s);
        } else {
            s.finish(plan.answer_timeout);
        }
    }
    let mut server = server.expect("at least one probe server");
    let mut sent = Vec::new();
    let mut buf = Vec::new();
    let mut send = |server: &mut Server, k: usize, due: Instant, block| {
        line(k as u64 + 1, bodies.get(k), &mut buf);
        sent.push(Sent { k, due, block });
        server.send(&buf)
    };

    // Warm-up: evenly spaced, untimed.
    let gap = Duration::from_secs_f64(1.0 / plan.rate_rps);
    for k in 0..plan.warmup {
        send(&mut server, k, Instant::now(), None)?;
        std::thread::sleep(gap);
    }

    // Open loop: each request is due at its scheduled time, whatever
    // happened to the ones before it.
    let count = (plan.rate_rps * plan.open_secs).round() as usize;
    let schedule = paced_schedule(count, plan.open_secs, plan.seed);
    let blocks = plan.blocks.max(1);
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let mut cpu = vec![RoleCpu::read(server.pid())];
    let steal0 = host_steal_ticks();
    let start = Instant::now() + Duration::from_millis(2);
    let mut last_end = start;
    for (i, offset) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(*offset);
        let block = ((offset * blocks as f64 / plan.open_secs) as usize).min(blocks - 1);
        while cpu.len() <= block {
            cpu.push(RoleCpu::read(server.pid()));
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let woke = Instant::now();
        lag_ms.push(
            woke.saturating_duration_since(due.max(last_end))
                .as_secs_f64()
                * 1e3,
        );
        send(&mut server, plan.warmup + i, due, Some(block))?;
        last_end = Instant::now();
    }
    let mut responses = Vec::new();
    let mut complete = true;
    while responses.len() < plan.warmup + schedule.len() {
        match server.recv(plan.answer_timeout) {
            Some(r) => responses.push(r),
            None => {
                complete = false;
                break;
            }
        }
    }
    while cpu.len() <= blocks {
        cpu.push(RoleCpu::read(server.pid()));
    }
    let block_cpu = cpu.windows(2).map(|w| w[1].since(w[0])).collect();
    let steal_per_s = (host_steal_ticks() - steal0) as f64 / start.elapsed().as_secs_f64();

    let rss_mib = peak_rss_mib(server.pid());
    let (rest, clean_exit) = server.finish(plan.answer_timeout);
    responses.extend(rest);
    let counters = std::fs::read_to_string(&plan.counters)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    Ok(Observed {
        setup_wall_s,
        setup_cpu_s,
        sent,
        responses,
        lag_ms,
        block_cpu,
        steal_per_s,
        rss_mib,
        counters,
        clean_exit,
        complete,
    })
}
