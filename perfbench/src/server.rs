//! One `aa-solve serve` process seen from outside: a stdin/stdout pipe
//! pair, a reader thread that timestamps each response line the moment
//! it arrives, and `/proc` readings of the process tree.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Id a response carries when it has no integer id (e.g. a parse error).
pub const NO_ID: u64 = u64::MAX;

/// One response line and when the client received it.
pub struct Response {
    /// The echoed request id, or [`NO_ID`].
    pub id: u64,
    /// Receipt time: right after the line was read off the pipe.
    pub at: Instant,
    /// The raw line, newline stripped; parsed only after timing ends.
    pub line: String,
}

/// A running server.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    responses: Receiver<Response>,
    reader: Option<JoinHandle<()>>,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawn `bin serve <args>` with piped stdin/stdout.
    pub fn spawn(bin: &Path, args: &[String]) -> std::io::Result<Server> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let (tx, responses) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::with_capacity(1 << 16, stdout);
            let mut line = String::new();
            loop {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {}
                }
                let at = Instant::now();
                let text = line.trim_end().to_string();
                if tx
                    .send(Response {
                        id: response_id(&text),
                        at,
                        line: text,
                    })
                    .is_err()
                {
                    return;
                }
            }
        });
        Ok(Server {
            child,
            stdin,
            responses,
            reader: Some(reader),
            spawned,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Write one complete request line.
    pub fn send(&mut self, line: &[u8]) -> std::io::Result<()> {
        let stdin = self.stdin.as_mut().expect("stdin is open until finish");
        stdin.write_all(line)?;
        stdin.flush()
    }

    /// Next response, waiting at most `timeout`.
    pub fn recv(&self, timeout: Duration) -> Option<Response> {
        self.responses.recv_timeout(timeout).ok()
    }

    /// Close stdin, collect the responses still in flight, and wait for
    /// the process to exit (killing it after `timeout`). Returns the
    /// remaining responses and whether the exit was clean.
    pub fn finish(mut self, timeout: Duration) -> (Vec<Response>, bool) {
        drop(self.stdin.take());
        let deadline = Instant::now() + timeout;
        let mut clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill_tree();
                    break false;
                }
            }
        };
        if let Some(reader) = self.reader.take() {
            clean &= reader.join().is_ok();
        }
        (self.responses.try_iter().collect(), clean)
    }

    /// SIGKILL the server and its worker processes, and wait until all
    /// of them are gone.
    fn kill_tree(&mut self) {
        let workers = children(self.child.id());
        for pid in &workers {
            let _ = Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let deadline = Instant::now() + Duration::from_secs(5);
        while workers
            .iter()
            .any(|p| Path::new(&format!("/proc/{p}")).exists())
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an early exit: never leave a server behind.
        if let Some(reader) = self.reader.take() {
            self.kill_tree();
            let _ = reader.join();
        }
    }
}

/// The integer after the first `"id":` of a response line.
fn response_id(line: &str) -> u64 {
    let Some(at) = line.find("\"id\":") else {
        return NO_ID;
    };
    let digits: &str = &line[at + 5..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().unwrap_or(NO_ID)
}

/// Name and run time (ns) of every live thread of `pid`: the scheduler's
/// `sum_exec_runtime` from `/proc/*/task/*/schedstat`, which leaves out
/// time the hypervisor stole from this guest.
fn thread_runtimes(pid: u32) -> Vec<(String, u64)> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            let ns = stat.split_whitespace().next()?.parse().ok()?;
            Some((
                std::fs::read_to_string(t.path().join("comm")).unwrap_or_default(),
                ns,
            ))
        })
        .collect()
}

fn parent_pid(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    stat[stat.rfind(')')? + 2..]
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// The direct children of `pid` (fleet workers).
pub fn children(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| parent_pid(p) == Some(pid))
        .collect();
    out.sort_unstable();
    out
}

/// CPU time of the server split by role, milliseconds: the front-end
/// (everything but the solving units) and the workers (fleet worker
/// processes, or the `aa-shard-*` threads of an in-process pool).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleCpu {
    /// Front-end CPU, milliseconds.
    pub frontend_ms: f64,
    /// Worker CPU, milliseconds.
    pub worker_ms: f64,
}

impl RoleCpu {
    /// Read the split now.
    pub fn read(pid: u32) -> RoleCpu {
        let mut cpu = RoleCpu::default();
        for (comm, ns) in thread_runtimes(pid) {
            if comm.starts_with("aa-shard-") {
                cpu.worker_ms += ns as f64 / 1e6;
            } else {
                cpu.frontend_ms += ns as f64 / 1e6;
            }
        }
        for child in children(pid) {
            cpu.worker_ms += thread_runtimes(child)
                .iter()
                .map(|(_, ns)| *ns as f64 / 1e6)
                .sum::<f64>();
        }
        cpu
    }

    /// Whole-tree CPU, milliseconds.
    pub fn total_ms(self) -> f64 {
        self.frontend_ms + self.worker_ms
    }

    /// CPU spent between `earlier` and `self`.
    pub fn since(self, earlier: RoleCpu) -> RoleCpu {
        RoleCpu {
            frontend_ms: self.frontend_ms - earlier.frontend_ms,
            worker_ms: self.worker_ms - earlier.worker_ms,
        }
    }
}

/// Summed peak resident set (VmHWM) of the server and its children, MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let hwm_kib = |p: u32| -> f64 {
        std::fs::read_to_string(format!("/proc/{p}/status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
            })
            .unwrap_or(0.0)
    };
    (hwm_kib(pid) + children(pid).into_iter().map(hwm_kib).sum::<f64>()) / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_read_from_both_response_shapes() {
        assert_eq!(response_id(r#"{"status":"ok","id":17,"tier":"algo2"}"#), 17);
        assert_eq!(
            response_id(r#"{"status":"error","id":null,"class":"parse"}"#),
            NO_ID
        );
        assert_eq!(response_id("garbage"), NO_ID);
    }

    #[test]
    fn own_process_cpu_is_readable() {
        let me = std::process::id();
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(spin.elapsed());
        }
        assert!(RoleCpu::read(me).total_ms() >= 30.0);
        assert!(peak_rss_mib(me) > 0.0);
    }
}
