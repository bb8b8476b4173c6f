//! Exporters: Prometheus text exposition, a JSON metrics snapshot, a
//! Chrome-trace (`trace_event`) span dump, and a minimal scrape server.
//!
//! All writers are hand-rolled over `std` — this crate cannot depend on
//! `serde_json` (it sits below everything in the workspace graph), and
//! the formats involved are small and fixed.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use crate::metrics::{bucket_boundary_micros, Metric, Registry, NUM_BOUNDARIES};
use crate::trace::Collector;

/// Render `registry` in the Prometheus text exposition format.
///
/// Counters and gauges are one sample each; histograms emit cumulative
/// `_bucket{le="…"}` samples (only up to the last non-empty bucket, to
/// keep the page readable), `_sum` and `_count`. Histogram names carry
/// their unit (`…_micros`) so the µs-domain buckets are unambiguous.
///
/// Uses the *federated* snapshot: on a fleet front-end the page also
/// carries every worker's shipped series (`worker=`-labeled) and the
/// `worker="fleet"` histogram aggregates; on a plain process the two
/// snapshots are identical.
#[must_use]
pub fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_type: Option<(String, &'static str)> = None;
    for (key, metric) in registry.snapshot_federated() {
        let (name, labels) = split_key(&key);
        let kind = match metric {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        };
        if last_type.as_ref() != Some(&(name.to_string(), kind)) {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_type = Some((name.to_string(), kind));
        }
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "{key} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "{key} {}", g.get());
            }
            Metric::Histogram(h) => {
                let counts = h.bucket_counts();
                let last_nonempty = counts.iter().rposition(|&c| c > 0);
                let mut cumulative = 0u64;
                for (i, &c) in counts.iter().enumerate().take(NUM_BOUNDARIES) {
                    cumulative += c;
                    if last_nonempty.is_some_and(|l| i <= l) {
                        let le = bucket_boundary_micros(i);
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{{}le=\"{le}\"}} {cumulative}",
                            label_prefix(labels)
                        );
                    }
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{{{}le=\"+Inf\"}} {}",
                    label_prefix(labels),
                    h.count()
                );
                let _ = writeln!(out, "{name}_sum{labels} {}", h.sum_micros());
                let _ = writeln!(out, "{name}_count{labels} {}", h.count());
            }
        }
    }
    out
}

/// Split an export key `name{k="v"}` into `(name, "{k=\"v\"}" | "")`.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => key.split_at(i),
        None => (key, ""),
    }
}

/// `{k="v"}` → `k="v",` (to splice before `le="…"`); empty stays empty.
fn label_prefix(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{},", &labels[1..labels.len() - 1])
    }
}

/// Render `registry` as a JSON snapshot:
/// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum_micros,
/// max_micros,p50_micros,p90_micros,p99_micros}}}`. Federated worker
/// series are included, same as [`prometheus_text`].
#[must_use]
pub fn json_snapshot(registry: &Registry) -> String {
    let mut counters = String::new();
    let mut gauges = String::new();
    let mut histograms = String::new();
    for (key, metric) in registry.snapshot_federated() {
        match metric {
            Metric::Counter(c) => {
                if !counters.is_empty() {
                    counters.push(',');
                }
                let _ = write!(counters, "{}:{}", json_string(&key), c.get());
            }
            Metric::Gauge(g) => {
                if !gauges.is_empty() {
                    gauges.push(',');
                }
                let _ = write!(gauges, "{}:{}", json_string(&key), json_f64(g.get()));
            }
            Metric::Histogram(h) => {
                if !histograms.is_empty() {
                    histograms.push(',');
                }
                let _ = write!(
                    histograms,
                    "{}:{{\"count\":{},\"sum_micros\":{},\"max_micros\":{},\
                     \"p50_micros\":{},\"p90_micros\":{},\"p99_micros\":{}}}",
                    json_string(&key),
                    h.count(),
                    h.sum_micros(),
                    h.max_micros(),
                    h.quantile_micros(0.50),
                    h.quantile_micros(0.90),
                    h.quantile_micros(0.99),
                );
            }
        }
    }
    format!("{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}")
}

/// Render the collector's span buffer in the Chrome `trace_event`
/// format (JSON object form, complete `"ph":"X"` events, µs
/// timestamps): load the file at `chrome://tracing` or
/// <https://ui.perfetto.dev> to see the solve as a flamegraph.
#[must_use]
pub fn chrome_trace_json(collector: &Collector) -> String {
    let mut events = String::new();
    let args = collector.span_args();
    for e in collector.events() {
        if !events.is_empty() {
            events.push(',');
        }
        let _ = write!(
            events,
            "{{\"name\":{},\"cat\":\"aa\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
            json_string(e.name),
            e.start_micros,
            e.duration_micros,
            e.thread_id,
            e.id,
            e.parent_id,
        );
        write_args(&mut events, args.get(&e.id).into_iter().flatten().copied());
        events.push_str("}}");
    }
    format!(
        "{{\"traceEvents\":[{events}],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{{\"dropped_events\":{}}}}}",
        collector.dropped_events()
    )
}

/// One process lane of a merged (multi-process) Chrome trace: the
/// front-end is lane/pid 1; each worker incarnation gets its own pid
/// and a human-readable label (`worker 2 pid 4242`).
#[derive(Clone, Debug)]
pub struct TraceLane {
    /// The `pid` every event in this lane renders under.
    pub pid: u32,
    /// Lane label, emitted as `process_name` metadata.
    pub label: String,
    /// The lane's span events, ids already remapped into the shared id
    /// space and timestamps already clock-aligned by the caller.
    pub events: Vec<LaneEvent>,
}

/// One span event inside a [`TraceLane`]. Unlike [`crate::SpanEvent`] the name
/// is owned (it crossed a process boundary) and the event carries the
/// trace id it belongs to (0 when untraced).
#[derive(Clone, Debug)]
pub struct LaneEvent {
    /// Span name.
    pub name: String,
    /// Start, µs in the *front-end* collector's clock domain.
    pub start_micros: u64,
    /// Duration, µs.
    pub duration_micros: u64,
    /// Originating thread id (lane-local).
    pub thread_id: u64,
    /// Span id, unique across the whole merged trace.
    pub id: u64,
    /// Parent span id in the merged id space; 0 for roots.
    pub parent_id: u64,
    /// The request trace this span belongs to; 0 for untraced spans.
    pub trace_id: u64,
    /// The span's named numbers ([`crate::SpanGuard::set_args`]).
    pub args: Vec<(String, u64)>,
}

/// Render a multi-process fleet trace in the Chrome `trace_event`
/// format: one `pid` lane per entry in `lanes` (named via
/// `process_name` metadata events), complete `"ph":"X"` events
/// otherwise identical in shape to [`chrome_trace_json`], and the
/// fleet-wide dropped-span count in `otherData`. The single-process
/// exporter is untouched — its `pid:1` contract is pinned by CI.
#[must_use]
pub fn chrome_trace_merged(lanes: &[TraceLane], dropped_total: u64) -> String {
    let mut events = String::new();
    for lane in lanes {
        if !events.is_empty() {
            events.push(',');
        }
        let _ = write!(
            events,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            lane.pid,
            json_string(&lane.label),
        );
        for e in &lane.events {
            let _ = write!(
                events,
                ",{{\"name\":{},\"cat\":\"aa\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"trace\":{}",
                json_string(&e.name),
                e.start_micros,
                e.duration_micros,
                lane.pid,
                e.thread_id,
                e.id,
                e.parent_id,
                e.trace_id,
            );
            write_args(&mut events, e.args.iter().map(|(k, v)| (k.as_str(), *v)));
            events.push_str("}}");
        }
    }
    format!(
        "{{\"traceEvents\":[{events}],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{{\"dropped_events\":{dropped_total}}}}}"
    )
}

/// Append a span's named numbers to its open `args` object.
fn write_args<'a>(out: &mut String, args: impl Iterator<Item = (&'a str, u64)>) {
    for (name, value) in args {
        let _ = write!(out, ",{}:{value}", json_string(name));
    }
}

/// Escape a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f64` as a JSON number (JSON has no NaN/Inf: emit null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Bind `addr` and serve `registry` over HTTP on a detached thread:
/// `GET /metrics` → Prometheus text, `GET /metrics.json` → JSON
/// snapshot. Returns the actual bound address (so `…:0` picks a free
/// port). The thread runs until the process exits.
///
/// # Errors
/// Propagates the bind failure.
pub fn spawn_metrics_server(
    addr: &str,
    registry: &'static Registry,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new()
        .name("aa-metrics".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // One tiny request at a time; a scrape endpoint needs
                // no concurrency and must never take down the server.
                let _ = handle_scrape(stream, registry);
            }
        })?;
    Ok(local)
}

fn handle_scrape(stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so well-behaved clients see a clean close.
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 && line != "\r\n" && line != "\n" {
        line.clear();
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            prometheus_text(registry),
        ),
        "/metrics.json" => ("200 OK", "application/json", json_snapshot(registry)),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_covers_all_kinds() {
        let r = Registry::new();
        r.counter("aa_solve_total").add(3);
        r.gauge("aa_queue_depth").set(2.0);
        let h = r.histogram("aa_latency_micros");
        h.record_micros(5);
        h.record_micros(1_500);
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE aa_solve_total counter"), "{text}");
        assert!(text.contains("aa_solve_total 3"), "{text}");
        assert!(text.contains("aa_queue_depth 2"), "{text}");
        assert!(text.contains("# TYPE aa_latency_micros histogram"), "{text}");
        assert!(text.contains("aa_latency_micros_bucket{le=\"5\"} 1"), "{text}");
        // Cumulative by the 2000 µs boundary, and the +Inf closing sample.
        assert!(text.contains("aa_latency_micros_bucket{le=\"2000\"} 2"), "{text}");
        assert!(text.contains("aa_latency_micros_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("aa_latency_micros_sum 1505"), "{text}");
        assert!(text.contains("aa_latency_micros_count 2"), "{text}");
    }

    #[test]
    fn labeled_histogram_places_label_before_le() {
        let r = Registry::new();
        r.histogram_labeled("aa_tier_micros", "tier", "algo2").record_micros(10);
        let text = prometheus_text(&r);
        assert!(
            text.contains("aa_tier_micros_bucket{tier=\"algo2\",le=\"10\"} 1"),
            "{text}"
        );
        assert!(text.contains("aa_tier_micros_sum{tier=\"algo2\"} 10"), "{text}");
    }

    #[test]
    fn prometheus_text_includes_federated_worker_series() {
        let r = Registry::new();
        r.counter("aa_fleet_dispatched_total").add(2);
        let h = crate::Histogram::default();
        h.record_micros(50);
        let mut snap = crate::FederatedSnapshot::default();
        snap.counters.push(("aa_serve_solved_total".into(), 9));
        snap.histograms.push(crate::FederatedHistogram {
            key: "aa_serve_tier_solve_micros{tier=\"algo2\"}".into(),
            buckets: h.bucket_counts(),
            count: h.count(),
            sum_micros: h.sum_micros(),
            max_micros: h.max_micros(),
        });
        r.merge_worker_snapshot("3", snap);
        let text = prometheus_text(&r);
        assert!(text.contains("aa_serve_solved_total{worker=\"3\"} 9"), "{text}");
        assert!(
            text.contains(
                "aa_serve_tier_solve_micros_bucket{tier=\"algo2\",worker=\"3\",le=\"50\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains("aa_serve_tier_solve_micros_count{tier=\"algo2\",worker=\"fleet\"} 1"),
            "{text}"
        );
        let json = json_snapshot(&r);
        assert!(json.contains("\"aa_serve_solved_total{worker=\\\"3\\\"}\":9"), "{json}");
    }

    #[test]
    fn merged_chrome_trace_renders_one_lane_per_pid() {
        let lanes = vec![
            TraceLane {
                pid: 1,
                label: "front-end".into(),
                events: vec![LaneEvent {
                    name: "request".into(),
                    start_micros: 100,
                    duration_micros: 900,
                    thread_id: 1,
                    id: 7,
                    parent_id: 0,
                    trace_id: 42,
                    args: Vec::new(),
                }],
            },
            TraceLane {
                pid: 4242,
                label: "worker 0 pid 4242".into(),
                events: vec![LaneEvent {
                    name: "fleet_solve".into(),
                    start_micros: 300,
                    duration_micros: 500,
                    thread_id: 2,
                    id: (1u64 << 40) | 3,
                    parent_id: 7,
                    trace_id: 42,
                    args: vec![("threads".into(), 512)],
                }],
            },
        ];
        let json = chrome_trace_merged(&lanes, 5);
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"name\":\"worker 0 pid 4242\""), "{json}");
        assert!(json.contains("\"pid\":4242"), "{json}");
        assert!(json.contains("\"parent\":7"), "{json}");
        assert!(json.contains("\"trace\":42"), "{json}");
        assert!(json.contains("\"trace\":42,\"threads\":512}"), "{json}");
        assert!(json.contains("\"dropped_events\":5"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let r = Registry::new();
        r.counter("aa_a_total").inc();
        r.gauge("aa_b").set(1.25);
        r.histogram("aa_c_micros").record_micros(42);
        let json = json_snapshot(&r);
        assert!(json.contains("\"aa_a_total\":1"), "{json}");
        assert!(json.contains("\"aa_b\":1.25"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"p99_micros\":42"), "{json}");
        // Braces balance — cheap structural sanity without a parser.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close, "{json}");
    }
}
