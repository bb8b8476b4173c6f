//! Lightweight structured spans.
//!
//! A span is entered with [`crate::span!`] and records, on drop, a
//! fixed-size [`SpanEvent`] — name, enter/exit timestamps relative to
//! the collector epoch, a per-thread id and a parent link — into the
//! installed [`Collector`]'s preallocated buffer.
//!
//! Cost model, because this wraps the solver hot path:
//!
//! * **no collector installed / disabled**: one relaxed atomic load and
//!   a branch per span — effectively free, and `SpanGuard` carries no
//!   state (`active: None`).
//! * **collector live**: two `Instant::now()` calls, two thread-local
//!   `Cell` updates, and one push into a `Mutex`-guarded `Vec` that was
//!   preallocated at install time. **No heap allocation** on any record
//!   path (span names are `&'static str`) but that of a span that sets
//!   named numbers ([`SpanGuard::set_args`]), which pushes them on a side
//!   list; when the buffer is full new events are counted in
//!   `dropped_events` and discarded rather than growing the buffer.
//!
//! Parent links are tracked per thread (a thread-local current-span
//! cell), so spans opened on pool worker threads start a fresh chain on
//! that thread — exactly how a Chrome trace renders them (one lane per
//! thread id).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default span-buffer capacity (events) for [`Collector::install`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A span's named numbers ([`SpanGuard::set_args`]): up to three
/// `(name, value)` pairs; a pair named `""` is unused.
pub type SpanArgs = [(&'static str, u64); 3];

/// One completed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static — recording never allocates).
    pub name: &'static str,
    /// Microseconds from the collector epoch to span entry.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
    /// Dense per-process thread id (assigned on each thread's first span).
    pub thread_id: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the span active on this thread at entry; 0 for roots.
    pub parent_id: u64,
}

/// The process-wide span collector. Installed at most once; recording
/// compiles down to a no-op check when it is absent or disabled.
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    enabled: AtomicBool,
    next_span_id: AtomicU64,
    dropped: AtomicU64,
    events: Mutex<EventBuf>,
    capacity: usize,
}

/// The span buffer plus a monotonic drain base: `base` counts events
/// that have left the front of `events` (via [`Collector::drain_through`]
/// or [`Collector::clear`]), so event `events[i]` has the stable global
/// index `base + i`. Cursors handed out by [`Collector::events_since`]
/// are global indices and stay valid across drains.
///
/// The few spans that set named numbers keep them in `args`, by global
/// index and in order, rather than in their [`SpanEvent`], so a span
/// that sets none records no more than it did without them.
#[derive(Debug)]
struct EventBuf {
    events: Vec<SpanEvent>,
    base: u64,
    args: Vec<(u64, SpanArgs)>,
}

static COLLECTOR: OnceLock<Collector> = OnceLock::new();
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

impl Collector {
    /// Install the global collector (enabled, [`DEFAULT_CAPACITY`]
    /// events) and return it. Idempotent: later calls return the
    /// already-installed collector unchanged.
    pub fn install() -> &'static Collector {
        Collector::install_with_capacity(DEFAULT_CAPACITY)
    }

    /// Install with an explicit span-buffer capacity. The buffer is
    /// fully preallocated here so the record path never grows it.
    pub fn install_with_capacity(capacity: usize) -> &'static Collector {
        COLLECTOR.get_or_init(|| Collector {
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            next_span_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            events: Mutex::new(EventBuf {
                events: Vec::with_capacity(capacity),
                base: 0,
                args: Vec::new(),
            }),
            capacity,
        })
    }

    /// The installed collector, if any.
    #[must_use]
    pub fn get() -> Option<&'static Collector> {
        COLLECTOR.get()
    }

    /// Turn span recording on or off. Metrics handles are unaffected;
    /// this gates only the trace buffer and the solver-side
    /// [`crate::record_enabled`] fast path.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is recording currently on?
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Events dropped because the buffer was full.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out the recorded (undrained) events, in completion order.
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner).events.clone()
    }

    /// Events with global index `>= cursor` plus the next cursor (the
    /// global index one past the last returned event). A shipper that
    /// starts at cursor 0 and always feeds the returned cursor back in
    /// sees every buffered event exactly once — events are never
    /// re-sent and never skipped (a full buffer counts drops in
    /// [`Collector::dropped_events`] instead of overwriting). A cursor
    /// behind the drain base yields from the oldest retained event.
    #[must_use]
    pub fn events_since(&self, cursor: u64) -> (Vec<SpanEvent>, u64) {
        let buf = self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let start = usize::try_from(cursor.saturating_sub(buf.base))
            .unwrap_or(buf.events.len())
            .min(buf.events.len());
        let tail = buf.events[start..].to_vec();
        (tail, buf.base + buf.events.len() as u64)
    }

    /// Drop events with global index `< cursor` from the front of the
    /// buffer, freeing capacity for new spans. Call after the events up
    /// to `cursor` (from [`Collector::events_since`]) have been shipped.
    pub fn drain_through(&self, cursor: u64) {
        let mut buf = self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let n = usize::try_from(cursor.saturating_sub(buf.base))
            .unwrap_or(buf.events.len())
            .min(buf.events.len());
        if n > 0 {
            buf.events.drain(..n);
            buf.base += n as u64;
            let base = buf.base;
            let gone = buf.args.partition_point(|&(at, _)| at < base);
            buf.args.drain(..gone);
        }
    }

    /// The named numbers ([`SpanGuard::set_args`]) of the recorded
    /// (undrained) spans that set some, by span id, unused slots left
    /// out.
    #[must_use]
    pub fn span_args(&self) -> HashMap<u64, Vec<(&'static str, u64)>> {
        let buf = self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        buf.args
            .iter()
            .map(|(at, args)| {
                let named = args.iter().copied().filter(|(name, _)| !name.is_empty());
                (buf.events[(at - buf.base) as usize].id, named.collect())
            })
            .collect()
    }

    /// Number of recorded (undrained) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner).events.len()
    }

    /// Is the buffer empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard all recorded events (capacity is retained). Advances the
    /// drain base so [`Collector::events_since`] cursors stay monotonic.
    pub fn clear(&self) {
        let mut buf = self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        buf.base += buf.events.len() as u64;
        buf.events.clear();
        buf.args.clear();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Microseconds from the collector epoch to now — the clock that
    /// timestamps every span, exposed so cross-process traces can be
    /// aligned by exchanging "my now" at handshake time.
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        self.micros_since_epoch(Instant::now())
    }

    /// Microseconds from the collector epoch to `at` (saturating at 0
    /// for instants before the epoch).
    #[must_use]
    pub fn micros_at(&self, at: Instant) -> u64 {
        if at < self.epoch {
            return 0;
        }
        self.micros_since_epoch(at)
    }

    /// Allocate a span id without recording anything — for spans whose
    /// id must be known up front (a request span propagated to workers
    /// at dispatch) but whose duration is only known at completion.
    /// Pair with [`Collector::record_prealloc`].
    #[must_use]
    pub fn alloc_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span under a previously allocated id (see
    /// [`Collector::alloc_span_id`]) with explicit timestamps.
    pub fn record_prealloc(
        &self,
        id: u64,
        name: &'static str,
        start_micros: u64,
        duration_micros: u64,
        parent_id: u64,
    ) {
        self.record(
            SpanEvent {
                name,
                start_micros,
                duration_micros,
                thread_id: thread_id(),
                id,
                parent_id,
            },
            None,
        );
    }

    /// Record a span with explicit timestamps, bypassing the RAII
    /// guard. For phase spans reconstructed after the fact (a front-end
    /// marking queue-wait or wire time around an already-completed
    /// request). Allocates and returns the span id; `parent_id` 0 makes
    /// it a root.
    pub fn record_manual(
        &self,
        name: &'static str,
        start_micros: u64,
        duration_micros: u64,
        parent_id: u64,
    ) -> u64 {
        let id = self.alloc_span_id();
        self.record_prealloc(id, name, start_micros, duration_micros, parent_id);
        id
    }

    fn record(&self, event: SpanEvent, args: Option<SpanArgs>) {
        let mut buf = self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if buf.events.len() < self.capacity {
            if let Some(args) = args {
                let at = buf.base + buf.events.len() as u64;
                buf.args.push((at, args));
            }
            buf.events.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn micros_since_epoch(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }
}

/// Is a collector installed *and* enabled? One `OnceLock` load plus one
/// relaxed atomic load — the gate every instrumentation site sits
/// behind.
#[must_use]
pub fn recording() -> bool {
    Collector::get().is_some_and(Collector::is_enabled)
}

fn thread_id() -> u64 {
    THREAD_ID.with(|tid| {
        let id = tid.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        tid.set(id);
        id
    })
}

/// RAII guard for one span: created by [`crate::span!`], records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    collector: &'static Collector,
    name: &'static str,
    start: Instant,
    id: u64,
    parent_id: u64,
    args: Option<SpanArgs>,
}

impl SpanGuard {
    /// This span's id, or `None` for an inert guard. Lets a caller that
    /// opened a probe span find its children in the event buffer later
    /// (events carry `parent_id`).
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }

    /// Enter a span named `name`. Inert (and free) when no collector is
    /// installed or recording is disabled.
    #[must_use]
    pub fn enter(name: &'static str) -> SpanGuard {
        let Some(collector) = Collector::get().filter(|c| c.is_enabled()) else {
            return SpanGuard { active: None };
        };
        let id = collector.next_span_id.fetch_add(1, Ordering::Relaxed);
        let parent_id = CURRENT_SPAN.with(|cur| cur.replace(id));
        SpanGuard {
            active: Some(ActiveSpan {
                collector,
                name,
                start: Instant::now(),
                id,
                parent_id,
                args: None,
            }),
        }
    }

    /// Attach named numbers to the span, recorded when it closes. A
    /// no-op on an inert guard.
    pub fn set_args(&mut self, args: SpanArgs) {
        if let Some(active) = &mut self.active {
            active.args = Some(args);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        let end = Instant::now();
        CURRENT_SPAN.with(|cur| cur.set(active.parent_id));
        let start_micros = active.collector.micros_since_epoch(active.start);
        let end_micros = active.collector.micros_since_epoch(end);
        active.collector.record(
            SpanEvent {
                name: active.name,
                start_micros,
                duration_micros: end_micros.saturating_sub(start_micros),
                thread_id: thread_id(),
                id: active.id,
                parent_id: active.parent_id,
            },
            active.args,
        );
    }
}

/// Enter a span: `let _span = aa_obs::span!("superopt");`. The span
/// closes when the guard drops. No-op unless a collector is installed
/// and enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global, so all span behavior is covered
    // by one test body (sibling tests would race on install/enable).
    #[test]
    fn spans_nest_and_record() {
        let collector = Collector::install_with_capacity(16);
        collector.clear();
        collector.set_enabled(true);
        {
            let _outer = crate::span!("outer");
            let _inner = crate::span!("inner");
        }
        let events = collector.events();
        assert_eq!(events.len(), 2, "{events:?}");
        // Inner drops first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[0].parent_id, events[1].id, "inner's parent is outer");
        assert_eq!(events[1].parent_id, 0, "outer is a root");
        assert_eq!(events[0].thread_id, events[1].thread_id);
        assert!(events[0].start_micros >= events[1].start_micros);

        // Disabled ⇒ inert guards, nothing recorded.
        collector.set_enabled(false);
        assert!(!recording());
        {
            let _off = crate::span!("off");
        }
        assert_eq!(collector.len(), 2);

        // Full buffer ⇒ drop-new, counted.
        collector.set_enabled(true);
        for _ in 0..40 {
            let _s = crate::span!("fill");
        }
        assert_eq!(collector.len(), 16);
        assert!(collector.dropped_events() > 0);
        collector.clear();
        assert!(collector.is_empty());
        assert_eq!(collector.dropped_events(), 0);

        // Cursor API: events_since + drain_through never re-send or
        // lose events, and clear() keeps cursors monotonic.
        let (_, cursor0) = collector.events_since(0);
        {
            let _a = crate::span!("ship_a");
        }
        {
            let mut b = crate::span!("ship_b");
            b.set_args([("threads", 4), ("carried", 3), ("", 9)]);
        }
        let (batch1, cursor1) = collector.events_since(cursor0);
        assert_eq!(batch1.iter().map(|e| e.name).collect::<Vec<_>>(), ["ship_a", "ship_b"]);
        assert_eq!(cursor1, cursor0 + 2);
        // Only the span that set numbers has them, unused slots left out.
        let args = collector.span_args();
        assert_eq!(args.len(), 1);
        assert_eq!(args[&batch1[1].id], [("threads", 4), ("carried", 3)]);
        collector.drain_through(cursor1);
        assert!(collector.is_empty(), "drained events leave the buffer");
        assert!(collector.span_args().is_empty(), "drained args leave with their events");
        let (batch_again, cursor_same) = collector.events_since(cursor1);
        assert!(batch_again.is_empty(), "nothing re-sent after a drain");
        assert_eq!(cursor_same, cursor1);
        {
            let _c = crate::span!("ship_c");
        }
        let (batch2, cursor2) = collector.events_since(cursor1);
        assert_eq!(batch2.len(), 1);
        assert_eq!(batch2[0].name, "ship_c");
        assert_eq!(cursor2, cursor1 + 1);
        // A stale cursor (behind the drain base) yields the oldest
        // retained events rather than panicking or skipping ahead.
        let (from_zero, _) = collector.events_since(0);
        assert_eq!(from_zero.len(), 1);
        collector.clear();
        let (_, cursor3) = collector.events_since(0);
        assert!(cursor3 >= cursor2, "clear() keeps cursors monotonic");

        // Manual spans land in the buffer with a fresh id and the
        // caller-supplied parent link and timestamps.
        let parent = collector.record_manual("request", 10, 500, 0);
        let child = collector.record_manual("queue_wait", 10, 40, parent);
        assert_ne!(parent, 0);
        assert_ne!(child, parent);
        let manual = collector.events();
        assert_eq!(manual.len(), 2);
        assert_eq!(manual[1].parent_id, parent);
        assert_eq!((manual[0].start_micros, manual[0].duration_micros), (10, 500));
        let at = Instant::now();
        assert!(collector.micros_at(at) <= collector.now_micros());
        collector.clear();
    }
}
