//! In-memory spans and counters recorded around the calls into each layer,
//! and the per-trial panic boundary.
//!
//! Every thread keeps its own [`Record`]; the scheduler closure drains it
//! at the end of each unit and hands it back with the unit's trials, so
//! recording never takes a lock. Counters are always kept (they are a
//! handful of map updates per trial); spans only while tracing is on.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off for every thread.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Nanoseconds since the process's first call, the time base of all spans.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`transform`, `interp.run`, ...).
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
    /// Index of the enclosing span in the same record.
    pub parent: Option<u32>,
    /// Ordinal of the trial the span ran for, within its record; `None`
    /// for set-up and per-unit work.
    pub trial: Option<u32>,
}

/// Spans and counters of one unit (or one set-up).
#[derive(Debug, Default)]
pub struct Record {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Summed counters.
    pub counts: BTreeMap<&'static str, u64>,
    /// High-water counters.
    pub maxima: BTreeMap<&'static str, u64>,
}

impl Record {
    /// Appends `other`'s spans, whose trial ordinals are shifted by
    /// `trial_base`, and adds its counters.
    pub fn absorb(&mut self, other: &Record, trial_base: u32) {
        let base = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            trial: s.trial.map(|t| t + trial_base),
            ..s.clone()
        }));
        self.add_counts(other);
    }

    /// Adds `other`'s counters (sums and high-water marks).
    pub fn add_counts(&mut self, other: &Record) {
        for (&k, &v) in &other.counts {
            *self.counts.entry(k).or_default() += v;
        }
        for (&k, &v) in &other.maxima {
            let m = self.maxima.entry(k).or_default();
            *m = (*m).max(v);
        }
    }

    /// A summed counter (0 when never counted).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// A high-water counter (0 when never set).
    pub fn maximum(&self, name: &str) -> u64 {
        self.maxima.get(name).copied().unwrap_or(0)
    }
}

#[derive(Default)]
struct State {
    rec: Record,
    open: Vec<u32>,
    trial: Option<u32>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
    static LAST_PANIC: RefCell<Option<Failure>> = const { RefCell::new(None) };
}

/// Runs `f` inside a span named `name` (just runs it when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !tracing() {
        return f();
    }
    let idx = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let idx = u32::try_from(s.rec.spans.len()).expect("span count fits u32");
        let span = Span {
            name,
            start: now_ns(),
            end: 0,
            parent: s.open.last().copied(),
            trial: s.trial,
        };
        s.rec.spans.push(span);
        s.open.push(idx);
        idx
    });
    let r = f();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.open.pop();
        s.rec.spans[idx as usize].end = now_ns();
    });
    r
}

/// Adds `n` to the counter `name`.
pub fn count(name: &'static str, n: u64) {
    STATE.with(|s| *s.borrow_mut().rec.counts.entry(name).or_default() += n);
}

/// Raises the high-water counter `name` to at least `v`.
pub fn max(name: &'static str, v: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let m = s.rec.maxima.entry(name).or_default();
        *m = (*m).max(v);
    });
}

/// Drains this thread's record.
pub fn take() -> Record {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.open.clear();
        std::mem::take(&mut s.rec)
    })
}

/// A panic caught at a trial boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The panic message.
    pub msg: String,
    /// Source location of the panic (depends on where the code was built,
    /// so it stays out of digests).
    pub at: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}", self.msg, self.at)
    }
}

/// Runs `f` as trial `trial` behind a panic boundary. A panic becomes
/// `Err` with the message and location the silent hook captured; spans
/// the panic left open are closed at the moment it was caught.
pub fn guard<R>(trial: Option<u32>, f: impl FnOnce() -> R) -> Result<R, Failure> {
    let (depth, outer) = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let outer = s.trial;
        s.trial = trial.or(outer);
        (s.open.len(), outer)
    });
    let r = std::panic::catch_unwind(AssertUnwindSafe(f));
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let end = now_ns();
        while s.open.len() > depth {
            let idx = s.open.pop().expect("open span above depth");
            s.rec.spans[idx as usize].end = end;
        }
        s.trial = outer;
    });
    r.map_err(|_| {
        LAST_PANIC
            .with(|p| p.borrow_mut().take())
            .unwrap_or(Failure {
                msg: "panic".into(),
                at: "unknown".into(),
            })
    })
}

/// Replaces the default panic hook with one that prints nothing and keeps
/// the message and location for [`guard`] to report with the trial key.
pub fn install_silent_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let at = info.location().map_or_else(
            || "unknown".into(),
            |l| format!("{}:{}", l.file(), l.line()),
        );
        LAST_PANIC.with(|p| *p.borrow_mut() = Some(Failure { msg, at }));
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_turns_a_panic_into_an_error_and_closes_open_spans() {
        install_silent_panic_hook();
        set_tracing(true);
        let r: Result<(), Failure> = guard(Some(3), || span("outer", || panic!("boom")));
        set_tracing(false);
        let rec = take();
        let err = r.expect_err("the panic is caught");
        assert_eq!(err.msg, "boom");
        assert!(err.at.contains("record.rs"), "{err}");
        assert_eq!(rec.spans.len(), 1);
        assert_eq!(rec.spans[0].trial, Some(3));
        assert!(rec.spans[0].end >= rec.spans[0].start);
        let _ = std::panic::take_hook();
    }
}
