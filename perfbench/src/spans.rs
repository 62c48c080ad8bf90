//! The traced run's span recorder, kept in the benchmark's own code.
//!
//! Each span has a name, start, end and parent, and carries the id of the
//! op it belongs to. Spans are buffered per thread and taken at the end of
//! a run, so recording costs one `Instant::now()` pair and a `Vec` push.
//! Nothing is recorded unless [`set_enabled`] turned recording on, which
//! only the `--trace 1` run does.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens span `name` of op `op` under the thread's innermost open span.
pub fn span(name: &'static str, op: u64) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let idx = SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Span {
            name,
            op,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
        });
        s.len() - 1
    });
    STACK.with(|s| s.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            SPANS.with(|s| s.borrow_mut()[idx].end_ns = end);
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Runs `f` inside span `name` of op `op`.
pub fn timed<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    let _g = span(name, op);
    f()
}

/// Takes the calling thread's recorded spans. Parent indices refer to the
/// returned vector.
pub fn take() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Per-name totals over a set of spans from one thread.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Inclusive nanoseconds per span name.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Self nanoseconds (duration minus child spans) per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Folds one thread's spans into the ledger.
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            *self.total_ns.entry(s.name).or_default() += s.dur_ns();
            *self.self_ns.entry(s.name).or_default() += s.dur_ns().saturating_sub(child);
        }
    }

    /// Inclusive milliseconds in `name`, per `ops`.
    pub fn ms_per(&self, name: &str, ops: usize) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / ops.max(1) as f64
    }

    /// Share of `root` time not covered by any child span, in percent.
    pub fn unattributed_pct(&self, root: &str) -> f64 {
        let total = self.total_ns.get(root).copied().unwrap_or(0);
        let own = self.self_ns.get(root).copied().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            100.0 * own as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "op",
                op: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                op: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                op: 0,
                parent: Some(0),
                start_ns: 50,
                end_ns: 90,
            },
            Span {
                name: "c",
                op: 0,
                parent: Some(2),
                start_ns: 60,
                end_ns: 70,
            },
        ];
        let mut l = Ledger::default();
        l.add(&spans);
        assert_eq!(l.self_ns["op"], 30);
        assert_eq!(l.self_ns["b"], 30);
        assert_eq!(l.total_ns["b"], 40);
        assert!((l.unattributed_pct("op") - 30.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_spans_per_thread() {
        set_enabled(true);
        {
            let _op = span("op", 7);
            timed("leaf", 7, || ());
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        drop(span("ignored", 0));
        assert!(take().is_empty());
    }
}
