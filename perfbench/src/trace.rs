//! The traced run's span recorder and the small statistics the report
//! needs. Spans are kept in memory and written out once, when the run
//! ends, so recording costs one clock read and one `Vec` push.

use std::time::Instant;

use ador_bench::json;

/// One timed region around calls into a layer.
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Calls the span covers (1 unless it aggregates a hot loop).
    calls: u64,
    /// Heap allocations made inside the span.
    allocs: u64,
}

/// In-memory span log of one traced run, on a clock that starts with it.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// An open span; close it with [`Spans::close`].
pub struct Open {
    index: usize,
    allocs_at_open: u64,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: &str, parent: Option<&Open>) -> Open {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: parent.map(|p| p.index),
            start_ns,
            end_ns: start_ns,
            calls: 1,
            allocs: 0,
        });
        Open {
            index: self.spans.len() - 1,
            allocs_at_open: crate::alloc::allocs(),
        }
    }

    /// Closes `open`, crediting it with `calls` calls.
    pub fn close(&mut self, open: Open, calls: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        span.calls = calls;
        span.allocs = crate::alloc::allocs() - open.allocs_at_open;
    }

    /// Records already-measured consecutive phases of `parent` (each
    /// a name, busy ns and call count) as its children, laid end to end
    /// from the parent's start.
    pub fn nest(&mut self, parent: &Open, phases: &[(&str, u64, u64)]) {
        let mut start_ns = self.spans[parent.index].start_ns;
        for &(name, busy_ns, calls) in phases {
            self.spans.push(Span {
                name: name.to_string(),
                parent: Some(parent.index),
                start_ns,
                end_ns: start_ns + busy_ns,
                calls,
                allocs: 0,
            });
            start_ns += busy_ns;
        }
    }

    /// The spans as a JSON array, each with its self time (duration
    /// minus the time its children cover).
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let items: Vec<String> = self
            .spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &children)| {
                let duration = s.end_ns - s.start_ns;
                json::object(&[
                    ("name", json::string(&s.name)),
                    (
                        "parent",
                        s.parent.map_or("null".to_string(), |p| p.to_string()),
                    ),
                    ("start_ns", s.start_ns.to_string()),
                    ("end_ns", s.end_ns.to_string()),
                    ("self_ns", duration.saturating_sub(children).to_string()),
                    ("calls", s.calls.to_string()),
                    ("allocs", s.allocs.to_string()),
                ])
            })
            .collect();
        json::array(&items)
    }
}

pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Nanoseconds elapsed since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile (`q` in 0..=1) of an ascending slice; 0 for
/// an empty one.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sum over aligned segments of each segment's minimum across
/// repetitions; repetitions whose segment count differs from the first's
/// are left out.
pub fn min_per_segment(reps: &[&[u64]]) -> u64 {
    let Some(first) = reps.first() else {
        return 0;
    };
    (0..first.len())
        .map(|k| {
            reps.iter()
                .filter(|r| r.len() == first.len())
                .map(|r| r[k])
                .min()
                .unwrap_or(0)
        })
        .sum()
}

/// Median of a set of measurements (mean of the middle pair for an even
/// count); 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
