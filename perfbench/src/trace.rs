//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its name, start, end, parent span and the request (unit of
//! work) it belongs to. Spans stay in memory until the run ends, when they
//! are written out as TSV. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::common::timed;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// One thread's span recorder. Disabled tracers record nothing and add no
/// work beyond the closure call.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    enabled: bool,
    open: Vec<u64>,
    spans: Vec<Span>,
    probes: u64,
}

/// Request ids of [`Tracer::probe`] calls start above every client request
/// id.
const PROBE_REQUESTS: u64 = 1 << 48;

impl Tracer {
    /// A recorder whose span ids start at `id_base` (give each thread its
    /// own base so merged ids stay unique) and whose times count from
    /// `epoch`.
    pub fn new(epoch: Instant, id_base: u64, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            next_id: id_base,
            enabled,
            open: Vec::new(),
            spans: Vec::new(),
            probes: 0,
        }
    }

    /// Run `f` as a request of its own: a span named `name` under a fresh
    /// request id. Returns `f`'s value and the call's wall time in seconds.
    pub fn probe<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.probes += 1;
        self.span(name, PROBE_REQUESTS + self.probes, |_| timed(f))
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        value
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in seconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            let mut cursor = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            (span.id, own as f64 / 1e9)
        })
        .collect()
}

/// Per-request total duration of the spans named `name`, in seconds, one
/// entry per request that has such a span.
pub fn per_request(spans: &[Span], name: &str) -> Vec<f64> {
    let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
    for span in spans.iter().filter(|span| span.name == name) {
        *totals.entry(span.request).or_insert(0.0) += span.seconds();
    }
    totals.into_values().collect()
}

/// Self time summed by span name over the spans of `requests` (all spans
/// when `None`).
pub fn self_by_name(spans: &[Span], requests: Option<&[u64]>) -> BTreeMap<String, f64> {
    let own = self_times(spans);
    let mut by_name = BTreeMap::new();
    for span in spans {
        if requests.is_some_and(|keep| !keep.contains(&span.request)) {
            continue;
        }
        *by_name.entry(span.name.clone()).or_insert(0.0) += own[&span.id];
    }
    by_name
}

/// Render a self-time table: each name's share of the total.
pub fn render_self_table(title: &str, by_name: &BTreeMap<String, f64>) -> Vec<String> {
    let total: f64 = by_name.values().sum();
    let mut rows: Vec<(&String, &f64)> = by_name.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    let mut lines = vec![format!("self time, {title} (total {total:.4} s):")];
    for (name, seconds) in rows {
        let share = if total > 0.0 { seconds / total } else { 0.0 };
        lines.push(format!(
            "  {name:<44} {seconds:>10.4} s {:>6.1}%",
            share * 100.0
        ));
    }
    lines
}

/// Write every span as TSV (`id parent request name start_ns end_ns self_ns`).
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let own = self_times(spans);
    let mut out = Vec::new();
    writeln!(
        out,
        "# id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns"
    )
    .expect("writing to a Vec cannot fail");
    for span in spans {
        let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            span.id,
            span.request,
            span.name,
            span.start_ns,
            span.end_ns,
            (own[&span.id] * 1e9) as u64
        )
        .expect("writing to a Vec cannot fail");
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
