//! Spans and counters recorded by the benchmark around its calls into the
//! workspace crates. Nothing here reaches into a crate: a span covers one
//! public call as the benchmark makes it.
//!
//! Spans are kept in memory and written as JSONL when the run ends. A
//! span's layer is its name up to the first `.` (`atpg.podem_test` belongs
//! to `atpg`); spans the benchmark opens for its own bookkeeping (`round`,
//! `op`, `gate`) belong to the layer `bench`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span. Parents always precede their children.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn layer(&self) -> &'static str {
        self.name
            .split_once('.')
            .map_or("bench", |(layer, _)| layer)
    }
}

/// Returned by [`Tracer::enter`]; `None` when tracing is off.
#[must_use]
pub struct SpanId(Option<usize>);

/// Span recorder plus named counters.
///
/// Spans are recorded only while tracing is on, so an untraced round pays
/// one branch per call. Counters are always kept: they are deterministic
/// work counts and cost an addition.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        self.exit_as(id, None);
    }

    /// Closes a span, renaming it when its outcome decides the name (a
    /// PODEM call is a `podem_test`, `podem_untestable` or `podem_aborted`
    /// only once it has returned).
    pub fn exit_as(&mut self, id: SpanId, name: Option<&'static str>) {
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed();
        if let Some(name) = name {
            span.name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.counters.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The index of each span's root span.
    pub fn roots(&self) -> Vec<usize> {
        let mut roots = Vec::with_capacity(self.spans.len());
        for (i, span) in self.spans.iter().enumerate() {
            let root = span.parent.map_or(i, |p| roots[p]);
            roots.push(root);
        }
        roots
    }

    /// Writes every span as one JSON object per line after a `host` line.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        workload: &str,
        host: &str,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{host}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
            )?;
        }
        out.flush()
    }
}

/// Span totals over the rounds that ran traced: per name, per layer (self
/// time) and per-call samples, each divided by the traced round count so
/// that a round is the unit whatever the run length.
pub struct SpanTotals {
    rounds: f64,
    by_name: BTreeMap<&'static str, (f64, u64)>,
    self_by_layer: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl SpanTotals {
    /// Aggregates the spans under root spans named `round`.
    pub fn of_rounds(tracer: &Tracer) -> Self {
        let spans = tracer.spans();
        let roots = tracer.roots();
        let in_round = |i: usize| spans[roots[i]].name == "round";
        let mut child_secs = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut totals = SpanTotals {
            rounds: 0.0,
            by_name: BTreeMap::new(),
            self_by_layer: BTreeMap::new(),
            samples: BTreeMap::new(),
        };
        for (i, s) in spans.iter().enumerate() {
            if !in_round(i) {
                continue;
            }
            if s.parent.is_none() {
                totals.rounds += 1.0;
            }
            let entry = totals.by_name.entry(s.name).or_insert((0.0, 0));
            entry.0 += s.secs();
            entry.1 += 1;
            *totals.self_by_layer.entry(s.layer()).or_insert(0.0) += s.secs() - child_secs[i];
            totals.samples.entry(s.name).or_default().push(s.secs());
        }
        totals
    }

    fn per_round(&self, x: f64) -> f64 {
        if self.rounds > 0.0 {
            x / self.rounds
        } else {
            0.0
        }
    }

    /// Seconds per round spent in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.per_round(self.by_name.get(name).map_or(0.0, |e| e.0))
    }

    /// Calls per round to spans named `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.per_round(self.by_name.get(name).map_or(0.0, |e| e.1 as f64))
    }

    /// Seconds per round of `layer`'s own work (children subtracted).
    pub fn self_secs(&self, layer: &str) -> f64 {
        self.per_round(self.self_by_layer.get(layer).copied().unwrap_or(0.0))
    }

    /// Median duration in seconds of one span named `name`.
    pub fn median_secs(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .map_or(0.0, |v| crate::stats::quantile(v, 0.5))
    }
}
