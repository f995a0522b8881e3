//! In-memory spans recorded around the benchmark's calls into the
//! program. Nothing inside the program is instrumented: each span
//! covers one call into a crate's public function, or a group of them.

use std::path::Path;
use std::time::Instant;

use simgen_obs::Json;

/// One closed (or still open) span.
pub struct Span {
    pub name: &'static str,
    /// Instance or job the span belongs to.
    pub id: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use]
pub struct SpanId(Option<usize>);

/// Span recorder. A disabled tracer records nothing and costs one
/// branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: impl Into<String>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: id.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: SpanId) {
        if let Some(index) = span.0 {
            let end_ns = self.now_ns();
            assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
            self.spans[index].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as one JSON object per line, preceded by a
    /// header line describing the run.
    pub fn write(&self, path: &Path, header: Json) -> std::io::Result<()> {
        let mut out = header.to_line();
        out.push('\n');
        for (index, s) in self.spans.iter().enumerate() {
            let mut obj = Json::obj();
            obj.push("span", Json::U64(index as u64));
            obj.push("name", Json::Str(s.name.to_string()));
            obj.push("id", Json::Str(s.id.clone()));
            obj.push("start_ns", Json::U64(s.start_ns));
            obj.push("end_ns", Json::U64(s.end_ns));
            obj.push(
                "parent",
                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
            );
            out.push_str(&obj.to_line());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
