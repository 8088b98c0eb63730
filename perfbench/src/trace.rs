//! Outside-in tracing: spans recorded by the benchmark around the
//! public calls it makes into each layer, kept in memory and written as
//! JSON lines when the run ends.
//!
//! A span has a name, a start and end (ns since the tracer was
//! created), the span that caused it, and the id of the workload run it
//! belongs to. Nested [`Tracer::span`] calls take the innermost open
//! span as their parent; leg spans from [`TracingLauncher`] overlap and
//! hang off the span open when the leg was launched.

use std::cell::RefCell;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use resilience_core::campaign::dispatch::LegStatus;
use resilience_core::campaign::{Launcher, Leg, ShardSpec};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    run: String,
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(run: impl Into<String>) -> Self {
        Self {
            run: run.into(),
            epoch: crate::sys::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn current(&self) -> Option<usize> {
        self.open.borrow().last().copied()
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(SpanRec {
                id,
                parent: self.current(),
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    /// Records a span whose interval was measured elsewhere.
    fn record(&self, name: String, parent: Option<usize>, start_ns: u64, end_ns: u64) {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Completed spans whose name starts with `prefix`.
    pub fn find(&self, prefix: &str) -> Vec<SpanRec> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = Vec::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\": \"{}\", \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                self.run, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        fs::write(path, out)
    }
}

/// A [`Launcher`] that records a span per launch call and one per leg
/// lifetime (launch until the first poll that sees it exit).
pub struct TracingLauncher<L> {
    pub inner: L,
    pub tracer: Rc<Tracer>,
}

impl<L: Launcher> Launcher for TracingLauncher<L> {
    fn launch(&self, spec: ShardSpec, attempt: u32) -> io::Result<Box<dyn Leg>> {
        let parent = self.tracer.current();
        let start = self.tracer.now_ns();
        let leg = self.inner.launch(spec, attempt)?;
        self.tracer.record(
            format!("dispatch.launch {spec}"),
            parent,
            start,
            self.tracer.now_ns(),
        );
        Ok(Box::new(TracingLeg {
            inner: leg,
            tracer: Rc::clone(&self.tracer),
            name: format!("dispatch.leg {spec}"),
            parent,
            start,
            ended: false,
        }))
    }
}

struct TracingLeg {
    inner: Box<dyn Leg>,
    tracer: Rc<Tracer>,
    name: String,
    parent: Option<usize>,
    start: u64,
    ended: bool,
}

impl TracingLeg {
    fn end(&mut self, suffix: &str) {
        if !self.ended {
            self.ended = true;
            let name = format!("{}{suffix}", self.name);
            self.tracer
                .record(name, self.parent, self.start, self.tracer.now_ns());
        }
    }
}

impl Leg for TracingLeg {
    fn poll(&mut self) -> io::Result<LegStatus> {
        let status = self.inner.poll()?;
        if let LegStatus::Exited { .. } = status {
            self.end("");
        }
        Ok(status)
    }

    fn kill(&mut self) -> io::Result<()> {
        self.end(" killed");
        self.inner.kill()
    }
}
