//! Tracing for the per-layer run: the benchmark's own spans around its
//! calls into each crate, and a fold of the span trees minidb's collector
//! hands back. Everything stays in memory until [`write_out`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use minidb::Database;
use obs::{Collector, OpAgg, SpanId, SpanKind, SpanTree};

/// Minidb trees kept verbatim for the trace file; every tree is folded.
const KEPT_TREES: usize = 256;

/// The benchmark's own span stack. With tracing off every span is
/// `SpanId::NONE` and recording costs nothing.
pub struct Spans {
    collector: Collector,
    root: SpanId,
    stack: RefCell<Vec<SpanId>>,
}

impl Spans {
    pub fn new(enabled: bool, name: &str) -> Self {
        let collector = Collector::new();
        let root = if enabled { collector.start_root(name) } else { SpanId::NONE };
        Spans { collector, root, stack: RefCell::new(Vec::new()) }
    }

    /// Opens a span under the innermost open one.
    pub fn open(&self, name: &str) -> SpanId {
        self.open_with(name, "")
    }

    pub fn open_with(&self, name: &str, detail: &str) -> SpanId {
        let parent = self.stack.borrow().last().copied().unwrap_or(self.root);
        let id = self.collector.child(parent, SpanKind::Phase, name, detail);
        self.stack.borrow_mut().push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&self, id: SpanId) {
        let top = self.stack.borrow_mut().pop();
        assert_eq!(top, Some(id), "benchmark spans close in LIFO order");
        self.collector.finish(id);
    }

    fn take(&self) -> Option<SpanTree> {
        if self.root.is_none() {
            return None;
        }
        self.collector.finish(self.root);
        Some(self.collector.take_tree(self.root))
    }
}

/// What the fold of minidb's span trees accumulates.
#[derive(Default)]
pub struct Fold {
    /// Strategy index and operation number the next trees belong to.
    pub current: Option<(usize, u64)>,
    /// Statements (`query` trees) per strategy.
    pub statements: [u64; 4],
    /// Inclusive time and count of each statement phase (plan, execute).
    pub phases: HashMap<String, (u64, u64)>,
    /// Operator spans folded by name.
    pub operators: HashMap<String, OpAgg>,
    kept: Vec<(Option<u64>, SpanTree)>,
}

impl Fold {
    fn add(&mut self, tree: &SpanTree) {
        let Some(root) = tree.root() else { return };
        if tree.record(root).name == "query" {
            if let Some((s, _)) = self.current {
                self.statements[s] += 1;
            }
            for &c in tree.children(root) {
                let e = self.phases.entry(tree.record(c).name.clone()).or_default();
                e.0 += tree.inclusive_ns(c);
                e.1 += 1;
            }
        }
        tree.fold_operators(&mut self.operators);
        if self.kept.len() < KEPT_TREES {
            self.kept.push((self.current.map(|(_, op)| op), tree.clone()));
        }
    }

    /// Mean inclusive microseconds of a statement phase.
    pub fn phase_us(&self, name: &str) -> f64 {
        self.phases.get(name).map_or(0.0, |&(ns, n)| ns as f64 / n as f64 / 1e3)
    }
}

/// minidb's collector with a sink folding every tree it extracts.
pub struct Tracing {
    db: Arc<Database>,
    fold: Arc<Mutex<Fold>>,
}

impl Tracing {
    pub fn install(db: &Arc<Database>) -> Self {
        let fold = Arc::new(Mutex::new(Fold::default()));
        let sink = Arc::clone(&fold);
        db.tracer().set_sink(Some(Arc::new(move |tree: &SpanTree| {
            sink.lock().unwrap_or_else(PoisonError::into_inner).add(tree)
        })));
        Tracing { db: Arc::clone(db), fold }
    }

    /// Enables the collector for one operation of strategy `strategy`.
    pub fn begin(&self, strategy: Option<usize>, op: u64) {
        self.fold().current = strategy.map(|s| (s, op));
        self.db.tracer().enable();
    }

    pub fn end(&self) {
        self.db.tracer().disable();
        self.fold().current = None;
    }

    pub fn fold(&self) -> MutexGuard<'_, Fold> {
        self.fold.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Tracing {
    fn drop(&mut self) {
        self.db.tracer().disable();
        self.db.tracer().set_sink(None);
    }
}

/// Writes the benchmark's span tree, the kept minidb trees and the
/// operator fold as JSON lines: one line per span, with its tree, its
/// parent's index in that tree, and the benchmark operation it ran under.
pub fn write_out(path: &std::path::Path, spans: &Spans, tracing: &Tracing) -> std::io::Result<()> {
    let mut out = String::new();
    if let Some(tree) = spans.take() {
        push_tree(&mut out, "perfbench", 0, None, &tree);
    }
    let fold = tracing.fold();
    for (i, (op, tree)) in fold.kept.iter().enumerate() {
        push_tree(&mut out, "minidb", i + 1, *op, tree);
    }
    let mut ops: Vec<_> = fold.operators.iter().collect();
    ops.sort_by(|a, b| a.0.cmp(b.0));
    for (name, a) in ops {
        let _ = writeln!(
            out,
            "{{\"fold\":\"minidb_operators\",\"name\":{},\"self_ns\":{},\"busy_ns\":{},\"loops\":{},\"rows_in\":{},\"rows_out\":{},\"bytes_not_materialized\":{}}}",
            json_str(name),
            a.self_ns,
            a.busy_ns,
            a.loops,
            a.rows_in,
            a.rows_out,
            a.bytes_not_materialized
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn push_tree(out: &mut String, source: &str, tree_no: usize, op: Option<u64>, tree: &SpanTree) {
    let mut parent = vec![None; tree.len()];
    for i in 0..tree.len() {
        for &c in tree.children(i) {
            parent[c] = Some(i);
        }
    }
    for (i, (r, parent)) in tree.records().iter().zip(&parent).enumerate() {
        let _ = writeln!(
            out,
            "{{\"source\":\"{source}\",\"tree\":{tree_no},\"op\":{},\"span\":{i},\"parent\":{},\"kind\":\"{}\",\"name\":{},\"detail\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"rows_out\":{}}}",
            op.map_or("null".to_string(), |o| o.to_string()),
            parent.map_or("null".to_string(), |p| p.to_string()),
            r.kind.label(),
            json_str(&r.name),
            json_str(&r.detail),
            r.start_ns,
            r.end_ns,
            tree.exclusive_ns(i),
            r.rows_out
        );
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
