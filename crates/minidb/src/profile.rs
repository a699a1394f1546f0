//! Per-operator execution accounting.
//!
//! Paper Fig. 10 breaks a DL2SQL run down by relational clause (Join,
//! GroupBy, Filter, ...). Every operator invocation reports one
//! [`obs::OpMetrics`] value through `ExecContext::record`; that value
//! feeds the operator's span and the running statement's
//! [`StatementStats`]. When the statement ends, its stats are folded once
//! into the database-wide [`Profiler`], which harnesses snapshot per
//! layer/run. Statements running at the same time therefore never see each
//! other's counters.

use std::collections::HashMap;
use std::time::Duration;

use parking_lot::Mutex;

/// The operator categories reported by paper Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OperatorKind {
    Scan,
    Filter,
    Project,
    Join,
    GroupBy,
    /// Fused join + group-by: the probe folds aggregate partials directly,
    /// so its time belongs to neither `Join` nor `GroupBy` alone.
    JoinAggregate,
    Sort,
    Limit,
    Update,
    Insert,
    CreateTable,
    UdfEval,
}

impl OperatorKind {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            OperatorKind::Scan => "Scan",
            OperatorKind::Filter => "Filter",
            OperatorKind::Project => "Project",
            OperatorKind::Join => "Join",
            OperatorKind::GroupBy => "GroupBy",
            OperatorKind::JoinAggregate => "JoinAggregate",
            OperatorKind::Sort => "Sort",
            OperatorKind::Limit => "Limit",
            OperatorKind::Update => "Update",
            OperatorKind::Insert => "Insert",
            OperatorKind::CreateTable => "CreateTable",
            OperatorKind::UdfEval => "UdfEval",
        }
    }
}

/// Accumulated time and invocation count for one operator kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorStats {
    /// Wall-clock time across invocations (children excluded).
    pub total: Duration,
    pub invocations: u64,
    pub rows_out: u64,
    /// Summed per-worker busy time. Close to `total` when the morsels ran
    /// on one worker; larger when they ran on several (the busy/total
    /// ratio is the operator's effective parallelism).
    pub busy: Duration,
    /// Input rows consumed (recorded by operators that report it; the
    /// fused join–aggregate counts both join inputs here).
    pub rows_in: u64,
    /// Bytes of intermediate output the operator *avoided* materializing
    /// (the fused join–aggregate's (pixel × weight) table).
    pub bytes_not_materialized: u64,
}

impl OperatorStats {
    fn add(&mut self, other: &OperatorStats) {
        self.total += other.total;
        self.invocations += other.invocations;
        self.rows_out += other.rows_out;
        self.busy += other.busy;
        self.rows_in += other.rows_in;
        self.bytes_not_materialized += other.bytes_not_materialized;
    }
}

/// Operator and plan-cache counters, keyed by operator kind.
#[derive(Debug, Default)]
struct Totals {
    ops: HashMap<OperatorKind, OperatorStats>,
    plan_cache: cachekit::StatsSnapshot,
}

impl Totals {
    fn rows_out(&self, kind: OperatorKind) -> u64 {
        self.ops.get(&kind).map_or(0, |s| s.rows_out)
    }
}

/// The counters of one running statement. Operators record into it
/// through `ExecContext::record`; [`Profiler::absorb`] folds it into the
/// database-wide totals when the statement ends.
#[derive(Debug, Default)]
pub struct StatementStats {
    totals: Mutex<Totals>,
}

impl StatementStats {
    /// Empty stats for a statement about to run.
    pub fn new() -> Self {
        StatementStats::default()
    }

    /// Records one operator invocation: the same value the operator's span
    /// receives.
    pub(crate) fn record(&self, kind: OperatorKind, m: &obs::OpMetrics) {
        let one = OperatorStats {
            total: Duration::from_nanos(m.self_ns),
            invocations: 1,
            rows_out: m.rows_out,
            busy: Duration::from_nanos(m.busy_ns),
            rows_in: m.rows_in,
            bytes_not_materialized: m.bytes_not_materialized,
        };
        self.totals.lock().ops.entry(kind).or_default().add(&one);
    }

    /// Records one plan-cache lookup for a SELECT going through
    /// `Database::execute` (DDL/DML statements are not counted).
    pub(crate) fn record_plan_cache(&self, hit: bool) {
        let pc = &mut self.totals.lock().plan_cache;
        if hit {
            pc.hits += 1;
        } else {
            pc.misses += 1;
        }
    }

    /// Base-table rows this statement's Scan operators read.
    pub(crate) fn rows_scanned(&self) -> u64 {
        self.totals.lock().rows_out(OperatorKind::Scan)
    }

    /// This statement's plan-cache lookups.
    pub(crate) fn plan_cache(&self) -> cachekit::StatsSnapshot {
        self.totals.lock().plan_cache
    }
}

/// Database-wide totals: the sum of every finished statement's
/// [`StatementStats`].
#[derive(Debug, Default)]
pub struct Profiler {
    totals: Mutex<Totals>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Folds a finished statement's counters into the totals.
    pub(crate) fn absorb(&self, stmt: StatementStats) {
        let stmt = stmt.totals.into_inner();
        let mut totals = self.totals.lock();
        for (kind, s) in &stmt.ops {
            totals.ops.entry(*kind).or_default().add(s);
        }
        totals.plan_cache = totals.plan_cache.merge(stmt.plan_cache);
    }

    /// Accumulated stats for one operator kind, if it ran.
    pub fn stats(&self, kind: OperatorKind) -> Option<OperatorStats> {
        self.totals.lock().ops.get(&kind).copied()
    }

    /// Accumulated output rows for one operator kind (0 when unseen).
    pub fn rows_out(&self, kind: OperatorKind) -> u64 {
        self.totals.lock().rows_out(kind)
    }

    /// A snapshot of all accumulated stats, sorted by kind.
    pub fn snapshot(&self) -> Vec<(OperatorKind, OperatorStats)> {
        let totals = self.totals.lock();
        let mut out: Vec<_> = totals.ops.iter().map(|(k, v)| (*k, *v)).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Total time across all operators.
    pub fn total(&self) -> Duration {
        self.totals.lock().ops.values().map(|s| s.total).sum()
    }

    /// Plan-cache hit/miss counters since the last reset.
    pub fn plan_cache_stats(&self) -> cachekit::StatsSnapshot {
        self.totals.lock().plan_cache
    }

    /// Clears all accumulated stats.
    pub fn reset(&self) {
        *self.totals.lock() = Totals::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(ms: u64, busy_ms: u64, rows_in: u64, rows_out: u64, bytes: u64) -> obs::OpMetrics {
        obs::OpMetrics {
            self_ns: ms * 1_000_000,
            busy_ns: busy_ms * 1_000_000,
            rows_in,
            rows_out,
            bytes_not_materialized: bytes,
        }
    }

    #[test]
    fn records_accumulate_per_kind() {
        let p = Profiler::new();
        let s = StatementStats::new();
        s.record(OperatorKind::Join, &op(5, 5, 0, 100, 0));
        s.record(OperatorKind::Join, &op(7, 7, 0, 50, 0));
        s.record(OperatorKind::Scan, &op(1, 1, 0, 10, 0));
        assert_eq!(s.rows_scanned(), 10);
        p.absorb(s);
        let snap = p.snapshot();
        let join = snap.iter().find(|(k, _)| *k == OperatorKind::Join).unwrap().1;
        assert_eq!(join.invocations, 2);
        assert_eq!(join.rows_out, 150);
        assert_eq!(join.total, Duration::from_millis(12));
        assert_eq!(p.total(), Duration::from_millis(13));
    }

    #[test]
    fn reset_clears() {
        let p = Profiler::new();
        let s = StatementStats::new();
        s.record(OperatorKind::Sort, &op(1, 1, 0, 0, 0));
        p.absorb(s);
        p.reset();
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn plan_cache_counters_accumulate_and_reset() {
        let p = Profiler::new();
        for hits in [vec![false], vec![true, true]] {
            let s = StatementStats::new();
            for &hit in &hits {
                s.record_plan_cache(hit);
            }
            p.absorb(s);
        }
        let s = p.plan_cache_stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        p.reset();
        assert_eq!(p.plan_cache_stats().hits, 0);
    }

    #[test]
    fn labels_cover_all_kinds() {
        assert_eq!(OperatorKind::GroupBy.label(), "GroupBy");
        assert_eq!(OperatorKind::JoinAggregate.label(), "JoinAggregate");
        assert_eq!(OperatorKind::UdfEval.label(), "UdfEval");
    }

    #[test]
    fn fused_records_carry_extra_counters() {
        let p = Profiler::new();
        let s = StatementStats::new();
        s.record(OperatorKind::JoinAggregate, &op(2, 4, 1000, 10, 8192));
        s.record(OperatorKind::JoinAggregate, &op(1, 1, 500, 10, 4096));
        p.absorb(s);
        let s = p.stats(OperatorKind::JoinAggregate).unwrap();
        assert_eq!(s.rows_in, 1500);
        assert_eq!(s.rows_out, 20);
        assert_eq!(s.busy, Duration::from_millis(5));
        assert_eq!(s.bytes_not_materialized, 12288);
        assert_eq!(s.invocations, 2);
    }
}
