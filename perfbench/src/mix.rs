//! The closed-loop mix: passes of one query per Table-I type under every
//! strategy, with result checks and the counters each metric needs.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use collab::{PreparedCollabQuery, StrategyKind};
use minidb::profile::{OperatorKind, OperatorStats};
use minidb::{Table, Value};

use crate::env::{Env, Spec, INSERT_CYCLE, INSERT_ROWS, QUERIES_PER_TYPE};
use crate::trace::{Spans, Tracing};

/// Samples by `[strategy][type]`, strategies in `StrategyKind::all()`
/// order. The queries of one type differ only in the model variant they
/// call, which costs the same, so their samples pool.
pub type Grid = [[Vec<f64>; 4]; 4];

/// The sum over the four types of a statistic of each type's samples: the
/// cost of one pass of the mix.
pub fn per_pass(grid: &Grid, s: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    grid[s].iter().map(|v| stat(v)).sum()
}

/// The operators `minidb.op_self_ms.<op>` and `minidb.rows_out.<op>`
/// report.
pub const OPERATORS: [(OperatorKind, &str); 9] = [
    (OperatorKind::Scan, "scan"),
    (OperatorKind::Filter, "filter"),
    (OperatorKind::Project, "project"),
    (OperatorKind::Join, "join"),
    (OperatorKind::GroupBy, "group_by"),
    (OperatorKind::JoinAggregate, "join_aggregate"),
    (OperatorKind::Sort, "sort"),
    (OperatorKind::UdfEval, "udf_eval"),
    (OperatorKind::Insert, "insert"),
];

/// Everything one run of the mix measured.
#[derive(Default)]
pub struct Tally {
    /// Whether the layer counters are collected (the traced run).
    layers: bool,
    pub passes: usize,
    /// Passes after which the (query, table state) sequence repeats; the
    /// exact counts are taken over the first period.
    pub period: usize,
    pub latency: Grid,
    pub loading: Grid,
    pub inference: Grid,
    pub relational: Grid,
    /// Latency timed here minus the strategy's own breakdown total.
    pub unattributed: Grid,
    /// Latency of the same operations with minidb's collector on.
    pub traced_latency: Grid,
    /// First-period sums per strategy.
    pub requested_flops: [f64; 4],
    pub executed_flops: [f64; 4],
    pub memo_lookups: [f64; 4],
    pub cross_system_bytes: [f64; 4],
    pub statements: [u64; 4],
    /// Totals over every measured operation.
    pub memo: cachekit::StatsSnapshot,
    pub artifact: cachekit::StatsSnapshot,
    pub plan: cachekit::StatsSnapshot,
    pub retries: u64,
    pub fallbacks: u64,
    /// Per entry of `OPERATORS`: self time over all passes, rows out over
    /// the first period.
    pub op_self_ns: [u64; OPERATORS.len()],
    pub op_rows_out: [u64; OPERATORS.len()],
    pub bytes_not_materialized: u64,
    pub pool_regions: u64,
    pub pool_tasks: u64,
    pub pool_busy_ns: u64,
    pub measured_wall_ns: u64,
    pub insert_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Reference result digest per (type, slot in the period): the first
    /// result seen, which every later result for the same query and table
    /// state must match.
    reference: HashMap<(usize, usize), u64>,
    /// Digest of the reference results of the first period.
    pub digest: u64,
    pub problems: Vec<String>,
}

/// Point-in-time layer counters: minidb's operator profiler and the
/// task pool's scheduler statistics.
struct Layers {
    ops: Vec<(OperatorKind, OperatorStats)>,
    pool: taskpool::PoolStats,
}

impl Layers {
    fn take(env: &Env) -> Self {
        Layers { ops: env.db().profiler().snapshot(), pool: taskpool::stats() }
    }

    fn op(&self, kind: OperatorKind) -> OperatorStats {
        self.ops.iter().find(|(k, _)| *k == kind).map(|(_, v)| *v).unwrap_or_default()
    }
}

impl Tally {
    /// Counts one failed operation, keeping the first few descriptions.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Compares a result with the reference for its query and table state.
    fn check(&mut self, key: (usize, usize), got: u64, kind: StrategyKind) {
        let want = *self.reference.entry(key).or_insert(got);
        if got != want {
            let (t, slot) = key;
            self.fail(format!("{} t{} (slot {slot}) returned another result", kind.label(), t + 1));
        }
    }

    fn take_layers(&self, env: &Env) -> Option<Layers> {
        self.layers.then(|| Layers::take(env))
    }

    /// Adds the layer counters between two snapshots; row and work counts
    /// only in the first period, where they are exact.
    fn add_layers(&mut self, before: Option<Layers>, env: &Env, first: bool) {
        let Some(before) = before else { return };
        let after = Layers::take(env);
        for (i, (kind, _)) in OPERATORS.iter().enumerate() {
            let (b, a) = (before.op(*kind), after.op(*kind));
            self.op_self_ns[i] += a.total.saturating_sub(b.total).as_nanos() as u64;
            if first {
                self.op_rows_out[i] += a.rows_out - b.rows_out;
                self.bytes_not_materialized += a.bytes_not_materialized - b.bytes_not_materialized;
            }
        }
        self.pool_busy_ns += after.pool.busy_nanos - before.pool.busy_nanos;
        if first {
            self.pool_regions += after.pool.regions - before.pool.regions;
            self.pool_tasks += after.pool.tasks - before.pool.tasks;
        }
    }

    /// Runs one INSERT batch, timing it.
    fn insert(&mut self, env: &Env, sql: &str, spans: &Spans, first: bool) {
        self.attempted += 1;
        let before = self.take_layers(env);
        let span = spans.open("minidb.execute:insert");
        let t = Instant::now();
        let out = env.db().execute(sql);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        spans.close(span);
        self.add_layers(before, env, first);
        match out {
            Ok(r) if r.rows_affected() == INSERT_ROWS => self.insert_ms.push(ms),
            Ok(r) => self.fail(format!("INSERT affected {} rows", r.rows_affected())),
            Err(e) => self.fail(format!("INSERT failed: {e}")),
        }
    }

    fn restore_fabric(&mut self, env: &Env) {
        if let Err(e) = env.restore_fabric() {
            self.fail(format!("restoring fabric failed: {e}"));
        }
    }
}

/// Canonical form of a result table (rows rendered, floats to six
/// places, sorted), the comparison the repository's end-to-end tests use.
pub fn canonical(table: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..table.num_rows())
        .map(|r| {
            (0..table.num_columns())
                .map(|c| match table.column(c).value(r) {
                    Value::Float64(f) => format!("{f:.6}"),
                    v => v.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

/// FNV-1a digest of a table's canonical form.
pub fn digest(table: &Table) -> u64 {
    cachekit::fnv1a(canonical(table).join("\n").as_bytes())
}

/// Flops of one forward pass of the model behind `nudf`.
fn flops_per_inference(env: &Env, nudf: &str) -> u64 {
    let spec = env.engine.repo().require(nudf).expect("mix nUDFs are registered");
    let clock = neuro::SimClock::new();
    let probe = neuro::Tensor::zeros(spec.model.input_shape.clone());
    spec.model.forward_with_clock(&probe, Some(&clock)).expect("model runs on its input shape");
    clock.flops()
}

fn lcm(a: usize, b: usize) -> usize {
    let gcd = |mut x: usize, mut y: usize| {
        while y != 0 {
            (x, y) = (y, x % y);
        }
        x
    };
    a / gcd(a, b) * b
}

/// Runs passes until `seconds` have passed and at least one period is
/// complete. With `tracing`, every operation also runs a second time with
/// minidb's collector on, and the layer counters are collected.
pub fn run(
    env: &Env,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    tracing: Option<&Tracing>,
    spans: &Spans,
) -> Tally {
    let kinds = StrategyKind::all();
    let prepared: Vec<Vec<PreparedCollabQuery<'_>>> = env
        .mix
        .iter()
        .map(|qs| qs.iter().map(|q| env.engine.prepare(&q.sql).expect("mix parses")).collect())
        .collect();
    let fpi: Vec<Vec<u64>> = env
        .mix
        .iter()
        .map(|qs| qs.iter().map(|q| flops_per_inference(env, &q.nudfs[0])).collect())
        .collect();
    let mut tally = Tally {
        layers: tracing.is_some(),
        period: if spec.ingest { lcm(QUERIES_PER_TYPE, INSERT_CYCLE) } else { QUERIES_PER_TYPE },
        ..Default::default()
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut first_period_refs = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut op_no = 0u64;
    let mut pass = 0;
    while pass < tally.period || Instant::now() < deadline {
        let slot = pass % tally.period;
        let first = pass < tally.period;
        let pass_span = spans.open_with("pass", &pass.to_string());
        if spec.ingest {
            if pass > 0 && pass % INSERT_CYCLE == 0 {
                tally.restore_fabric(env);
            }
            tally.insert(env, &env.insert_sql(spec, seed, pass % INSERT_CYCLE), spans, first);
        }
        for t in 0..4 {
            let qi = pass % QUERIES_PER_TYPE;
            let query = &prepared[t][qi];
            for (s, &kind) in kinds.iter().enumerate() {
                op_no += 1;
                let what = format!("{}:t{}", kind.label(), t + 1);
                let before = tally.take_layers(env);
                let span = spans.open_with(&format!("collab.run:{what}"), &format!("op={op_no}"));
                let t0 = Instant::now();
                let out = query.run(kind);
                let wall = t0.elapsed();
                spans.close(span);
                tally.add_layers(before, env, first);
                tally.attempted += 1;
                let out = match out {
                    Ok(out) => out,
                    Err(e) => {
                        tally.fail(format!("{what} failed: {e}"));
                        continue;
                    }
                };
                let b = &out.breakdown;
                tally.latency[s][t].push(ms(wall));
                tally.loading[s][t].push(ms(b.loading));
                tally.inference[s][t].push(ms(b.inference));
                tally.relational[s][t].push(ms(b.relational));
                tally.unattributed[s][t].push(ms(wall) - ms(b.total()));
                let c = &out.cache;
                tally.memo = tally.memo.merge(c.inference);
                tally.artifact = tally.artifact.merge(c.artifact);
                tally.plan = tally.plan.merge(c.plan);
                tally.retries += u64::from(out.governance.retries);
                tally.fallbacks += u64::from(out.governance.fell_back_from.is_some());
                tally.measured_wall_ns += wall.as_nanos() as u64;
                if first {
                    tally.executed_flops[s] += out.sim.inference_flops as f64;
                    tally.requested_flops[s] +=
                        (out.sim.inference_flops + c.inference.hits * fpi[t][qi]) as f64;
                    tally.memo_lookups[s] += (c.inference.hits + c.inference.misses) as f64;
                    tally.cross_system_bytes[s] += out.sim.cross_system_bytes as f64;
                }
                if out.governance.retries > 0 || out.governance.fell_back_from.is_some() {
                    tally.fail(format!("{what} needed a retry or fallback"));
                }
                tally.check((t, slot), digest(&out.table), kind);
                if first && s == 0 {
                    first_period_refs.push(tally.reference[&(t, slot)]);
                }

                if let Some(tr) = tracing {
                    let name = format!("collab.run_traced:{what}");
                    let span = spans.open_with(&name, &format!("op={op_no}"));
                    tr.begin(Some(s), op_no);
                    let t0 = Instant::now();
                    let out = query.run(kind);
                    let wall = t0.elapsed();
                    tr.end();
                    spans.close(span);
                    tally.attempted += 1;
                    match out {
                        Ok(out) => {
                            tally.traced_latency[s][t].push(ms(wall));
                            tally.check((t, slot), digest(&out.table), kind);
                        }
                        Err(e) => tally.fail(format!("traced {what} failed: {e}")),
                    }
                }
            }
        }
        if !spec.ingest {
            // The write probe of the read-only workloads: one cycle of
            // INSERT batches, then the generated table back, so every
            // pass reads the same data.
            let span = spans.open("insert_probe");
            for batch in 0..INSERT_CYCLE {
                tally.insert(env, &env.insert_sql(spec, seed, batch), spans, first);
            }
            tally.restore_fabric(env);
            spans.close(span);
        }
        spans.close(pass_span);
        pass += 1;
        if pass == tally.period {
            if let Some(tr) = tracing {
                tally.statements = tr.fold().statements;
            }
        }
    }
    tally.passes = pass;
    let refs: Vec<u8> = first_period_refs.iter().flat_map(|d| d.to_le_bytes()).collect();
    tally.digest = cachekit::fnv1a(&refs);
    tally
}
