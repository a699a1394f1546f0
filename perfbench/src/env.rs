//! The three workloads, their set-up, and the generated inputs.

use std::sync::Arc;
use std::time::Instant;

use collab::{CollabEngine, QueryType, StrategyKind};
use minidb::{Database, Table};
use workload::{
    build_dataset, build_repo, generate_benchmark, BenchmarkConfig, DatasetConfig, DatasetSummary,
    QuerySpec, RepoConfig,
};

use crate::stats::{derive, Rng};
use crate::trace::Spans;

/// One workload: the dataset size, predicate selectivity and engine
/// configuration a closed-loop, single-client run replays the Table-I mix
/// over. `NOTES.md` gives the reasons for each choice.
pub struct Spec {
    pub name: &'static str,
    pub videos: usize,
    pub selectivity: f64,
    /// Plan cache, nUDF memo and compiled-artifact reuse on, and warmed
    /// during set-up.
    pub caches: bool,
    pub parallelism: usize,
    /// Each pass INSERTs a batch of fabric rows before its queries.
    pub ingest: bool,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "table1_cold",
        videos: 120,
        selectivity: 0.0001,
        caches: false,
        parallelism: 1,
        ingest: false,
    },
    Spec {
        name: "table1_warm",
        videos: 2000,
        selectivity: 0.01,
        caches: true,
        parallelism: 1,
        ingest: false,
    },
    Spec {
        name: "table1_ingest",
        videos: 5000,
        selectivity: 0.01,
        caches: true,
        parallelism: 2,
        ingest: true,
    },
];

/// Distinct queries generated per Table-I type; pass `p` runs query
/// `p % QUERIES_PER_TYPE` of each type.
pub const QUERIES_PER_TYPE: usize = 4;
/// Model variants the query generator draws each task from. Two keep
/// the warm-up (which infers every keyframe each variant is asked about)
/// within a few seconds at 5 000 videos.
pub const VARIANTS: usize = 2;
/// Fabric rows per INSERT statement.
pub const INSERT_ROWS: usize = 16;
/// INSERT batches after which the fabric table is restored to its
/// generated contents, which bounds table growth and makes the sequence
/// of table states repeat.
pub const INSERT_CYCLE: usize = 8;
const MEMO_CAPACITY: usize = 1 << 16;
const ARTIFACT_CAPACITY: usize = 64;
/// Warm-up order: the cheapest inference path first, so the memo is
/// filled by DB-UDF and DB-PyTorch forward passes rather than by SQL
/// programs.
const WARMUP_ORDER: [StrategyKind; 4] = [
    StrategyKind::LooseUdf,
    StrategyKind::Independent,
    StrategyKind::TightOptimized,
    StrategyKind::Tight,
];

/// Index of a Table-I type (0 for Type 1 … 3 for Type 4).
pub fn type_index(t: QueryType) -> usize {
    match t {
        QueryType::Type1 => 0,
        QueryType::Type2 => 1,
        QueryType::Type3 => 2,
        QueryType::Type4 => 3,
    }
}

/// Metric-name key of a strategy.
pub fn strategy_key(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::Tight => "dl2sql",
        StrategyKind::TightOptimized => "dl2sql_op",
        StrategyKind::LooseUdf => "db_udf",
        StrategyKind::Independent => "db_pytorch",
    }
}

/// A set-up workload.
pub struct Env {
    pub engine: CollabEngine,
    /// The generated mix, `QUERIES_PER_TYPE` queries per type, by type.
    pub mix: [Vec<QuerySpec>; 4],
    pub summary: DatasetSummary,
    pub dataset_seed: u64,
    /// The generated fabric table, restored every `INSERT_CYCLE` batches.
    pub fabric: Table,
}

/// Wall times of one set-up.
pub struct SetupTimes {
    pub dataset_ms: f64,
    pub repo_ms: f64,
    pub warmup_ms: f64,
    pub total_s: f64,
}

impl Env {
    pub fn db(&self) -> &Arc<Database> {
        self.engine.db()
    }

    /// Puts back the generated fabric table.
    pub fn restore_fabric(&self) -> minidb::Result<()> {
        self.db().catalog().replace_table("fabric", self.fabric.clone())
    }

    /// The INSERT statement of batch `batch`: fabric rows whose transIDs
    /// point at existing videos. Row `j` falls in the date window of the
    /// Type 1, 2 and 4 predicates when `j` is even and passes the humidity
    /// gate of Type 3 when `j % 4 == 3`, half of those also its
    /// temperature test; so every batch changes every query's result by
    /// the same amount of work whatever the seed.
    pub fn insert_sql(&self, spec: &Spec, seed: u64, batch: usize) -> String {
        use workload::dataset::{humidity_threshold_for_selectivity, DATE_EPOCH, DATE_SPAN_DAYS};
        let mut rng = Rng::new(derive(seed, 0x1A5E_0000 + batch as u64));
        let s = &self.summary;
        let window = ((spec.selectivity * DATE_SPAN_DAYS as f64).ceil() as u64).max(1);
        let gate = humidity_threshold_for_selectivity(spec.selectivity);
        let epoch = minidb::value::parse_date(DATE_EPOCH).expect("epoch parses");
        let rows: Vec<String> = (0..INSERT_ROWS)
            .map(|j| {
                let day = if j % 2 == 0 {
                    rng.below(window)
                } else {
                    window + rng.below(DATE_SPAN_DAYS as u64 - window)
                };
                let humidity =
                    if j % 4 == 3 { rng.range(gate, 100.0) } else { rng.range(50.0, gate) };
                let temperature =
                    if j % 8 < 4 { rng.range(30.5, 45.0) } else { rng.range(20.0, 29.5) };
                format!(
                    "({}, {}, {:.3}, '{}', {:.4}, {:.3}, {}, {})",
                    rng.below(s.fabric_rows as u64),
                    rng.below(8),
                    rng.range(0.5, 30.0),
                    minidb::value::format_date(epoch + day as i32),
                    humidity,
                    temperature,
                    rng.below(s.order_rows as u64),
                    rng.below(s.device_rows as u64),
                )
            })
            .collect();
        format!("INSERT INTO fabric VALUES {}", rows.join(", "))
    }
}

/// Builds the dataset, the model repository and the engine, and with
/// caches on warms them with one run of every mix query under every
/// strategy. Returns the canonical warm-up results in run order.
pub fn setup(spec: &Spec, seed: u64, spans: &Spans) -> Result<(Env, SetupTimes, Vec<u64>), String> {
    let started = Instant::now();
    let span = spans.open("setup");
    // The engine sets the process-wide kernel pool to the database's
    // parallelism; set it first so every set-up builds the repository
    // under the same pool.
    taskpool::set_default_parallelism(spec.parallelism);
    let db = Arc::new(
        Database::builder()
            .parallelism(spec.parallelism)
            .plan_cache_capacity(if spec.caches { 64 } else { 0 })
            .build(),
    );
    let dataset_seed = derive(seed, 1);
    let config =
        DatasetConfig { video_rows: spec.videos, seed: dataset_seed, ..Default::default() };
    let t = Instant::now();
    let s = spans.open("workload.build_dataset");
    let summary = build_dataset(&db, &config).map_err(|e| format!("dataset: {e}"))?;
    spans.close(s);
    let dataset_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let s = spans.open("workload.build_repo");
    let repo = build_repo(&RepoConfig::default());
    spans.close(s);
    let repo_ms = t.elapsed().as_secs_f64() * 1e3;

    let s = spans.open("collab.engine_new");
    let engine = CollabEngine::new(db, repo);
    if spec.caches {
        engine.set_inference_cache_capacity(MEMO_CAPACITY);
        engine.set_artifact_cache_capacity(ARTIFACT_CAPACITY);
    }
    spans.close(s);
    let fabric = (*engine.db().catalog().table("fabric").expect("dataset has fabric")).clone();

    let queries = generate_benchmark(&BenchmarkConfig {
        queries_per_type: QUERIES_PER_TYPE,
        selectivity: spec.selectivity,
        seed: derive(seed, 2),
        variants: VARIANTS,
    });
    let mut mix: [Vec<QuerySpec>; 4] = Default::default();
    for q in queries {
        mix[type_index(q.qtype)].push(q);
    }
    let env = Env { engine, mix, summary, dataset_seed, fabric };

    let t = Instant::now();
    let mut warm = Vec::new();
    if spec.caches {
        let s = spans.open("collab.warmup");
        for kind in WARMUP_ORDER {
            for q in env.mix.iter().flatten() {
                let out = env
                    .engine
                    .execute(&q.sql, kind)
                    .map_err(|e| format!("warm-up {} failed: {e}", kind.label()))?;
                warm.push(crate::mix::digest(&out.table));
            }
        }
        spans.close(s);
    }
    let warmup_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.close(span);
    let total_s = started.elapsed().as_secs_f64();
    Ok((env, SetupTimes { dataset_ms, repo_ms, warmup_ms, total_s }, warm))
}
