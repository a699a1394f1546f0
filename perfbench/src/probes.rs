//! Layer probes: direct, untraced timings of one call into `neuro`,
//! `dl2sql` and `minidb`, on the workload's detect model and keyframes,
//! so a kernel change shows in its own layer even where the mix hides it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use collab::StrategyKind;
use dl2sql::{compile_model, NeuralRegistry, Runner, StepKind};
use minidb::Database;

use crate::env::{Env, Spec};
use crate::mix::{digest, Tally};
use crate::stats::median;
use crate::trace::{Spans, Tracing};

const PROBE_MODEL: &str = "nUDF_detect";
const FORWARD_KEYFRAMES: usize = 32;
const FORWARD_ROUNDS: usize = 3;
const COMPILES: usize = 5;
const INFERS: usize = 16;

pub struct Probes {
    pub forward_us: f64,
    pub compile_ms: f64,
    pub infer_ms: f64,
    pub conv_share: f64,
    pub parse_us: f64,
}

/// The dataset's own keyframes, evenly spaced over its videos.
fn keyframes(env: &Env, n: usize) -> Vec<neuro::Tensor> {
    let shape = workload::DatasetConfig::default().keyframe_shape;
    let videos = env.summary.video_rows as u64;
    (0..n as u64)
        .map(|i| workload::dataset::keyframe(&shape, env.dataset_seed, i * videos / n as u64))
        .collect()
}

pub fn run(env: &Env, spec: &Spec, tally: &mut Tally, tracing: &Tracing, spans: &Spans) -> Probes {
    let model = Arc::clone(
        &env.engine.repo().require(PROBE_MODEL).expect("repository has the detect model").model,
    );
    let frames = keyframes(env, FORWARD_KEYFRAMES);

    let span = spans.open("neuro.forward");
    let mut forward_us = Vec::new();
    for _ in 0..FORWARD_ROUNDS {
        for kf in &frames {
            let t = Instant::now();
            black_box(model.forward(black_box(kf)).expect("forward on a dataset keyframe"));
            forward_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    spans.close(span);

    // DL2SQL: compile into a database of the workload's configuration,
    // then infer keyframes through the compiled SQL program.
    let db =
        Arc::new(Database::builder().parallelism(spec.parallelism).plan_cache_capacity(0).build());
    let registry = NeuralRegistry::shared();
    let mut compile_ms = Vec::new();
    let mut compiled = None;
    for _ in 0..COMPILES {
        let span = spans.open("core.compile_model");
        let t = Instant::now();
        let c = compile_model(&db, &registry, &model).expect("detect model compiles");
        compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        spans.close(span);
        compiled = Some(c);
    }
    let runner = Runner::new(Arc::clone(&db), registry, Arc::new(compiled.expect("compiled once")))
        .expect("runner prepares");
    let (mut infer_ms, mut conv_ns, mut step_ns) = (Vec::new(), 0u128, 0u128);
    for kf in frames.iter().take(INFERS) {
        let span = spans.open("core.infer");
        let t = Instant::now();
        let out = runner.infer(kf).expect("SQL inference on a dataset keyframe");
        infer_ms.push(t.elapsed().as_secs_f64() * 1e3);
        spans.close(span);
        for s in &out.step_timings {
            step_ns += s.duration.as_nanos();
            if s.kind == StepKind::Conv {
                conv_ns += s.duration.as_nanos();
            }
        }
    }

    // minidb: each mix query with DB-UDF's nUDFs bound, parsed here and
    // executed as a statement with the collector on, so its plan and
    // execute phases and operators land in the fold. The result must
    // match DB-UDF's own.
    let mut parse_us = Vec::new();
    for q in env.mix.iter().flatten() {
        tally.attempted += 1;
        let want = match env.engine.execute(&q.sql, StrategyKind::LooseUdf) {
            Ok(out) => digest(&out.table),
            Err(e) => {
                tally.fail(format!("probe DB-UDF run failed: {e}"));
                continue;
            }
        };
        tally.attempted += 1;
        let span = spans.open("minidb.parse");
        let t = Instant::now();
        let stmt = minidb::sql::parser::parse_statement(&q.sql);
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        spans.close(span);
        let span = spans.open("minidb.execute_statement");
        tracing.begin(None, 0);
        let got = stmt.map_err(|e| e.to_string()).and_then(|s| {
            env.db().execute_statement(&s).map(|r| digest(r.table())).map_err(|e| e.to_string())
        });
        tracing.end();
        spans.close(span);
        if got.as_ref() != Ok(&want) {
            tally.fail(format!("probe statement disagreed with DB-UDF: {got:?}"));
        }
    }

    Probes {
        forward_us: median(&forward_us),
        compile_ms: median(&compile_ms),
        infer_ms: median(&infer_ms),
        conv_share: if step_ns == 0 { 0.0 } else { conv_ns as f64 / step_ns as f64 },
        parse_us: median(&parse_us),
    }
}
