//! End-to-end and per-layer benchmark of the paper's Table-I
//! collaborative query mix under the four strategies (DL2SQL, DL2SQL-OP,
//! DB-UDF, DB-PyTorch).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One closed-loop, single client. Set-up runs `SETUPS` times; the mix
//! runs over the first. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` every operation also runs with minidb's
//! collector on, the layer probes run, and it prints the per-layer
//! metrics and writes the spans to `perfbench/out/`. The last line of
//! standard output is the JSON result. `NOTES.md` explains the workloads
//! and metrics.

mod env;
mod mix;
mod probes;
mod stats;
mod trace;

use std::process::ExitCode;

use collab::StrategyKind;

use env::{setup, strategy_key, Spec, WORKLOADS};
use mix::{per_pass, Tally, OPERATORS};
use stats::{fastest, median, peak_rss_mb, quantile, ratio};
use trace::{json_str, Spans, Tracing};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const USAGE: &str =
    "usage: perfbench --workload <table1_cold|table1_warm|table1_ingest> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let spec =
        WORKLOADS.iter().find(|w| w.name == name).ok_or(format!("unknown workload '{name}'"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not '{t}'")),
    };
    Ok(Args { spec, seed, seconds, trace })
}

/// Collected `(name, value, unit)` metrics.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("{}: {{\"value\": {v:?}, \"unit\": {}}}", json_str(n), json_str(u))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(m: &mut Metrics, tally: &Tally, p: &probes::Probes, tr: &Tracing, env: &env::Env) {
    let kinds = StrategyKind::all();
    let per_period = |x: f64| x / tally.period as f64;
    m.put("neuro.forward_us", p.forward_us, "us");
    m.put("core.compile_ms", p.compile_ms, "ms");
    m.put("core.infer_ms", p.infer_ms, "ms");
    m.put("core.conv_share", p.conv_share, "ratio");
    for (s, kind) in kinds.iter().enumerate() {
        let k = strategy_key(*kind);
        for t in 0..4 {
            m.put(format!("collab.query_ms.t{}.{k}", t + 1), fastest(&tally.latency[s][t]), "ms");
        }
        m.put(format!("collab.loading_ms.{k}"), per_pass(&tally.loading, s, median), "ms");
        m.put(format!("collab.inference_ms.{k}"), per_pass(&tally.inference, s, median), "ms");
        m.put(format!("collab.relational_ms.{k}"), per_pass(&tally.relational, s, median), "ms");
        m.put(
            format!("collab.unattributed_ms.{k}"),
            per_pass(&tally.unattributed, s, median),
            "ms",
        );
        m.put(format!("collab.memo_lookups.{k}"), per_period(tally.memo_lookups[s]), "count");
        m.put(
            format!("collab.executed_mflop.{k}"),
            per_period(tally.executed_flops[s]) / 1e6,
            "MFLOP",
        );
        m.put(format!("collab.mix_ms_p50.{k}"), per_pass(&tally.latency, s, median), "ms");
        m.put(
            format!("collab.mix_ms_p90.{k}"),
            per_pass(&tally.latency, s, |v| quantile(v, 0.9)),
            "ms",
        );
        let samples = tally.latency[s].iter().map(Vec::len).min().unwrap_or(0);
        m.put(format!("collab.mix_samples.{k}"), samples as f64, "count");
    }
    let lookups = |c: cachekit::StatsSnapshot| (c.hits + c.misses) as f64;
    m.put("collab.memo_hit_ratio", ratio(tally.memo.hits as f64, lookups(tally.memo)), "ratio");
    m.put(
        "collab.artifact_hit_ratio",
        ratio(tally.artifact.hits as f64, lookups(tally.artifact)),
        "ratio",
    );
    let pytorch = kinds.iter().position(|k| *k == StrategyKind::Independent).expect("listed");
    m.put(
        "collab.cross_system_mb.db_pytorch",
        per_period(tally.cross_system_bytes[pytorch]) / 1e6,
        "MB",
    );
    m.put("collab.transfer_retries", tally.retries as f64, "count");
    m.put("collab.fallbacks", tally.fallbacks as f64, "count");

    let fold = tr.fold();
    m.put("minidb.parse_us", p.parse_us, "us");
    m.put("minidb.plan_us", fold.phase_us("plan"), "us");
    m.put("minidb.execute_us", fold.phase_us("execute"), "us");
    for (s, kind) in kinds.iter().enumerate() {
        let name = format!("minidb.statements.{}", strategy_key(*kind));
        m.put(name, per_period(tally.statements[s] as f64), "count");
    }
    for (i, (_, op)) in OPERATORS.iter().enumerate() {
        let self_ms = tally.op_self_ns[i] as f64 / tally.passes as f64 / 1e6;
        m.put(format!("minidb.op_self_ms.{op}"), self_ms, "ms");
        m.put(format!("minidb.rows_out.{op}"), per_period(tally.op_rows_out[i] as f64), "count");
    }
    m.put(
        "minidb.bytes_not_materialized",
        per_period(tally.bytes_not_materialized as f64),
        "bytes",
    );
    m.put(
        "minidb.plan_cache_hit_ratio",
        ratio(tally.plan.hits as f64, lookups(tally.plan)),
        "ratio",
    );
    m.put("minidb.catalog_mb", env.db().catalog().total_memory_bytes() as f64 / 1e6, "MB");

    m.put("taskpool.regions", per_period(tally.pool_regions as f64), "count");
    m.put("taskpool.tasks", per_period(tally.pool_tasks as f64), "count");
    let capacity = (tally.measured_wall_ns * env.db().exec_config().parallelism as u64) as f64;
    m.put("taskpool.busy_share", ratio(tally.pool_busy_ns as f64, capacity), "ratio");
    m.put("cachekit.memo_evictions", tally.memo.evictions as f64, "count");
    let untraced: f64 = (0..4).map(|s| per_pass(&tally.latency, s, fastest)).sum();
    let traced: f64 = (0..4).map(|s| per_pass(&tally.traced_latency, s, fastest)).sum();
    m.put("obs.trace_overhead_pct", 100.0 * ratio(traced - untraced, untraced), "%");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    let spans = Spans::new(args.trace, spec.name);
    let fail_setup = |e: String| {
        eprintln!("{}: set-up failed: {e}", spec.name);
        ExitCode::from(1)
    };

    // The first set-up is measured; the others, after the mix, only time
    // set-up again, so the peak RSS covers one set-up and the mix.
    let (env, first, warm) = match setup(spec, args.seed, &spans) {
        Ok(s) => s,
        Err(e) => return fail_setup(e),
    };
    let mut times = vec![first];
    let mut warm_digests = vec![warm];
    let tracing = args.trace.then(|| Tracing::install(env.db()));
    let mut tally = mix::run(&env, spec, args.seed, args.seconds, tracing.as_ref(), &spans);
    let peak_rss = peak_rss_mb();
    let mut m = Metrics::default();
    if let Some(tr) = &tracing {
        let p = probes::run(&env, spec, &mut tally, tr, &spans);
        per_layer(&mut m, &tally, &p, tr, &env);
    }
    let queries = env.mix.iter().map(Vec::len).sum::<usize>();
    drop(env);
    for _ in 1..SETUPS {
        match setup(spec, args.seed, &spans) {
            Ok((_, t, warm)) => {
                times.push(t);
                warm_digests.push(warm);
            }
            Err(e) => return fail_setup(e),
        }
    }

    // The warm-up runs every query under every strategy: the strategies
    // must agree, and every set-up must produce the same results.
    for warm in &warm_digests {
        for (i, d) in warm.iter().enumerate() {
            tally.attempted += 1;
            if *d != warm[i % queries] {
                tally.fail(format!("warm-up result {i} differs between strategies"));
            }
        }
    }
    let setups_agree = warm_digests.windows(2).all(|w| w[0] == w[1]);
    if !setups_agree {
        tally.problems.push("set-ups produced different warm-up results".into());
    }
    let correct = tally.failed == 0 && setups_agree;

    let setup_median =
        |f: fn(&env::SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    if let Some(tr) = &tracing {
        m.put("workload.build_dataset_ms", setup_median(|t| t.dataset_ms), "ms");
        m.put("workload.build_repo_ms", setup_median(|t| t.repo_ms), "ms");
        m.put("workload.warmup_ms", setup_median(|t| t.warmup_ms), "ms");
        let path = std::path::Path::new("perfbench/out")
            .join(format!("trace-{}-{}.jsonl", spec.name, args.seed));
        if let Err(e) = trace::write_out(&path, &spans, tr) {
            eprintln!("writing {} failed: {e}", path.display());
        }
    } else {
        let kinds = StrategyKind::all();
        m.put("setup_s", setup_median(|t| t.total_s), "s");
        for (s, kind) in kinds.iter().enumerate() {
            m.put(
                format!("mix_ms.{}", strategy_key(*kind)),
                per_pass(&tally.latency, s, fastest),
                "ms",
            );
        }
        for (s, kind) in kinds.iter().enumerate() {
            let mflop = tally.requested_flops[s] / tally.period as f64 / 1e6;
            m.put(format!("inference_mflop.{}", strategy_key(*kind)), mflop, "MFLOP");
        }
        m.put("success_rate", 1.0 - ratio(tally.failed as f64, tally.attempted as f64), "ratio");
        m.put("peak_rss_mb", peak_rss, "MB");
        m.put("insert_ms", fastest(&tally.insert_ms), "ms");
    }

    eprintln!(
        "{} seed={} passes={} period={} digest={:016x} attempted={} failed={}",
        spec.name,
        args.seed,
        tally.passes,
        tally.period,
        tally.digest,
        tally.attempted,
        tally.failed
    );
    for p in &tally.problems {
        eprintln!("  problem: {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        m.json()
    );
    ExitCode::SUCCESS
}
