//! The morsel runner: the one execution path of Filter, Project, the
//! hash-join probe, GroupBy and the fused join–aggregate probe.
//!
//! An operator splits its input into fixed row ranges ("morsels",
//! [`ExecConfig::morsel_rows`](super::ExecConfig::morsel_rows)) with
//! [`taskpool::split_ranges`], runs its kernel on each morsel over the
//! shared [`taskpool`] worker pool, and merges the per-morsel results in
//! morsel order. The decomposition depends only on the input size and
//! `morsel_rows`, never on `parallelism`, which only sets how many workers
//! run the morsels — so results are bit-identical at every worker count.
//! An input of at most one morsel is the degenerate case: the kernel sees
//! the whole input table and there is nothing to merge.

use std::borrow::Cow;
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::error::Result;
use crate::table::Table;

use super::ExecContext;

/// Runs `kernel` on every morsel of an input of `rows` rows and returns
/// the per-morsel results in morsel order, plus the worker busy time the
/// morsels spent beyond the region's wall time (zero on one worker). The
/// kernel returns its result and the row count its worker span reports.
///
/// An empty input still runs the kernel once (on `0..0`), so outputs keep
/// their shape: a global aggregate over no rows emits its one row.
pub(crate) fn run<T, F>(ctx: &ExecContext<'_>, rows: usize, kernel: F) -> Result<(Vec<T>, Duration)>
where
    T: Send,
    F: Fn(Range<usize>) -> Result<(T, usize)> + Sync,
{
    #[allow(clippy::single_range_in_vec_init)] // one empty morsel, not 0..0's items
    let ranges =
        if rows == 0 { vec![0..0] } else { taskpool::split_ranges(rows, ctx.config.morsel_rows) };
    let region = Instant::now();
    let parts = taskpool::try_run_ranges(ctx.config.parallelism, &ranges, |range| {
        checkpoint(ctx)?;
        let t0 = if ctx.span.is_some() { ctx.tracer.now_ns() } else { 0 };
        let start = Instant::now();
        let (out, rows_out) = kernel(range.clone())?;
        let busy = start.elapsed();
        note_morsel(ctx, &range, t0, rows_out);
        Ok::<_, crate::error::Error>((out, busy))
    })?;
    let wall = region.elapsed();
    let mut busy = Duration::ZERO;
    let parts = parts
        .into_iter()
        .map(|part| {
            part.map(|(out, elapsed)| {
                busy += elapsed;
                out
            })
        })
        .collect::<Result<Vec<T>>>()?;
    Ok((parts, busy.saturating_sub(wall)))
}

/// The rows of `t` a morsel covers: the table itself when the morsel is
/// the whole input, a slice otherwise.
pub(crate) fn input(t: &Table, range: Range<usize>) -> Cow<'_, Table> {
    if range.start == 0 && range.end == t.num_rows() {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(t.slice(range))
    }
}

/// Concatenates per-morsel tables in morsel order.
pub(crate) fn concat(parts: Vec<Table>) -> Result<Table> {
    let mut parts = parts.into_iter();
    let mut out = parts.next().expect("morsel::run yields at least one morsel");
    for part in parts {
        out.append(&part)?;
    }
    Ok(out)
}

/// Governance prologue of every morsel: the cooperative cancel/deadline
/// check plus the `exec.morsel` failpoint (a no-op in release builds).
/// Injected panics unwind here on purpose — the pool's `try_run_*` entry
/// points catch them and return a typed error.
#[inline]
fn checkpoint(ctx: &ExecContext<'_>) -> Result<()> {
    ctx.check()?;
    govern::failpoints::fire("exec.morsel")
        .map_err(|f| crate::error::Error::Exec(format!("injected fault: {f:?}")))
}

/// Records one morsel as a worker span under the operator's span (no-op
/// when untraced). `t0` is the tracer timestamp taken when the morsel
/// started; the executing pool worker tags the span.
fn note_morsel(ctx: &ExecContext<'_>, range: &Range<usize>, t0: u64, rows_out: usize) {
    if ctx.span.is_none() {
        return;
    }
    ctx.tracer.add_complete(
        ctx.span,
        obs::SpanKind::Worker,
        "morsel",
        &format!("rows {}..{}", range.start, range.end),
        t0,
        ctx.tracer.now_ns(),
        taskpool::current_worker(),
        rows_out as u64,
    );
}
