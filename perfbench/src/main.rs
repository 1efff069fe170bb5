//! The runtime's benchmark: three workloads against the public APIs of
//! `hf-core`, `hf-gpu`, `hf-timing`, `hf-place` and `hf-telemetry`, each
//! checking every operation's output.
//!
//! ```text
//! perfbench --workload host_dag|stream_epochs|tenant_apps|all
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`), a run prints the workload's end-to-end metrics.
//! Traced (`--trace 1`), it measures half the time untraced and half
//! traced, and prints the per-layer metrics plus the tracing overhead.
//! The last line of standard output is always the JSON result; the full
//! result (with run metadata) and the spans go to `perfbench/out/`.

mod host_dag;
mod openloop;
mod report;
mod rng;
mod stats;
mod stream_epochs;
mod tenant_apps;
mod trace;

use report::{Meta, Metric, END_TO_END, PER_LAYER};
use stats::Series;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Spans kept in memory by a traced run.
const SPAN_CAP: usize = 400_000;

/// What one measured phase of a workload produced.
pub struct Phase {
    pub attempted: u64,
    /// Failed, refused or wrong-output operations.
    pub failed: u64,
    /// Timed operations and counted work, for the headline metrics.
    pub series: Series,
    /// Further end-to-end metrics under the workload's own names.
    pub named: Vec<Metric>,
    /// Median latency (ms) of the ops sampled for tracing.
    pub sample_p50_ms: f64,
    /// Per-layer metrics; filled by a traced phase only.
    pub layers: Vec<(&'static str, f64)>,
}

/// A workload: set up from a seed, then measured for a while.
pub(crate) trait Workload: Sized {
    const NAME: &'static str;
    /// Names and units of the headline throughput, p50 and p99, which
    /// `throughput_per_s`, `latency_p50_ms` and `latency_p99_ms` report.
    const HEADLINE: [(&'static str, &'static str); 3];
    /// Factor from ms to the headline latency unit.
    const LATENCY_SCALE: f64;
    /// vCPUs an operation needs running at once, for the available-CPU
    /// clock the headline is timed on (`stats::Series::clock`).
    const CO_RUN: i32;
    fn params() -> Vec<(&'static str, String)>;
    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Self;
    fn measure(&mut self, seconds: f64) -> Phase;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload host_dag|stream_epochs|tenant_apps|all --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    });
    match args.workload.as_str() {
        "host_dag" => bench::<host_dag::HostDag>(&args),
        "stream_epochs" => bench::<stream_epochs::StreamEpochs>(&args),
        "tenant_apps" => bench::<tenant_apps::TenantApps>(&args),
        "all" => {
            bench::<host_dag::HostDag>(&args);
            bench::<stream_epochs::StreamEpochs>(&args);
            bench::<tenant_apps::TenantApps>(&args);
        }
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    }
}

fn bench<W: Workload>(args: &Args) {
    let tracer = Arc::new(Tracer::new(SPAN_CAP));
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(W::setup(args.seed, &tracer));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = state.expect("set up at least once");
    let setup_s = stats::median(&mut setup_s);
    let out = if args.trace {
        traced_run(&mut w, args, &tracer)
    } else {
        plain_run(&mut w, args, setup_s)
    };
    drop(w);

    let meta = Meta {
        workload: W::NAME.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        params: W::params(),
    }
    .to_json();
    println!(
        "{} (seed {}, {} s, trace {})",
        W::NAME,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for m in &out.lines {
        let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<32} {:>16.6} {}{}", m.name, m.value, m.unit, n);
    }
    println!("meta {meta}");
    let correct = out.failed == 0 && out.attempted > 0;
    let line = report::result_line(correct, out.attempted, out.failed, &out.metrics);
    let path = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        W::NAME,
        args.seed,
        args.trace as u8
    ));
    let doc = format!(
        "{{\"meta\": {meta}, \"result\": {line}, \"detail\": {}}}\n",
        report::metrics_json(&out.lines, true)
    );
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{line}");
}

/// A run's outcome: the metrics of the result line and the table.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The result line's metrics.
    metrics: Vec<Metric>,
    /// The table's metrics, under the workload's own names.
    lines: Vec<Metric>,
}

/// Measures untraced: the end-to-end metrics.
fn plain_run<W: Workload>(w: &mut W, args: &Args, setup_s: f64) -> Outcome {
    let secs = args.seconds as f64;
    let p = w.measure(secs);
    let rss = report::peak_rss_mb();
    let h = p
        .series
        .headline(secs, W::CO_RUN)
        .unwrap_or_else(|| panic!("{}: no timed operation in a quiet stretch", W::NAME));
    let [(tput, tput_unit), (p50, lat_unit), (p99, _)] = W::HEADLINE;
    let scale = W::LATENCY_SCALE;
    for (label, pct) in [(p50, h.p50), (p99, h.p99)] {
        if !pct.qualified {
            eprintln!(
                "perfbench: {label} has only {} samples beyond it (n={}); reporting the maximum",
                pct.beyond, pct.n
            );
        }
    }
    let mut lines = vec![
        Metric::new(tput, h.throughput, tput_unit).with_n(p.series.work.len()),
        Metric::new(p50, h.p50.value * scale, lat_unit).with_n(h.p50.n),
        Metric::new(p99, h.p99.value * scale, lat_unit).with_n(h.p99.n),
        Metric::new(&format!("{tput}.all"), h.all_throughput, tput_unit),
        Metric::new(&format!("{p50}.all"), h.all_p50.value * scale, lat_unit).with_n(h.all_p50.n),
        Metric::new(&format!("{p99}.all"), h.all_p99.value * scale, lat_unit).with_n(h.all_p99.n),
        Metric::new("host_steal_frac", h.steal, "ratio"),
        Metric::new("quiet_frac", h.quiet_frac, "ratio"),
    ];
    lines.extend(p.named);
    lines.push(Metric::new("setup_s", setup_s, "s").with_n(SETUP_REPS));
    lines.push(Metric::new("peak_rss_mb", rss, "MB"));
    let failed_frac = stats::ratio(p.failed as f64, p.attempted as f64);
    lines.push(Metric::new("failed_frac", failed_frac, "ratio").with_n(p.attempted as usize));
    let values = [h.throughput, h.p50.value, h.p99.value, setup_s, rss];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect();
    Outcome {
        attempted: p.attempted,
        failed: p.failed,
        metrics,
        lines,
    }
}

/// Measures half the time untraced, half traced: the per-layer metrics.
fn traced_run<W: Workload>(w: &mut W, args: &Args, tracer: &Tracer) -> Outcome {
    let half = args.seconds as f64 / 2.0;
    let plain = w.measure(half);
    tracer.set_on(true);
    let traced = w.measure(half);
    tracer.set_on(false);
    let mut layers = traced.layers;
    layers.push((
        "trace_overhead_ratio",
        traced.sample_p50_ms / plain.sample_p50_ms,
    ));
    debug_assert!(
        layers
            .iter()
            .all(|(n, _)| PER_LAYER.iter().any(|(p, _)| p == n)),
        "every reported metric is declared"
    );
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = layers.iter().find(|(n, _)| *n == name).map_or(0.0, |l| l.1);
            Metric::new(name, v, unit)
        })
        .collect();
    let spans = tracer.snapshot();
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", W::NAME, args.seed));
    if let Err(e) = trace::write_jsonl(&spans, &path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "perfbench: {} spans ({} dropped) written to {}",
        spans.len(),
        tracer.dropped(),
        path.display()
    );
    Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        lines: metrics.clone(),
        metrics,
    }
}

/// Where results and spans go: `perfbench/out/` in the checkout.
fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed must generate the same inputs, and another seed
    /// different ones, for every workload.
    #[test]
    fn same_seed_generates_identical_inputs() {
        assert_eq!(host_dag::input_digest(42), host_dag::input_digest(42));
        assert_ne!(host_dag::input_digest(42), host_dag::input_digest(43));
        assert_eq!(
            stream_epochs::input_digest(42),
            stream_epochs::input_digest(42)
        );
        assert_ne!(
            stream_epochs::input_digest(42),
            stream_epochs::input_digest(43)
        );
        assert_eq!(tenant_apps::input_digest(42), tenant_apps::input_digest(42));
        assert_ne!(tenant_apps::input_digest(42), tenant_apps::input_digest(43));
    }
}
