//! `host_dag`: one closed-loop client submitting host-only graphs of
//! Taskflow's micro-benchmark shapes with near-empty task bodies. Seven of
//! every eight submissions resubmit a pre-built graph (plan-cache hit);
//! the eighth is a freshly built graph of seeded size (plan-cache miss).

use crate::rng::Rng;
use crate::stats::{self, ratio, Series};
use crate::trace::{Accounting, Span, Tracer, NONE, ROOT};
use crate::Phase;
use hf_core::{Executor, Heteroflow, StatsSnapshot};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const CHAIN: usize = 64;
const FANOUT: usize = 256;
const TREE: usize = 255;
const WAVE: usize = 16;
/// One submission in this many builds a fresh graph.
const FRESH_EVERY: u64 = 8;
/// Untimed resubmissions of each pre-built graph during set-up.
const WARMUP_RUNS: usize = 100;
/// Ops whose latency feeds `trace_overhead_ratio`, and which are traced
/// in a traced phase: one in this many, picked by a hash of the op id.
const SAMPLE_EVERY: u64 = 32;

/// Span ids within one op.
const BUILD: u32 = 2;
const RUN: u32 = 3;
const WAIT: u32 = 4;
const BODY0: u32 = 16;

/// A Taskflow micro-benchmark shape and its size.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// `n` tasks in a line.
    Chain(usize),
    /// One source releasing `n` leaves.
    FanOut(usize),
    /// A complete binary tree of `n` tasks, root first.
    Tree(usize),
    /// An `n` x `n` grid; each cell releases its right and lower
    /// neighbours.
    Wavefront(usize),
}

impl Shape {
    /// Task count and dependency edges.
    fn edges(self) -> (usize, Vec<(usize, usize)>) {
        match self {
            Shape::Chain(n) => (n, (1..n).map(|i| (i - 1, i)).collect()),
            Shape::FanOut(n) => (n + 1, (1..=n).map(|i| (0, i)).collect()),
            Shape::Tree(n) => (n, (1..n).map(|i| ((i - 1) / 2, i)).collect()),
            Shape::Wavefront(s) => {
                let mut e = Vec::with_capacity(2 * s * s);
                for r in 0..s {
                    for c in 0..s {
                        if r + 1 < s {
                            e.push((r * s + c, (r + 1) * s + c));
                        }
                        if c + 1 < s {
                            e.push((r * s + c, r * s + c + 1));
                        }
                    }
                }
                (s * s, e)
            }
        }
    }

    /// A shape of random kind and seeded size, for a fresh graph.
    fn random(rng: &mut Rng) -> Shape {
        match rng.range(0, 3) {
            0 => Shape::Chain(rng.range(CHAIN / 2, CHAIN * 3 / 2)),
            1 => Shape::FanOut(rng.range(FANOUT / 2, FANOUT * 3 / 2)),
            2 => Shape::Tree((1 << rng.range(7, 9)) - 1),
            _ => Shape::Wavefront(rng.range(WAVE * 3 / 4, WAVE * 5 / 4)),
        }
    }
}

/// What the task bodies share with the client loop: the op in flight (one at
/// a time in a closed loop) and whether it is traced.
struct Ctx {
    tracer: Arc<Tracer>,
    op: AtomicU64,
    traced: AtomicBool,
    order_errors: AtomicU64,
}

/// A built graph whose task `i` counts its runs in `counts[i]`.
struct Dag {
    graph: Heteroflow,
    counts: Arc<Vec<AtomicU64>>,
    preds: Vec<Vec<usize>>,
    shape: Shape,
    runs: u64,
}

impl Dag {
    fn build(shape: Shape, ctx: &Arc<Ctx>) -> Dag {
        let (n, edges) = shape.edges();
        let mut preds = vec![Vec::new(); n];
        for &(a, b) in &edges {
            preds[b].push(a);
        }
        let counts: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let graph = Heteroflow::new("host_dag");
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                let (ctx, counts, mine) = (Arc::clone(ctx), Arc::clone(&counts), preds[i].clone());
                graph.host(&format!("t{i}"), move || body(&ctx, &counts, &mine, i))
            })
            .collect();
        for &(a, b) in &edges {
            tasks[a].precede(&tasks[b]);
        }
        Dag {
            graph,
            counts,
            preds,
            shape,
            runs: 0,
        }
    }

    /// True when every task ran exactly once per completed run.
    fn counts_ok(&self) -> bool {
        self.counts
            .iter()
            .all(|c| c.load(Ordering::Acquire) == self.runs)
    }
}

/// Task `i`'s body: checks that its predecessors already ran in this run,
/// then counts itself.
fn body(ctx: &Ctx, counts: &[AtomicU64], preds: &[usize], i: usize) {
    let start = ctx.traced.load(Ordering::Relaxed).then(|| ctx.tracer.now());
    let mine = counts[i].load(Ordering::Acquire);
    if preds
        .iter()
        .any(|&p| counts[p].load(Ordering::Acquire) <= mine)
    {
        ctx.order_errors.fetch_add(1, Ordering::Relaxed);
    }
    counts[i].store(mine + 1, Ordering::Release);
    if let Some(start) = start {
        ctx.tracer.record(Span {
            op: ctx.op.load(Ordering::Relaxed),
            id: BODY0 + i as u32,
            parent: WAIT,
            name: "host.body",
            tag: i as u32,
            start,
            end: ctx.tracer.now(),
        });
    }
}

/// True for the ops sampled for tracing and the overhead ratio.
fn sampled(op: u64) -> bool {
    Rng::new(op, 0x5A).next_u64().is_multiple_of(SAMPLE_EVERY)
}

pub struct HostDag {
    ex: Executor,
    ctx: Arc<Ctx>,
    prebuilt: Vec<Dag>,
    rng: Rng,
    next_op: u64,
}

/// One measured submission, kept for the traced accounting.
struct OpRecord {
    op: u64,
    shape: Shape,
    preds: Vec<Vec<usize>>,
}

/// The op sequence's choice for one submission.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    /// Resubmit pre-built graph `i`.
    Prebuilt(usize),
    /// Build and submit a fresh graph.
    Fresh(Shape),
}

impl Plan {
    /// The plan for op `op`: pre-built graphs in rotation, so every seed
    /// runs the same mix, and a fresh graph of seeded shape every
    /// `FRESH_EVERY`th op.
    fn next(rng: &mut Rng, op: u64) -> Plan {
        if op.is_multiple_of(FRESH_EVERY) {
            Plan::Fresh(Shape::random(rng))
        } else {
            Plan::Prebuilt((op - op / FRESH_EVERY) as usize % 4)
        }
    }
}

/// Digest of the first submissions' plan for `seed`.
#[cfg(test)]
pub fn input_digest(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let plans: Vec<Plan> = (1..=512).map(|op| Plan::next(&mut rng, op)).collect();
    format!("{plans:?}")
}

impl crate::Workload for HostDag {
    const NAME: &'static str = "host_dag";
    const HEADLINE: [(&'static str, &'static str); 3] = [
        ("tasks_per_s", "1/s"),
        ("run_p50_us", "us"),
        ("run_p99_us", "us"),
    ];
    const CO_RUN: i32 = 1;
    const LATENCY_SCALE: f64 = 1e3;

    fn params() -> Vec<(&'static str, String)> {
        vec![
            ("client", "closed loop, 1 client".into()),
            ("cpu_workers", "2".into()),
            ("gpus", "0".into()),
            (
                "shapes",
                format!("chain {CHAIN}, fan-out {FANOUT}, tree {TREE}, wavefront {WAVE}x{WAVE}"),
            ),
            ("fresh_every", FRESH_EVERY.to_string()),
            ("warmup_runs_per_graph", WARMUP_RUNS.to_string()),
            ("sample_every", SAMPLE_EVERY.to_string()),
        ]
    }

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> HostDag {
        let ctx = Arc::new(Ctx {
            tracer: Arc::clone(tracer),
            op: AtomicU64::new(0),
            traced: AtomicBool::new(false),
            order_errors: AtomicU64::new(0),
        });
        let ex = Executor::builder(2, 0).build();
        let shapes = [
            Shape::Chain(CHAIN),
            Shape::FanOut(FANOUT),
            Shape::Tree(TREE),
            Shape::Wavefront(WAVE),
        ];
        let mut prebuilt: Vec<Dag> = shapes.iter().map(|&s| Dag::build(s, &ctx)).collect();
        for dag in &mut prebuilt {
            for _ in 0..WARMUP_RUNS {
                ex.run(&dag.graph).wait().expect("warm-up run");
                dag.runs += 1;
            }
            assert!(dag.counts_ok(), "warm-up runs executed every task once");
        }
        HostDag {
            ex,
            ctx,
            prebuilt,
            rng: Rng::new(seed, 1),
            next_op: 1,
        }
    }

    fn measure(&mut self, seconds: f64) -> Phase {
        let tracer = Arc::clone(&self.ctx.tracer);
        let traced_phase = tracer.on();
        let s0 = self.ex.snapshot();
        let mut series = Series::with_capacity(1 << 20);
        let mut sample_ms = Vec::new();
        let (mut build_us, mut hit_us, mut miss_us) = (Vec::new(), Vec::new(), Vec::new());
        let mut records = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let t_start = tracer.now();
        let deadline = t_start + (seconds * 1e9) as u64;
        while tracer.now() < deadline {
            let op = self.next_op;
            self.next_op += 1;
            let traced = sampled(op) && tracer.accepting();
            let t_build = tracer.now();
            let plan = Plan::next(&mut self.rng, op);
            let fresh = matches!(plan, Plan::Fresh(_));
            let mut fresh_dag;
            let dag = match plan {
                Plan::Fresh(shape) => {
                    fresh_dag = Dag::build(shape, &self.ctx);
                    if traced_phase {
                        build_us.push((tracer.now() - t_build) as f64 / 1e3);
                    }
                    &mut fresh_dag
                }
                Plan::Prebuilt(i) => &mut self.prebuilt[i],
            };
            self.ctx.op.store(op, Ordering::Relaxed);
            self.ctx.traced.store(traced, Ordering::Relaxed);
            let errors_before = self.ctx.order_errors.load(Ordering::Relaxed);

            let t0 = tracer.now();
            let fut = self.ex.run(&dag.graph);
            let t1 = tracer.now();
            let res = fut.wait();
            let t2 = tracer.now();

            attempted += 1;
            dag.runs += 1;
            let ok = res.is_ok()
                && dag.counts_ok()
                && self.ctx.order_errors.load(Ordering::Relaxed) == errors_before;
            if !ok {
                failed += 1;
                // Re-sync so one failure does not fail every later run.
                dag.runs = dag.counts[0].load(Ordering::Acquire);
            }
            let lat = (t2 - t0) as f64 / 1e6;
            let done = (t2 - t_start) as f64 / 1e9;
            series.latency.push((done, lat));
            series.work.push((done, dag.counts.len() as f64));
            series.sample_cpu(done);
            if sampled(op) {
                sample_ms.push(lat);
            }
            if traced_phase {
                let run_us = (t1 - t0) as f64 / 1e3;
                if fresh { &mut miss_us } else { &mut hit_us }.push(run_us);
            }
            if traced {
                let root_start = if fresh { t_build } else { t0 };
                let span = |id, parent, name, start, end| Span {
                    op,
                    id,
                    parent,
                    name,
                    tag: 0,
                    start,
                    end,
                };
                tracer.record(span(ROOT, NONE, "op", root_start, t2));
                if fresh {
                    tracer.record(span(BUILD, ROOT, "plan.build", t_build, t0));
                }
                tracer.record(span(RUN, ROOT, "core.run", t0, t1));
                tracer.record(span(WAIT, ROOT, "core.wait", t1, t2));
                records.push(OpRecord {
                    op,
                    shape: dag.shape,
                    preds: dag.preds.clone(),
                });
            }
        }
        self.ctx.traced.store(false, Ordering::Relaxed);
        let s1 = self.ex.snapshot();
        let layers = if traced_phase {
            let spans = tracer.snapshot();
            layer_metrics(
                &s0, &s1, attempted, &spans, &records, build_us, hit_us, miss_us,
            )
        } else {
            Vec::new()
        };
        Phase {
            attempted,
            failed,
            series,
            named: Vec::new(),
            sample_p50_ms: stats::median(&mut sample_ms),
            layers,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    s0: &StatsSnapshot,
    s1: &StatsSnapshot,
    runs: u64,
    spans: &[Span],
    records: &[OpRecord],
    mut build_us: Vec<f64>,
    mut hit_us: Vec<f64>,
    mut miss_us: Vec<f64>,
) -> Vec<(&'static str, f64)> {
    let d = |f: fn(&StatsSnapshot) -> u64| (f(s1) - f(s0)) as f64;
    let executed = d(|s| s.tasks_executed);
    let runs = runs as f64;

    // Successor release and settle times from the body spans.
    let mut by_op: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(s);
    }
    let (mut release_us, mut settle_us) = (Vec::new(), Vec::new());
    for r in records {
        let Some(op_spans) = by_op.get(&r.op) else {
            continue;
        };
        let mut bodies = vec![None; r.preds.len()];
        let mut wait_end = 0;
        for s in op_spans {
            match s.name {
                "host.body" => bodies[s.tag as usize] = Some((s.start, s.end)),
                "core.wait" => wait_end = s.end,
                _ => {}
            }
        }
        let Some(bodies) = bodies.into_iter().collect::<Option<Vec<_>>>() else {
            continue;
        };
        for (i, preds) in r.preds.iter().enumerate() {
            if let Some(last_pred_end) = preds.iter().map(|&p| bodies[p].1).max() {
                release_us.push((bodies[i].0 as f64 - last_pred_end as f64) / 1e3);
            }
        }
        let last_end = bodies.iter().map(|b| b.1).max().unwrap_or(wait_end);
        settle_us.push((wait_end as f64 - last_end as f64) / 1e3);
    }
    let (rel_p50, rel_p99) =
        stats::p50_p99(&mut release_us).map_or((0.0, 0.0), |(a, b)| (a.value, b.value));

    let traced: HashSet<u64> = records.iter().map(|r| r.op).collect();
    let chains: HashSet<u64> = records
        .iter()
        .filter(|r| matches!(r.shape, Shape::Chain(_)))
        .map(|r| r.op)
        .collect();
    let all = Accounting::of(spans, |op| traced.contains(&op));
    let chains = Accounting::of(spans, |op| chains.contains(&op));

    vec![
        (
            "steal_success_rate",
            ratio(d(|s| s.steals), d(|s| s.steal_attempts)),
        ),
        ("sleeps_per_ktask", ratio(1e3 * d(|s| s.sleeps), executed)),
        ("wakeups_per_ktask", ratio(1e3 * d(|s| s.wakeups), executed)),
        (
            "injector_batches_per_run",
            ratio(d(|s| s.injector_batches), runs),
        ),
        (
            "notify_coalesced_per_run",
            ratio(d(|s| s.notify_coalesced), runs),
        ),
        ("release_to_start_us_p50", rel_p50),
        ("release_to_start_us_p99", rel_p99),
        ("settle_us", stats::median(&mut settle_us)),
        ("tasks_per_run", ratio(executed, runs)),
        ("build_us", stats::median(&mut build_us)),
        ("submit_hit_us", stats::median(&mut hit_us)),
        ("submit_miss_us", stats::median(&mut miss_us)),
        (
            "topo_cache_hit_ratio",
            ratio(
                d(|s| s.topo_cache_hits),
                d(|s| s.topo_cache_hits) + d(|s| s.topo_cache_misses),
            ),
        ),
        ("fused_per_run", ratio(d(|s| s.fused), runs)),
        ("placement_imbalance", s1.placement_imbalance),
        ("self_frac.hf-core.plan", all.share("hf-core.plan")),
        ("self_frac.hf-core.sched", all.share("hf-core.sched")),
        ("self_frac.body", all.share("body")),
        ("unexplained_frac", chains.unexplained_frac()),
    ]
}
