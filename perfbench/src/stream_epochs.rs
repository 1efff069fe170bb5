//! `stream_epochs`: a closed loop through a resident `run_stream` session
//! of depth 2, one inference round per epoch. A host task writes the
//! epoch's feature batch; a weight table sharded over two devices, each
//! shard above the chunked-copy threshold, is rewritten every
//! `TABLE_EVERY`th epoch; one kernel per shard computes its slice of the
//! layer, a push copies it back, and a host task checks the whole output
//! against references computed at set-up.

use crate::rng::Rng;
use crate::stats::{self, ratio, Series};
use crate::trace::{union_within, Accounting, Span, Tracer, NONE, ROOT};
use crate::Phase;
use hf_core::data::HostVec;
use hf_core::{EpochFuture, Executor, Heteroflow, Session, StatsSnapshot, StreamConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

/// Rows per feature batch.
const BATCH: usize = 16;
/// Inputs per row.
const DIM: usize = 128;
/// Outputs per device shard.
const OUT: usize = 512;
/// Device shards (and simulated devices).
const SHARDS: usize = 2;
/// The table is rewritten every this many epochs.
const TABLE_EVERY: u64 = 8;
/// Distinct feature batches and table versions the epochs draw from.
const FEATURE_POOL: usize = 8;
const TABLE_VERSIONS: usize = 2;
/// Copies above this size are split into chunks; each table shard
/// (`OUT * DIM * 4` bytes = 256 KiB) is above it.
const CHUNK_THRESHOLD: usize = 64 << 10;
const DEPTH: usize = 2;
const WARMUP_EPOCHS: u64 = 32;
/// Pull tasks per epoch (features, table, output buffer per shard).
const PULLS_PER_EPOCH: u64 = 3 * SHARDS as u64;

/// Op id of epoch `e` (op 0 is reserved for background spans).
fn op_of(e: u64) -> u64 {
    e + 1
}

/// Span ids within one epoch.
const SUBMIT: u32 = 2;
const WAIT: u32 = 3;
const FEED: u32 = 4;
const CHECK: u32 = 5;
const KERNEL0: u32 = 8;

/// One output neuron: ReLU of row `b` of `features` dotted with row `j`
/// of an `OUT x DIM` table. The kernel and the reference share it, so
/// their results agree bit for bit.
fn neuron(features: &[f32], table: &[f32], b: usize, j: usize) -> f32 {
    let row = &features[b * DIM..(b + 1) * DIM];
    let col = &table[j * DIM..(j + 1) * DIM];
    row.iter()
        .zip(col)
        .fold(0.0f32, |acc, (f, w)| acc + f * w)
        .max(0.0)
}

/// Everything the seed decides, plus the expected outputs.
struct Inputs {
    /// `FEATURE_POOL` batches of `BATCH * DIM`.
    features: Vec<Vec<f32>>,
    /// `TABLE_VERSIONS` x `SHARDS` tables of `OUT * DIM`.
    tables: Vec<Vec<Vec<f32>>>,
    /// Which feature batch each epoch uses (cycled).
    sequence: Vec<usize>,
    /// Expected output per (feature batch, table version, shard).
    refs: Vec<Vec<Vec<Vec<f32>>>>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 2);
        let mut vec_of = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.signed_f32()).collect() };
        let features: Vec<Vec<f32>> = (0..FEATURE_POOL).map(|_| vec_of(BATCH * DIM)).collect();
        let tables: Vec<Vec<Vec<f32>>> = (0..TABLE_VERSIONS)
            .map(|_| (0..SHARDS).map(|_| vec_of(OUT * DIM)).collect())
            .collect();
        let sequence = (0..1024).map(|_| rng.range(0, FEATURE_POOL - 1)).collect();
        let refs = features
            .iter()
            .map(|f| {
                tables
                    .iter()
                    .map(|shards| {
                        shards
                            .iter()
                            .map(|t| {
                                (0..BATCH * OUT)
                                    .map(|i| neuron(f, t, i / OUT, i % OUT))
                                    .collect()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Inputs {
            features,
            tables,
            sequence,
            refs,
        }
    }

    fn batch_of(&self, epoch: u64) -> usize {
        self.sequence[epoch as usize % self.sequence.len()]
    }

    fn version_of(epoch: u64) -> usize {
        (epoch / TABLE_EVERY) as usize % TABLE_VERSIONS
    }
}

/// Digest of the generated inputs for `seed`.
#[cfg(test)]
pub fn input_digest(seed: u64) -> String {
    let i = Inputs::generate(seed);
    let bits = |v: &[f32]| {
        v.iter()
            .fold(0u64, |h, x| h.rotate_left(5) ^ x.to_bits() as u64)
    };
    let f: Vec<u64> = i.features.iter().map(|v| bits(v)).collect();
    let t: Vec<u64> = i.tables.iter().flatten().map(|v| bits(v)).collect();
    format!("{f:?}{t:?}{:?}", i.sequence)
}

/// What the task closures share with the submitting thread. Each closure
/// counts its own invocations: epochs run each exactly once, in order, so
/// the count is the epoch index.
struct Ctx {
    tracer: Arc<Tracer>,
    inputs: Inputs,
    traced: AtomicBool,
    feeds: AtomicU64,
    kernels: [AtomicU64; SHARDS],
    checks: AtomicU64,
    check_failures: AtomicU64,
}

impl Ctx {
    fn span(&self, epoch: u64, id: u32, name: &'static str, tag: u32, start: u64) {
        self.tracer.record(Span {
            op: op_of(epoch),
            id,
            parent: WAIT,
            name,
            tag,
            start,
            end: self.tracer.now(),
        });
    }
}

pub struct StreamEpochs {
    ctx: Arc<Ctx>,
    tables: Vec<HostVec<f32>>,
    // Field order: the session closes before the executor drops.
    session: Session,
    _graph: Heteroflow,
    ex: Executor,
    next_epoch: u64,
}

fn build(ctx: &Arc<Ctx>) -> (Heteroflow, Vec<HostVec<f32>>) {
    let g = Heteroflow::new("stream_epochs");
    let features: HostVec<f32> = HostVec::from_vec(vec![0.0; BATCH * DIM]);
    let feed = g.host("feed", {
        let (ctx, features) = (Arc::clone(ctx), features.clone());
        move || {
            let e = ctx.feeds.fetch_add(1, Ordering::Relaxed);
            let start = ctx.traced.load(Ordering::Relaxed).then(|| ctx.tracer.now());
            let batch = &ctx.inputs.features[ctx.inputs.batch_of(e)];
            features.write().copy_from_slice(batch);
            if let Some(start) = start {
                ctx.span(e, FEED, "host.feed", 0, start);
            }
        }
    });
    let mut tables = Vec::new();
    let mut results = Vec::new();
    let mut pushes = Vec::new();
    for s in 0..SHARDS {
        let table = HostVec::from_vec(ctx.inputs.tables[0][s].clone());
        let out: HostVec<f32> = HostVec::from_vec(vec![0.0; BATCH * OUT]);
        let result: HostVec<f32> = HostVec::from_vec(vec![0.0; BATCH * OUT]);
        let pf = g.pull(&format!("pull_features{s}"), &features);
        let pt = g.pull(&format!("pull_table{s}"), &table);
        let po = g.pull(&format!("pull_out{s}"), &out);
        let k = g.kernel(&format!("layer{s}"), &[&pf, &pt, &po], {
            let ctx = Arc::clone(ctx);
            move |cfg, args| {
                let e = ctx.kernels[s].fetch_add(1, Ordering::Relaxed);
                let start = ctx.traced.load(Ordering::Relaxed).then(|| ctx.tracer.now());
                let (f, t, o) = args
                    .slice3_mut::<f32, f32, f32>(0, 1, 2)
                    .expect("kernel arguments");
                for i in cfg.threads() {
                    if i < BATCH * OUT {
                        o[i] = neuron(f, t, i / OUT, i % OUT);
                    }
                }
                if let Some(start) = start {
                    ctx.span(e, KERNEL0 + s as u32, "kernel.body", s as u32, start);
                }
            }
        });
        k.cover(BATCH * OUT, 128);
        feed.precede(&pf);
        k.succeed_all(&[&pf, &pt, &po]);
        let push = g.push(&format!("push_out{s}"), &po, &result);
        k.precede(&push);
        pushes.push(push);
        tables.push(table);
        results.push(result);
    }
    let check = g.host("check", {
        let ctx = Arc::clone(ctx);
        move || {
            let e = ctx.checks.fetch_add(1, Ordering::Relaxed);
            let start = ctx.traced.load(Ordering::Relaxed).then(|| ctx.tracer.now());
            let expected = &ctx.inputs.refs[ctx.inputs.batch_of(e)][Inputs::version_of(e)];
            let same =
                |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            let ok = results
                .iter()
                .zip(expected)
                .all(|(r, want)| same(&r.read(), want));
            if !ok {
                ctx.check_failures.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(start) = start {
                ctx.span(e, CHECK, "host.check", 0, start);
            }
        }
    });
    for p in &pushes {
        p.precede(&check);
    }
    (g, tables)
}

/// Totals over both devices.
fn device_totals(ex: &Executor) -> (u64, u64, u64) {
    ex.gpu_runtime()
        .devices()
        .iter()
        .fold((0, 0, 0), |(busy, hit, miss), d| {
            let p = d.pool_stats();
            (
                busy + d.busy_time().0,
                hit + p.magazine_hits,
                miss + p.magazine_misses,
            )
        })
}

/// One epoch as the waiter sees it.
struct Submitted {
    epoch: u64,
    fut: EpochFuture,
    submit_start: u64,
    submit_end: u64,
}

impl StreamEpochs {
    /// Submits epoch `e`, rewriting the table in the race-free window
    /// before it when `e` starts a new table period.
    fn submit(&self, e: u64) -> EpochFuture {
        if !e.is_multiple_of(TABLE_EVERY) {
            return self.session.submit();
        }
        let (tables, ctx) = (self.tables.clone(), Arc::clone(&self.ctx));
        self.session.submit_with(move || {
            let version = &ctx.inputs.tables[Inputs::version_of(e)];
            for (t, src) in tables.iter().zip(version) {
                t.write().copy_from_slice(src);
            }
        })
    }
}

impl crate::Workload for StreamEpochs {
    const NAME: &'static str = "stream_epochs";
    const HEADLINE: [(&'static str, &'static str); 3] = [
        ("epochs_per_s", "1/s"),
        ("epoch_p50_ms", "ms"),
        ("epoch_p99_ms", "ms"),
    ];
    const CO_RUN: i32 = 2;
    const LATENCY_SCALE: f64 = 1.0;

    fn params() -> Vec<(&'static str, String)> {
        vec![
            ("client", "closed loop, 1 submitter + 1 waiter".into()),
            ("cpu_workers", "2".into()),
            ("gpus", SHARDS.to_string()),
            ("depth", DEPTH.to_string()),
            ("batch_x_dim", format!("{BATCH}x{DIM}")),
            ("outputs_per_shard", OUT.to_string()),
            ("table_shard_bytes", (OUT * DIM * 4).to_string()),
            ("copy_chunk_threshold", CHUNK_THRESHOLD.to_string()),
            ("table_every", TABLE_EVERY.to_string()),
            ("feature_pool", FEATURE_POOL.to_string()),
            ("table_versions", TABLE_VERSIONS.to_string()),
            ("warmup_epochs", WARMUP_EPOCHS.to_string()),
        ]
    }

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> StreamEpochs {
        let ctx = Arc::new(Ctx {
            tracer: Arc::clone(tracer),
            inputs: Inputs::generate(seed),
            traced: AtomicBool::new(false),
            feeds: AtomicU64::new(0),
            kernels: [AtomicU64::new(0), AtomicU64::new(0)],
            checks: AtomicU64::new(0),
            check_failures: AtomicU64::new(0),
        });
        let ex = Executor::builder(2, SHARDS as u32)
            .copy_chunk_threshold(CHUNK_THRESHOLD)
            .copy_lanes(2)
            .build();
        let (graph, tables) = build(&ctx);
        let session = ex
            .run_stream_with(&graph, StreamConfig { depth: DEPTH })
            .expect("open stream");
        let mut w = StreamEpochs {
            ctx,
            tables,
            session,
            _graph: graph,
            ex,
            next_epoch: 0,
        };
        let futs: Vec<_> = (0..WARMUP_EPOCHS).map(|e| w.submit(e)).collect();
        for f in futs {
            f.wait().expect("warm-up epoch");
        }
        assert_eq!(
            w.ctx.check_failures.load(Ordering::Relaxed),
            0,
            "warm-up outputs match"
        );
        w.next_epoch = WARMUP_EPOCHS;
        w
    }

    fn measure(&mut self, seconds: f64) -> Phase {
        let tracer = Arc::clone(&self.ctx.tracer);
        let traced = tracer.accepting();
        self.ctx.traced.store(traced, Ordering::Relaxed);
        let first = self.next_epoch;
        let s0 = self.ex.snapshot();
        let dev0 = device_totals(&self.ex);
        let t_start = tracer.now();
        let deadline = t_start + (seconds * 1e9) as u64;

        let (tx, rx) = mpsc::channel::<Submitted>();
        let ctx = Arc::clone(&self.ctx);
        let waiter = std::thread::spawn(move || {
            let mut out = Waited {
                series: Series::with_capacity(1 << 17),
                ..Waited::default()
            };
            for s in rx {
                let res = s.fut.wait();
                let done = ctx.tracer.now();
                let checked = ctx.checks.load(Ordering::Relaxed) > s.epoch;
                let failures = ctx.check_failures.load(Ordering::Relaxed);
                let ok = res.is_ok() && checked && failures == out.failures_seen;
                out.failures_seen = failures;
                out.attempted += 1;
                out.failed += u64::from(!ok);
                let t = (done - t_start) as f64 / 1e9;
                out.series
                    .latency
                    .push((t, (done - s.submit_end) as f64 / 1e6));
                out.series.work.push((t, 1.0));
                out.series.sample_cpu(t);
                out.admit_us
                    .push((s.submit_end - s.submit_start) as f64 / 1e3);
                if ctx.traced.load(Ordering::Relaxed) {
                    let op = op_of(s.epoch);
                    let span = |id, parent, name, start, end| Span {
                        op,
                        id,
                        parent,
                        name,
                        tag: 0,
                        start,
                        end,
                    };
                    ctx.tracer
                        .record(span(ROOT, NONE, "op", s.submit_start, done));
                    ctx.tracer.record(span(
                        SUBMIT,
                        ROOT,
                        "stream.submit",
                        s.submit_start,
                        s.submit_end,
                    ));
                    // The epoch is in flight from submit's return; the
                    // waiter may still be waiting on the one before it.
                    ctx.tracer
                        .record(span(WAIT, ROOT, "stream.wait", s.submit_end, done));
                }
            }
            out
        });
        while tracer.now() < deadline {
            let e = self.next_epoch;
            self.next_epoch += 1;
            let submit_start = tracer.now();
            let fut = self.submit(e);
            let submit_end = tracer.now();
            tx.send(Submitted {
                epoch: e,
                fut,
                submit_start,
                submit_end,
            })
            .expect("waiter alive");
        }
        drop(tx);
        let mut w = waiter.join().expect("waiter thread");
        self.ctx.traced.store(false, Ordering::Relaxed);
        let s1 = self.ex.snapshot();
        let dev1 = device_totals(&self.ex);

        let mut lat: Vec<f64> = w.series.latency.iter().map(|l| l.1).collect();
        let layers = if traced {
            layer_metrics(
                &tracer.snapshot(),
                first,
                self.next_epoch,
                &s0,
                &s1,
                dev0,
                dev1,
                &mut w,
            )
        } else {
            Vec::new()
        };
        Phase {
            attempted: w.attempted,
            failed: w.failed,
            series: w.series,
            named: Vec::new(),
            sample_p50_ms: stats::median(&mut lat),
            layers,
        }
    }
}

#[derive(Default)]
struct Waited {
    attempted: u64,
    failed: u64,
    failures_seen: u64,
    series: Series,
    admit_us: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    spans: &[Span],
    first: u64,
    end: u64,
    s0: &StatsSnapshot,
    s1: &StatsSnapshot,
    dev0: (u64, u64, u64),
    dev1: (u64, u64, u64),
    w: &mut Waited,
) -> Vec<(&'static str, f64)> {
    let epochs = (end - first) as f64;
    let d = |f: fn(&StatsSnapshot) -> u64| (f(s1) - f(s0)) as f64;
    // Per-epoch body intervals: feed, kernels (per shard), check.
    let n = (end - first) as usize;
    let mut feed = vec![None; n];
    let mut kernel = vec![[None; SHARDS]; n];
    let mut check = vec![None; n];
    let base = op_of(first);
    for s in spans {
        let Some(i) =
            s.op.checked_sub(base)
                .map(|i| i as usize)
                .filter(|&i| i < n)
        else {
            continue;
        };
        let iv = Some((s.start, s.end));
        match s.name {
            "host.feed" => feed[i] = iv,
            "kernel.body" => kernel[i][s.tag as usize] = iv,
            "host.check" => check[i] = iv,
            _ => {}
        }
    }
    let us = |a: u64, b: u64| (b as f64 - a as f64) / 1e3;
    let (mut h2d_wait, mut kernel_us, mut d2h_wait, mut gaps) = (vec![], vec![], vec![], vec![]);
    let (mut window_ns, mut overlap_ns) = (0u64, 0u64);
    for i in 0..n {
        for sh in 0..SHARDS {
            let Some((ks, ke)) = kernel[i][sh] else {
                continue;
            };
            kernel_us.push(us(ks, ke));
            if let Some((_, fe)) = feed[i] {
                h2d_wait.push(us(fe, ks));
            }
            if let Some((cs, _)) = check[i] {
                d2h_wait.push(us(ke, cs));
            }
            if let Some((ns, _)) = kernel.get(i + 1).and_then(|k| k[sh]) {
                gaps.push(us(ke, ns));
            }
        }
        // Epoch i's copy window (feed end to its first kernel start),
        // against epoch i-1's kernels.
        let first_kernel = kernel[i].iter().flatten().map(|k| k.0).min();
        if let (Some((_, fe)), Some(ks), Some(prev)) = (feed[i], first_kernel, i.checked_sub(1)) {
            if ks > fe {
                window_ns += ks - fe;
                let mut prev: Vec<(u64, u64)> = kernel[prev].iter().flatten().copied().collect();
                overlap_ns += union_within(&mut prev, fe, ks);
            }
        }
    }
    let pulls = epochs * PULLS_PER_EPOCH as f64;
    let ops = |op: u64| op >= base && op < base + n as u64;
    let acc = Accounting::of(spans, ops);
    vec![
        (
            "steal_success_rate",
            ratio(d(|s| s.steals), d(|s| s.steal_attempts)),
        ),
        (
            "sleeps_per_ktask",
            ratio(1e3 * d(|s| s.sleeps), d(|s| s.tasks_executed)),
        ),
        (
            "wakeups_per_ktask",
            ratio(1e3 * d(|s| s.wakeups), d(|s| s.tasks_executed)),
        ),
        ("tasks_per_run", ratio(d(|s| s.tasks_executed), epochs)),
        ("h2d_bytes_per_epoch", ratio(d(|s| s.bytes_h2d), epochs)),
        ("d2h_bytes_per_epoch", ratio(d(|s| s.bytes_d2h), epochs)),
        (
            "transfers_elided_ratio",
            ratio(d(|s| s.transfers_elided), pulls),
        ),
        (
            "pool_magazine_hit_ratio",
            ratio(
                (dev1.1 - dev0.1) as f64,
                (dev1.1 + dev1.2 - dev0.1 - dev0.2) as f64,
            ),
        ),
        ("h2d_wait_us", stats::median(&mut h2d_wait)),
        ("kernel_us", stats::median(&mut kernel_us)),
        ("d2h_wait_us", stats::median(&mut d2h_wait)),
        (
            "device_busy_modeled_ms",
            ratio((dev1.0 - dev0.0) as f64 / 1e6, epochs),
        ),
        ("admit_us", stats::median(&mut w.admit_us)),
        ("kernel_lane_gap_us", stats::median(&mut gaps)),
        (
            "copy_kernel_overlap_frac",
            ratio(overlap_ns as f64, window_ns as f64),
        ),
        ("fused_per_run", ratio(d(|s| s.fused), epochs)),
        ("self_frac.hf-core.stream", acc.share("hf-core.stream")),
        ("self_frac.body", acc.share("body")),
    ]
}
