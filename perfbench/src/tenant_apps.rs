//! `tenant_apps`: the paper's two applications sharing one `Fleet` with
//! weighted-fair admission, a flight recorder attached and enabled, and
//! `/metrics` rendered once a second. An `interactive` tenant (weight 8)
//! sends small Fig 5 timing-correlation jobs on a seeded Poisson schedule
//! (open loop); a `batch` tenant keeps a fixed backlog of Fig 8 detailed
//! placement jobs queued. Every job is built fresh, as the applications'
//! own entry points build theirs.

use crate::openloop::{self, Clock, WallClock};
use crate::report::Metric;
use crate::rng::Rng;
use crate::stats::{self, ratio, Series};
use crate::trace::{Accounting, Span, Tracer, NONE, ROOT};
use crate::Phase;
use hf_core::{
    Executor, Fleet, FleetConfig, Heteroflow, RunFuture, StatsSnapshot, TenantConfig, TenantId,
    WeightedFair,
};
use hf_place::{
    build_placement_graph, detailed_place_sequential, PlaceConfig, PlacementConfig, PlacementDb,
};
use hf_telemetry::{FlightRecorder, MetricsRegistry};
use hf_timing::correlation::{
    build_correlation_graph, run_correlation, CorrelationConfig, CorrelationReport,
};
use hf_timing::netlist::{Circuit, CircuitConfig};
use hf_timing::views::{make_views, View};
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::task::{Context, Wake, Waker};
use std::time::Duration;

/// Interactive correlation jobs per second (Poisson).
const RATE: f64 = 200.0;
/// Interactive latency limit, timed from each job's due time.
const SLO_MS: f64 = 50.0;
/// Batch placement jobs kept submitted at all times; at most
/// `BATCH_INFLIGHT` of them run, the rest wait in the fleet's queue.
const BACKLOG: usize = 4;
const BATCH_INFLIGHT: usize = 1;
const MAX_INFLIGHT: usize = 8;
const INTERACTIVE_WEIGHT: u32 = 8;
const GATES: usize = 1000;
const VIEWS: usize = 2;
const PATHS_PER_VIEW: usize = 32;
const REGRESSION_EPOCHS: usize = 8;
const CELLS: usize = 4000;
const PLACE_ITERATIONS: usize = 8;
/// Flight-recorder pump period and `/metrics` scrape period, ns.
const PUMP_NS: u64 = 100_000_000;
const SCRAPE_NS: u64 = 1_000_000_000;
/// Jobs of each tenant run (and checked) during set-up.
const WARMUP_JOBS: usize = 3;

/// Span ids within one job.
const BUILD: u32 = 2;
const SUBMIT: u32 = 3;
const PROBE: u32 = 4;

fn circuit_config(seed: u64) -> CircuitConfig {
    CircuitConfig {
        num_gates: GATES,
        seed: Rng::new(seed, 3).next_u64(),
        ..CircuitConfig::default()
    }
}

fn corr_config() -> CorrelationConfig {
    CorrelationConfig {
        paths_per_view: PATHS_PER_VIEW,
        epochs: REGRESSION_EPOCHS,
        ..CorrelationConfig::default()
    }
}

fn place_inputs(seed: u64) -> (PlacementConfig, PlaceConfig) {
    let mut rng = Rng::new(seed, 4);
    let db = PlacementConfig {
        num_cells: CELLS,
        num_nets: CELLS,
        seed: rng.next_u64(),
        ..PlacementConfig::default()
    };
    let run = PlaceConfig {
        iterations: PLACE_ITERATIONS,
        seed: rng.next_u64(),
        ..PlaceConfig::default()
    };
    (db, run)
}

/// Interactive due times (seconds from the phase start) for `seconds`.
fn schedule(seed: u64, phase: u64, seconds: f64) -> Vec<f64> {
    openloop::poisson_schedule(
        &mut Rng::new(seed ^ phase.rotate_left(32), 5),
        RATE,
        seconds,
    )
}

/// Digest of the generated inputs for `seed`.
#[cfg(test)]
pub fn input_digest(seed: u64) -> String {
    let c = Circuit::synthesize(&circuit_config(seed));
    let (db, run) = place_inputs(seed);
    let db = PlacementDb::synthesize(&db);
    let cells: Vec<(u32, u32)> = db.cells.iter().map(|c| (c.x, c.y)).collect();
    format!(
        "{:?}{:?}{:?}{:?}",
        c.fanin,
        cells,
        run.seed,
        schedule(seed, 0, 1.0)
    )
}

/// Bitwise equality of two correlation reports.
fn same_report(a: &CorrelationReport, b: &CorrelationReport) -> bool {
    let f32s = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    let f64s = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.weights.len() == b.weights.len()
        && a.weights.iter().zip(&b.weights).all(|(x, y)| f32s(x, y))
        && f64s(&a.accuracy, &b.accuracy)
        && f64s(&a.pairwise, &b.pairwise)
        && a.mean_correlation.to_bits() == b.mean_correlation.to_bits()
}

/// A job's tenant; the discriminant indexes per-tenant tallies.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Interactive = 0,
    Batch = 1,
}

/// One submitted job.
struct Job {
    op: u64,
    kind: Kind,
    /// When it was due (interactive) or its build began (batch), ns.
    due: u64,
    build_start: u64,
    build_end: u64,
    submit_end: u64,
    fut: Result<RunFuture, hf_core::HfError>,
    /// True when the finished job's output equals its reference.
    output_ok: Box<dyn Fn() -> bool + Send>,
    /// First body start, stamped by the job's probe task (0: not yet).
    started: Arc<AtomicU64>,
}

pub struct TenantApps {
    tracer: Arc<Tracer>,
    recorder: Arc<FlightRecorder>,
    registry: MetricsRegistry,
    fleet: Fleet,
    interactive: TenantId,
    batch: TenantId,
    circuit: Arc<Circuit>,
    views: Vec<View>,
    corr_ref: CorrelationReport,
    db: PlacementDb,
    place_cfg: PlaceConfig,
    place_ref: Vec<u64>,
    seed: u64,
    phase: u64,
    next_op: AtomicU64,
}

impl TenantApps {
    fn probe(&self, g: &Heteroflow) -> Arc<AtomicU64> {
        let started = Arc::new(AtomicU64::new(0));
        let (s, tracer) = (Arc::clone(&started), Arc::clone(&self.tracer));
        g.host("probe", move || {
            s.store(tracer.now().max(1), Ordering::Relaxed)
        });
        started
    }

    /// Builds and submits one job of `kind`, due at `due` (tracer ns).
    /// When the job finishes, the thread that finishes it sends
    /// `Msg::Done` with the time on `done`.
    fn submit(&self, kind: Kind, due: u64, done: &mpsc::Sender<Msg>) -> Job {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        let build_start = self.tracer.now();
        let (graph, output_ok): (Heteroflow, Box<dyn Fn() -> bool + Send>) = match kind {
            Kind::Interactive => {
                let built =
                    build_correlation_graph(Arc::clone(&self.circuit), &self.views, corr_config());
                let (report, want) = (built.report, self.corr_ref.clone());
                (
                    built.graph,
                    Box::new(move || same_report(&report.lock(), &want)),
                )
            }
            Kind::Batch => {
                let (graph, run) = build_placement_graph(self.db.clone(), self.place_cfg);
                let want = self.place_ref.clone();
                (graph, Box::new(move || *run.hpwl_trace.lock() == want))
            }
        };
        let started = self.probe(&graph);
        let build_end = self.tracer.now();
        let tenant = match kind {
            Kind::Interactive => &self.interactive,
            Kind::Batch => &self.batch,
        };
        let fut = self.fleet.submit(tenant, &graph);
        let submit_end = self.tracer.now();
        let notify = Arc::new(Notify {
            op,
            tracer: Arc::clone(&self.tracer),
            tx: done.clone(),
        });
        match &fut {
            Ok(f) => {
                let waker = Waker::from(Arc::clone(&notify));
                if Pin::new(&mut f.clone())
                    .poll(&mut Context::from_waker(&waker))
                    .is_ready()
                {
                    notify.wake_by_ref();
                }
            }
            Err(_) => notify.wake_by_ref(),
        }
        Job {
            op,
            kind,
            due,
            build_start,
            build_end,
            submit_end,
            fut,
            output_ok,
            started,
        }
    }

    /// Waits until no job is queued or running and the devices are idle,
    /// then folds the recorder's events. Dropping the executor while an
    /// engine thread still holds the last handle to the GPU runtime makes
    /// that thread join itself and panic.
    fn quiesce(&self) {
        self.fleet.wait_idle();
        self.fleet.executor().gpu_runtime().synchronize_all();
        self.recorder.pump();
    }

    /// True when a finished job succeeded with the expected output.
    fn check(job: &Job) -> bool {
        job.fut.as_ref().is_ok_and(|f| f.wait().is_ok()) && (job.output_ok)()
    }
}

/// Messages to the waiter.
enum Msg {
    /// A job was submitted.
    Job(Job),
    /// Job `op` finished at this time (tracer ns).
    Done(u64, u64),
    /// The generator sent its last request.
    Closed,
}

/// Completion waker: stamps the moment a job's future settles, on the
/// thread that settles it, and tells the waiter.
struct Notify {
    op: u64,
    tracer: Arc<Tracer>,
    tx: mpsc::Sender<Msg>,
}

impl Wake for Notify {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let now = self.tracer.now();
        // The waiter may have gone after the phase; nothing to tell then.
        let _ = self.tx.send(Msg::Done(self.op, now));
    }
}

/// What the waiter saw over one phase.
#[derive(Default)]
struct Seen {
    attempted: [u64; 2],
    failed: [u64; 2],
    /// Interactive latency from due time (failures excluded) and batch
    /// jobs finished inside the window.
    series: Series,
    slo_misses: u64,
    place_job_ms: Vec<f64>,
    admission_ms: [Vec<f64>; 2],
    submit_us: Vec<f64>,
    corr_build_us: Vec<f64>,
    pump_us: Vec<f64>,
    scrape_us: Vec<f64>,
    /// Fleet queue depth, sampled at each pump.
    queue_depth: Vec<f64>,
}

impl crate::Workload for TenantApps {
    const NAME: &'static str = "tenant_apps";
    const HEADLINE: [(&'static str, &'static str); 3] = [
        ("batch_jobs_per_s", "1/s"),
        ("interactive_p50_ms", "ms"),
        ("interactive_p99_ms", "ms"),
    ];
    const CO_RUN: i32 = 2;
    const LATENCY_SCALE: f64 = 1.0;

    fn params() -> Vec<(&'static str, String)> {
        vec![
            ("interactive", format!("open loop, Poisson {RATE}/s, weight {INTERACTIVE_WEIGHT}")),
            ("batch", format!("backlog {BACKLOG}, max_inflight {BATCH_INFLIGHT}")),
            ("slo_ms", SLO_MS.to_string()),
            ("fleet", format!("weighted_fair, max_inflight {MAX_INFLIGHT}")),
            ("cpu_workers", "2".into()),
            ("gpus", "2".into()),
            ("correlation", format!("{GATES} gates, {VIEWS} views, {PATHS_PER_VIEW} paths/view, {REGRESSION_EPOCHS} epochs")),
            ("placement", format!("{CELLS} cells, {PLACE_ITERATIONS} iterations")),
            ("pump_ms", (PUMP_NS / 1_000_000).to_string()),
            ("scrape_ms", (SCRAPE_NS / 1_000_000).to_string()),
            ("client_threads", "2 (generator, waiter)".into()),
        ]
    }

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> TenantApps {
        let recorder = FlightRecorder::shared();
        let ex = Executor::builder(2, 2).observer(recorder.clone()).build();
        let circuit = Arc::new(Circuit::synthesize(&circuit_config(seed)));
        let views = make_views(VIEWS, 0.4);
        let corr_ref = run_correlation(&ex, Arc::clone(&circuit), &views, corr_config())
            .expect("reference correlation run");
        let (db_cfg, place_cfg) = place_inputs(seed);
        let db = PlacementDb::synthesize(&db_cfg);
        let place_ref = detailed_place_sequential(db.clone(), place_cfg).hpwl_trace;
        let fleet = Fleet::with_policy(
            ex,
            FleetConfig {
                max_inflight: MAX_INFLIGHT,
                ..FleetConfig::default()
            },
            Box::new(WeightedFair::new()),
        );
        let interactive = fleet.register(
            "interactive",
            TenantConfig {
                weight: INTERACTIVE_WEIGHT,
                ..TenantConfig::default()
            },
        );
        let batch = fleet.register(
            "batch",
            TenantConfig {
                max_inflight: BATCH_INFLIGHT,
                ..TenantConfig::default()
            },
        );
        let w = TenantApps {
            tracer: Arc::clone(tracer),
            recorder,
            registry: MetricsRegistry::new(),
            fleet,
            interactive,
            batch,
            circuit,
            views,
            corr_ref,
            db,
            place_cfg,
            place_ref,
            seed,
            phase: 0,
            next_op: AtomicU64::new(1),
        };
        let (tx, _rx) = mpsc::channel();
        for kind in [Kind::Interactive, Kind::Batch] {
            let jobs: Vec<Job> = (0..WARMUP_JOBS).map(|_| w.submit(kind, 0, &tx)).collect();
            for j in &jobs {
                assert!(Self::check(j), "warm-up job output matches its reference");
            }
        }
        w.quiesce();
        w
    }

    fn measure(&mut self, seconds: f64) -> Phase {
        let tracer = Arc::clone(&self.tracer);
        let traced = tracer.accepting();
        self.phase += 1;
        let dues = schedule(self.seed, self.phase, seconds);
        let s0 = self.fleet.executor().snapshot();
        let (rec0, drop0) = (
            self.recorder.events_recorded(),
            self.recorder.events_dropped(),
        );

        let clock = WallClock::start();
        let t0 = tracer.at(clock.origin());
        let window_end = t0 + (seconds * 1e9) as u64;
        let (tx, rx) = mpsc::channel::<Msg>();
        let this = &*self;
        let (seen, late) = std::thread::scope(|scope| {
            let waiter_tx = tx.clone();
            let waiter = scope.spawn(move || this.wait_all(rx, &waiter_tx, t0, window_end));
            let late = openloop::drive(&clock, &dues, |i| {
                let due = t0 + (dues[i] * 1e9) as u64;
                let job = this.submit(Kind::Interactive, due, &tx);
                tx.send(Msg::Job(job)).expect("waiter alive");
            });
            // Batch refills stop at the window's end; the waiter then
            // drains what is in flight.
            clock.sleep_until(seconds);
            tx.send(Msg::Closed).expect("waiter alive");
            (waiter.join().expect("waiter thread"), late)
        });
        self.quiesce();
        let s1 = self.fleet.executor().snapshot();
        let mut seen = seen;
        let mut gen_late_ms: Vec<f64> = late.iter().map(|l| l * 1e3).collect();

        let attempted = seen.attempted[0] + seen.attempted[1];
        let failed = seen.failed[0] + seen.failed[1];
        let interactive_n = seen.attempted[0];
        let slo_miss = ratio(
            (seen.slo_misses + seen.failed[0]) as f64,
            interactive_n as f64,
        );
        let named = vec![Metric::new("interactive_slo_miss_frac", slo_miss, "ratio")
            .with_n(interactive_n as usize)];
        let mut lat: Vec<f64> = seen.series.latency.iter().map(|l| l.1).collect();
        let layers = if traced {
            let spans = tracer.snapshot();
            let jobs_done = (seen.attempted[0] + seen.attempted[1]) as f64;
            let d = |f: fn(&StatsSnapshot) -> u64| (f(&s1) - f(&s0)) as f64;
            let acc = Accounting::of(&spans, |_| true);
            let gen_p99 = stats::p50_p99(&mut gen_late_ms).map_or(0.0, |(_, p)| p.value);
            let queue_depth =
                seen.queue_depth.iter().sum::<f64>() / seen.queue_depth.len().max(1) as f64;
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
                ("tasks_per_run", ratio(d(|s| s.tasks_executed), jobs_done)),
                (
                    "topo_cache_hit_ratio",
                    ratio(
                        d(|s| s.topo_cache_hits),
                        d(|s| s.topo_cache_hits) + d(|s| s.topo_cache_misses),
                    ),
                ),
                ("fused_per_run", ratio(d(|s| s.fused), jobs_done)),
                ("placement_imbalance", s1.placement_imbalance),
                ("fleet_submit_us", stats::median(&mut seen.submit_us)),
                (
                    "admission_wait_ms_interactive",
                    stats::median(&mut seen.admission_ms[0]),
                ),
                (
                    "admission_wait_ms_batch",
                    stats::median(&mut seen.admission_ms[1]),
                ),
                ("fleet_queue_depth", queue_depth),
                ("fleet_rejections", d(|s| s.fleet_rejections)),
                (
                    "events_per_job",
                    ratio((self.recorder.events_recorded() - rec0) as f64, jobs_done),
                ),
                (
                    "events_dropped",
                    (self.recorder.events_dropped() - drop0) as f64,
                ),
                ("pump_us", stats::median(&mut seen.pump_us)),
                ("scrape_us", stats::median(&mut seen.scrape_us)),
                ("corr_build_us", stats::median(&mut seen.corr_build_us)),
                ("place_job_ms", stats::median(&mut seen.place_job_ms)),
                ("self_frac.hf-core.fleet", acc.share("hf-core.fleet")),
                ("self_frac.apps", acc.share("apps")),
                ("self_frac.body", acc.share("body")),
                ("gen_late_ms_p99", gen_p99),
            ]
        } else {
            Vec::new()
        };
        Phase {
            attempted,
            failed,
            series: seen.series,
            named,
            sample_p50_ms: stats::median(&mut lat),
            layers,
        }
    }
}

impl TenantApps {
    /// The waiter, the server side of the loop: checks and records jobs
    /// as their completion wakers report them, keeps the batch backlog
    /// full until `window_end`, pumps the flight recorder and renders
    /// `/metrics` on schedule, and returns once the generator is done and
    /// every job in flight has finished.
    fn wait_all(
        &self,
        rx: mpsc::Receiver<Msg>,
        tx: &mpsc::Sender<Msg>,
        t0: u64,
        window_end: u64,
    ) -> Seen {
        let tracer = &self.tracer;
        let mut seen = Seen {
            series: Series::with_capacity(1 << 16),
            ..Seen::default()
        };
        let mut inflight: HashMap<u64, Job> = HashMap::new();
        // Completions reported before their job reached the waiter.
        let mut early: HashMap<u64, u64> = HashMap::new();
        for _ in 0..BACKLOG {
            let job = self.submit(Kind::Batch, tracer.now(), tx);
            inflight.insert(job.op, job);
        }
        let (mut next_pump, mut next_scrape) = (t0 + PUMP_NS, t0 + SCRAPE_NS);
        let mut open = true;
        while open || !inflight.is_empty() {
            let now = tracer.now();
            seen.series.sample_cpu((now - t0) as f64 / 1e9);
            if now >= next_pump && now < window_end {
                next_pump += PUMP_NS;
                self.recorder.pump();
                seen.queue_depth.push(self.fleet.snapshot().queued as f64);
                seen.pump_us.push(self.background("telemetry.pump", now));
            }
            if now >= next_scrape && now < window_end {
                next_scrape += SCRAPE_NS;
                let start = tracer.now();
                self.recorder.export_into(&self.registry);
                let text = self.registry.prometheus_text();
                assert!(
                    text.contains("hf_run_latency_nanos"),
                    "/metrics exposes run latency"
                );
                seen.scrape_us
                    .push(self.background("telemetry.scrape", start));
            }
            let wake_at = next_pump.min(next_scrape).max(tracer.now());
            let msg =
                match rx.recv_timeout(Duration::from_nanos(wake_at - tracer.now().min(wake_at))) {
                    Ok(msg) => msg,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        unreachable!("the waiter holds a sender")
                    }
                };
            let (job, done) = match msg {
                Msg::Closed => {
                    open = false;
                    continue;
                }
                Msg::Job(job) => match early.remove(&job.op) {
                    Some(done) => (job, done),
                    None => {
                        inflight.insert(job.op, job);
                        continue;
                    }
                },
                Msg::Done(op, done) => match inflight.remove(&op) {
                    Some(job) => (job, done),
                    None => {
                        early.insert(op, done);
                        continue;
                    }
                },
            };
            self.finish(&job, done, t0, window_end, &mut seen);
            if job.kind == Kind::Batch && tracer.now() < window_end {
                let job = self.submit(Kind::Batch, tracer.now(), tx);
                inflight.insert(job.op, job);
            }
        }
        seen
    }

    /// Records a span outside any job from `start` to now; returns its
    /// length in us.
    fn background(&self, name: &'static str, start: u64) -> f64 {
        let end = self.tracer.now();
        if self.tracer.on() {
            self.tracer.record(Span {
                op: 0,
                id: ROOT,
                parent: NONE,
                name,
                tag: 0,
                start,
                end,
            });
        }
        (end - start) as f64 / 1e3
    }

    /// Records one finished job.
    fn finish(&self, job: &Job, done: u64, t0: u64, window_end: u64, seen: &mut Seen) {
        let k = job.kind as usize;
        let t = (done - t0) as f64 / 1e9;
        let ok = Self::check(job);
        seen.attempted[k] += 1;
        seen.failed[k] += u64::from(!ok);
        let started = job.started.load(Ordering::Relaxed);
        if started > 0 {
            seen.admission_ms[k].push((started as f64 - job.submit_end as f64) / 1e6);
        }
        seen.submit_us
            .push((job.submit_end - job.build_end) as f64 / 1e3);
        match job.kind {
            Kind::Interactive => {
                let ms = openloop::latency_from_due(job.due as f64, done as f64) / 1e6;
                if ok {
                    seen.series.latency.push((t, ms));
                }
                seen.slo_misses += u64::from(ok && ms > SLO_MS);
                seen.corr_build_us
                    .push((job.build_end - job.build_start) as f64 / 1e3);
            }
            Kind::Batch => {
                seen.place_job_ms.push((done - job.due) as f64 / 1e6);
                if ok && done <= window_end {
                    seen.series.work.push((t, 1.0));
                }
            }
        }
        if self.tracer.on() {
            let span = |id, parent, name, start, end| Span {
                op: job.op,
                id,
                parent,
                name,
                tag: k as u32,
                start,
                end,
            };
            let build = match job.kind {
                Kind::Interactive => "app.corr_build",
                Kind::Batch => "app.place_build",
            };
            self.tracer.record(span(ROOT, NONE, "op", job.due, done));
            self.tracer
                .record(span(BUILD, ROOT, build, job.build_start, job.build_end));
            self.tracer.record(span(
                SUBMIT,
                ROOT,
                "fleet.submit",
                job.build_end,
                job.submit_end,
            ));
            if started > 0 {
                self.tracer
                    .record(span(PROBE, ROOT, "host.probe", started, started));
            }
        }
    }
}
