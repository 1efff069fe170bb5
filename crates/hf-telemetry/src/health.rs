//! Runtime health layer: task-lifecycle flight recorder, latency
//! attribution, and a straggler/hang watchdog.
//!
//! The executor emits a [`LifecycleEvent`] at every task transition
//! (submit → ready → started → dispatched → finished/retried/failed,
//! plus run start/end) through the [`hf_core::ExecutorObserver`]
//! `on_lifecycle` hook. The [`FlightRecorder`] is the observer that
//! captures them: the hot path is one enabled check plus a lock-free
//! [`EventRing`] push, so recording never blocks a worker, and a
//! *disabled* recorder costs a single relaxed atomic load (the same
//! `is_active` fast path the span tracer uses — with every observer
//! inactive the executor never even constructs the event).
//!
//! Everything stateful happens off the hot path in
//! [`FlightRecorder::pump`], which drains the ring and folds events into
//! per-run flight logs ("black boxes"), latency-attribution histograms
//! (`queue delay = started − ready`, `exec = finished − started`,
//! `run latency = run_end − run_start`), and per-task execution-time
//! EWMAs. The [`Watchdog`] runs `pump` on its own monitor thread, watches
//! armed runs for no-progress windows and stragglers, and escalates
//! structured [`HealthEvent`]s (warn → stall → hang), optionally tripping
//! cooperative cancellation at a deadline.

use crate::metrics::{duration_bounds_nanos, Histogram, MetricsRegistry};
use hf_core::{
    lifecycle_now_ns, ExecutorObserver, LifecycleEvent, LifecyclePhase, RunFuture,
    TaskMeta,
};
use hf_sync::EventRing;
use parking_lot::Mutex;
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default capacity of the lock-free event ring (events between pumps
/// beyond this are dropped and counted, never blocked on).
const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// Default cap on events kept per run in the flight log. Timing and
/// counters keep updating past the cap; only the verbatim event list is
/// truncated (with a drop count).
const DEFAULT_PER_RUN_CAP: usize = 8 * 1024;

/// Completed runs retained for `/runs` summaries and dumps.
const DEFAULT_KEEP_COMPLETED: usize = 16;

/// EWMA smoothing for per-task execution-time estimates.
const EWMA_ALPHA: f64 = 0.25;

/// Events `pump` takes from the ring at a time. Each chunk is sorted by
/// `t_ns` and folded in one reused buffer, so a long backlog never
/// gathers in one allocation beside the ring.
const PUMP_CHUNK: usize = 1024;

/// Per-task timing state inside one run's flight log. Each stamp waits
/// here until its partner arrives, so pairing does not depend on the
/// order events are folded in: a `Finished` folded before its `Started`
/// (across a chunk or pump boundary) is paired when the `Started` lands.
#[derive(Debug, Default, Clone)]
struct TaskTiming {
    name: Option<Arc<str>>,
    /// `Ready` not yet paired with a begin.
    ready_ns: Option<u64>,
    /// Begin (earliest `Started`/`Dispatched`) of the current execution.
    started_ns: Option<u64>,
    /// Successful `Finished` not yet paired with its begin.
    finished_ns: Option<u64>,
    retries: u32,
    failures: u32,
}

impl TaskTiming {
    /// Pairs what the stamps now allow: the begin with its `Ready`
    /// (queue delay) and with its successful `Finished` (exec time).
    /// Returns the `(queue, exec)` samples, in ns.
    fn pair(&mut self) -> (Option<f64>, Option<f64>) {
        let Some(s) = self.started_ns else {
            return (None, None);
        };
        let queue = match self.ready_ns {
            Some(r) if r <= s => {
                self.ready_ns = None;
                Some((s - r) as f64)
            }
            _ => None,
        };
        let exec = match self.finished_ns.take() {
            Some(f) if f >= s => {
                self.started_ns = None;
                Some((f - s) as f64)
            }
            // A finish stamped before this begin belongs to an earlier
            // execution whose begin was never seen.
            _ => None,
        };
        (queue, exec)
    }

    /// Ends the current execution without a sample (failure, retry).
    fn abandon(&mut self) {
        self.ready_ns = None;
        self.started_ns = None;
        self.finished_ns = None;
    }
}

/// One run's flight log: the bounded event list plus derived state.
#[derive(Debug)]
struct RunFlight {
    run_id: u64,
    graph: Arc<str>,
    /// Tenant the run is attributed to, captured from the first
    /// lifecycle event that carries one (fleet submissions only).
    tenant: Option<Arc<str>>,
    events: Vec<LifecycleEvent>,
    events_applied: u64,
    events_dropped: u64,
    started_ns: u64,
    ended_ns: Option<u64>,
    ok: Option<bool>,
    detail: Option<Arc<str>>,
    failovers: u32,
    tasks: HashMap<u32, TaskTiming>,
    /// Admission time of in-flight streaming epochs (`EpochStart` seen,
    /// `EpochEnd` pending), keyed by epoch index.
    epoch_started: HashMap<u64, u64>,
    /// Streaming epochs completed in this run.
    epochs_completed: u64,
}

impl RunFlight {
    fn new(run_id: u64, graph: Arc<str>, t_ns: u64) -> Self {
        Self {
            run_id,
            graph,
            tenant: None,
            events: Vec::new(),
            events_applied: 0,
            events_dropped: 0,
            started_ns: t_ns,
            ended_ns: None,
            ok: None,
            detail: None,
            failovers: 0,
            tasks: HashMap::new(),
            epoch_started: HashMap::new(),
            epochs_completed: 0,
        }
    }

    fn done(&self) -> bool {
        self.ended_ns.is_some()
    }

    fn last_event_ns(&self) -> u64 {
        self.events.last().map(|e| e.t_ns).unwrap_or(self.started_ns)
    }
}

/// Point-in-time progress of one run, for monitors: how many events have
/// been applied, when the last one landed, and which tasks are in flight.
#[derive(Debug, Clone)]
pub struct RunProgress {
    /// Lifecycle events folded into the run so far.
    pub events: u64,
    /// Timestamp (lifecycle clock, ns) of the latest event.
    pub last_event_ns: u64,
    /// True once the run's `RunEnd` event has been applied.
    pub done: bool,
    /// Tasks with a `Started` but no terminal event yet:
    /// `(task id, name, started_ns)`.
    pub inflight: Vec<(u32, Arc<str>, u64)>,
}

/// Compact description of one recorded run, for `/runs` and JSON dumps.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Process-unique submission id.
    pub run_id: u64,
    /// Graph name.
    pub graph: String,
    /// Run start (lifecycle clock, ns).
    pub started_ns: u64,
    /// Run end, when finished.
    pub ended_ns: Option<u64>,
    /// Result, when finished.
    pub ok: Option<bool>,
    /// Error detail for failed runs.
    pub detail: Option<String>,
    /// Lifecycle events applied to this run.
    pub events: u64,
    /// Distinct tasks observed.
    pub tasks: usize,
    /// Task retries observed.
    pub retries: u64,
    /// Task failures observed (terminal and retried alike).
    pub failures: u64,
    /// Whole-run failovers (placement replays after device loss).
    pub failovers: u64,
    /// Tenant the run is attributed to (fleet submissions only).
    pub tenant: Option<String>,
}

/// Per-tenant latency attribution, aggregated across that tenant's runs.
#[derive(Debug, Clone)]
pub struct TenantLatency {
    /// Tenant name.
    pub tenant: String,
    /// Completed runs attributed to the tenant.
    pub runs: u64,
    /// Completed runs that ended in failure or cancellation.
    pub failed: u64,
    /// Ready-to-started queue delay per task execution (ns).
    pub queue_delay: Histogram,
    /// Started-to-finished execution time per task (ns).
    pub exec: Histogram,
    /// Submit-to-completion latency per run (ns).
    pub run_latency: Histogram,
}

/// Mutable per-tenant fold state inside `FlightState`.
#[derive(Debug)]
struct TenantHists {
    runs: u64,
    failed: u64,
    queue_delay: Histogram,
    exec: Histogram,
    run_latency: Histogram,
}

impl TenantHists {
    fn new() -> Self {
        Self {
            runs: 0,
            failed: 0,
            queue_delay: Histogram::new(duration_bounds_nanos()),
            exec: Histogram::new(duration_bounds_nanos()),
            run_latency: Histogram::new(duration_bounds_nanos()),
        }
    }
}

/// Aggregated latency-attribution and EWMA state.
struct FlightState {
    runs: Vec<RunFlight>,
    /// `pump`'s reused chunk buffer (at most [`PUMP_CHUNK`] events).
    chunk: Vec<LifecycleEvent>,
    ewma: HashMap<(Arc<str>, u32), f64>,
    queue_delay: Histogram,
    exec: Histogram,
    run_latency: Histogram,
    /// Admission-to-completion latency of streaming epochs
    /// (`epoch_end − epoch_start`, ns).
    epoch_latency: Histogram,
    /// Per-tenant attribution, keyed by tenant name. Populated only by
    /// runs whose events carry a tenant (fleet submissions); direct
    /// submissions land solely in the unlabeled aggregates above.
    tenants: HashMap<Arc<str>, TenantHists>,
}

impl FlightState {
    fn new() -> Self {
        Self {
            runs: Vec::new(),
            chunk: Vec::new(),
            ewma: HashMap::new(),
            queue_delay: Histogram::new(duration_bounds_nanos()),
            exec: Histogram::new(duration_bounds_nanos()),
            run_latency: Histogram::new(duration_bounds_nanos()),
            epoch_latency: Histogram::new(duration_bounds_nanos()),
            tenants: HashMap::new(),
        }
    }

    fn tenant_mut(&mut self, tenant: &Arc<str>) -> &mut TenantHists {
        self.tenants
            .entry(Arc::clone(tenant))
            .or_insert_with(TenantHists::new)
    }

    fn run_mut(&mut self, ev: &LifecycleEvent) -> &mut RunFlight {
        if let Some(i) = self.runs.iter().position(|r| r.run_id == ev.run_id) {
            return &mut self.runs[i];
        }
        self.runs
            .push(RunFlight::new(ev.run_id, Arc::clone(&ev.graph), ev.t_ns));
        self.runs.last_mut().expect("just pushed")
    }
}

/// Bounded, structured "black box" for task execution.
///
/// Install on an executor with
/// `Executor::builder(..).observer(recorder.clone()).build()`; call
/// [`FlightRecorder::pump`] (or let a [`Watchdog`] do it) to fold the
/// raw ring into per-run flight logs and latency histograms. On a failed
/// or cancelled run the recorder can auto-write the run's black box as a
/// JSON artifact ([`FlightRecorder::set_blackbox_dir`]).
pub struct FlightRecorder {
    enabled: AtomicBool,
    ring: EventRing<LifecycleEvent>,
    recorded: AtomicU64,
    state: Mutex<FlightState>,
    blackbox_dir: Mutex<Option<PathBuf>>,
    per_run_cap: usize,
    keep_completed: usize,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// An enabled recorder with default capacities.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled recorder with the given ring capacity.
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(true),
            ring: EventRing::new(ring_capacity),
            recorded: AtomicU64::new(0),
            state: Mutex::new(FlightState::new()),
            blackbox_dir: Mutex::new(None),
            per_run_cap: DEFAULT_PER_RUN_CAP,
            keep_completed: DEFAULT_KEEP_COMPLETED,
        }
    }

    /// A recorder in shared form, ready to hand to
    /// `ExecutorBuilder::observer`.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Enables or disables recording. Disabled, the recorder reports
    /// inactive through `is_active`, so an executor with no other active
    /// observer skips lifecycle emission entirely.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// True when recording.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Directory where failed/cancelled runs auto-write their black-box
    /// JSON on pump (`None` disables; files are named
    /// `blackbox_run<id>.json`).
    pub fn set_blackbox_dir(&self, dir: Option<PathBuf>) {
        *self.blackbox_dir.lock() = dir;
    }

    /// Lifecycle events accepted by the hot path so far.
    pub fn events_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events lost to ring overflow (pump more often, or grow the ring).
    pub fn events_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Drains the ring and folds events into per-run flight logs,
    /// latency histograms, and execution-time EWMAs. Returns the number
    /// of events applied. Cheap when idle; call from a monitor thread,
    /// on scrape, or after `wait()`.
    pub fn pump(&self) -> usize {
        // Drain under the state lock so concurrent pumps (a watchdog and a
        // caller) fold whole batches in turn: when `pump` returns, every
        // event pushed before it began has been folded and dumped.
        let mut st = self.state.lock();
        let mut chunk = std::mem::take(&mut st.chunk);
        let mut failed_runs = Vec::new();
        let mut n = 0;
        loop {
            while chunk.len() < PUMP_CHUNK {
                match self.ring.pop() {
                    Some(ev) => chunk.push(ev),
                    None => break,
                }
            }
            if chunk.is_empty() {
                break;
            }
            // Threads stamp `t_ns` before they push, so the queue can
            // deliver near-simultaneous events out of timestamp order.
            // Fold each chunk in stamp order; task pairing tolerates the
            // inversions that straddle chunks.
            chunk.sort_by_key(|ev| ev.t_ns);
            n += chunk.len();
            for ev in chunk.drain(..) {
                self.fold(&mut st, ev, &mut failed_runs);
            }
        }
        st.chunk = chunk;
        // Auto-dump black boxes for runs that just failed/cancelled.
        if !failed_runs.is_empty() {
            if let Some(dir) = self.blackbox_dir.lock().clone() {
                for run_id in failed_runs {
                    if let Some(v) = Self::run_json_locked(&st, run_id) {
                        let path = dir.join(format!("blackbox_run{run_id}.json"));
                        let _ = std::fs::create_dir_all(&dir);
                        let _ = std::fs::write(
                            &path,
                            serde_json::to_string_pretty(&v).expect("infallible"),
                        );
                    }
                }
            }
        }
        n
    }

    /// Folds one event into its run's flight log and the aggregates;
    /// records the run id in `failed_runs` when a failed run ends.
    fn fold(&self, st: &mut FlightState, ev: LifecycleEvent, failed_runs: &mut Vec<u64>) {
        let (graph, task) = (Arc::clone(&ev.graph), ev.task);
        let tenant = ev.tenant.clone();
        // Derived observations, applied after the run borrow ends.
        let (mut queue_obs, mut exec_obs) = (None, None);
        let mut run_obs = None;
        let mut epoch_obs = None;
        let mut ended = false;
        {
            let cap = self.per_run_cap;
            let run = st.run_mut(&ev);
            run.events_applied += 1;
            if run.tenant.is_none() {
                if let Some(t) = &tenant {
                    run.tenant = Some(Arc::clone(t));
                }
            }
            match (ev.phase, ev.task) {
                (LifecyclePhase::RunStart, _) => {
                    run.started_ns = ev.t_ns;
                }
                (LifecyclePhase::Ready, Some(t)) => {
                    let tt = run.tasks.entry(t).or_default();
                    tt.name = Some(Arc::clone(&ev.name));
                    // A begin stamped before this Ready belongs to an
                    // earlier execution that never finished.
                    if tt.started_ns.is_some_and(|s| s < ev.t_ns) {
                        tt.started_ns = None;
                    }
                    tt.ready_ns = Some(ev.t_ns);
                    (queue_obs, exec_obs) = tt.pair();
                }
                (LifecyclePhase::Started | LifecyclePhase::Dispatched, Some(t)) => {
                    let tt = run.tasks.entry(t).or_default();
                    tt.name = Some(Arc::clone(&ev.name));
                    // A chain member gets Dispatched without its own
                    // Started; keep the earliest begin time.
                    tt.started_ns = Some(tt.started_ns.map_or(ev.t_ns, |s| s.min(ev.t_ns)));
                    (queue_obs, exec_obs) = tt.pair();
                }
                (LifecyclePhase::Finished, Some(t)) => {
                    let tt = run.tasks.entry(t).or_default();
                    if ev.ok {
                        tt.finished_ns = Some(ev.t_ns);
                        (queue_obs, exec_obs) = tt.pair();
                    } else {
                        tt.abandon();
                    }
                }
                (LifecyclePhase::Retried, Some(t)) => {
                    let tt = run.tasks.entry(t).or_default();
                    tt.retries += 1;
                    tt.failures += 1;
                    tt.abandon();
                }
                (LifecyclePhase::Failed, Some(t)) => {
                    let tt = run.tasks.entry(t).or_default();
                    tt.failures += 1;
                    tt.abandon();
                }
                (LifecyclePhase::Failover, _) => {
                    run.failovers += 1;
                }
                (LifecyclePhase::EpochStart, _) => {
                    if let Some(e) = ev.epoch {
                        run.epoch_started.insert(e, ev.t_ns);
                    }
                }
                (LifecyclePhase::EpochEnd, _) => {
                    if let Some(e) = ev.epoch {
                        run.epochs_completed += 1;
                        if let Some(s) = run.epoch_started.remove(&e) {
                            epoch_obs = Some(ev.t_ns.saturating_sub(s) as f64);
                        }
                    }
                }
                (LifecyclePhase::RunEnd, _) => {
                    run.ended_ns = Some(ev.t_ns);
                    run.ok = Some(ev.ok);
                    run.detail = ev.detail.clone();
                    run_obs = Some((ev.t_ns.saturating_sub(run.started_ns) as f64, ev.ok));
                    if !ev.ok {
                        failed_runs.push(ev.run_id);
                    }
                    ended = true;
                }
                // Task phases without a task id, and future phases
                // (`LifecyclePhase` is non_exhaustive), still land in the
                // event log below.
                _ => {}
            }
            // Keep the verbatim event (bounded per run) — terminal
            // RunEnd included, so a pumped black box always carries the
            // run's outcome. Insert by `t_ns`, searching from the back, in
            // case an inversion straddles two chunks or pumps.
            if run.events.len() < cap {
                let at = run
                    .events
                    .iter()
                    .rposition(|e| e.t_ns <= ev.t_ns)
                    .map_or(0, |i| i + 1);
                run.events.insert(at, ev);
            } else {
                run.events_dropped += 1;
            }
        }
        if let Some(q) = queue_obs {
            st.queue_delay.observe(q);
            if let Some(t) = &tenant {
                st.tenant_mut(t).queue_delay.observe(q);
            }
        }
        if let (Some(e), Some(task)) = (exec_obs, task) {
            st.exec.observe(e);
            if let Some(t) = &tenant {
                st.tenant_mut(t).exec.observe(e);
            }
            let ewma = st.ewma.entry((graph, task)).or_insert(e);
            *ewma = (1.0 - EWMA_ALPHA) * *ewma + EWMA_ALPHA * e;
        }
        if let Some((l, run_ok)) = run_obs {
            st.run_latency.observe(l);
            if let Some(t) = &tenant {
                let th = st.tenant_mut(t);
                th.run_latency.observe(l);
                th.runs += 1;
                if !run_ok {
                    th.failed += 1;
                }
            }
        }
        if let Some(l) = epoch_obs {
            st.epoch_latency.observe(l);
        }
        if ended {
            // Trim completed runs beyond the retention window (active
            // runs are never evicted).
            let completed = st.runs.iter().filter(|r| r.done()).count();
            for _ in self.keep_completed..completed {
                if let Some(i) = st.runs.iter().position(|r| r.done()) {
                    st.runs.remove(i);
                }
            }
        }
    }

    /// Current progress of one run (after a pump), for monitors.
    pub fn run_progress(&self, run_id: u64) -> Option<RunProgress> {
        let st = self.state.lock();
        let run = st.runs.iter().find(|r| r.run_id == run_id)?;
        let inflight = run
            .tasks
            .iter()
            .filter_map(|(&t, tt)| {
                let s = tt.started_ns?;
                Some((t, tt.name.clone().unwrap_or_else(|| Arc::from("")), s))
            })
            .collect();
        Some(RunProgress {
            events: run.events_applied,
            last_event_ns: run.last_event_ns(),
            done: run.done(),
            inflight,
        })
    }

    /// EWMA execution-time estimate (ns) for `task` of `graph`, learned
    /// from finished executions. The watchdog compares in-flight runtimes
    /// against this to flag stragglers.
    pub fn exec_estimate(&self, graph: &str, task: u32) -> Option<f64> {
        let st = self.state.lock();
        st.ewma
            .iter()
            .find(|((g, t), _)| g.as_ref() == graph && *t == task)
            .map(|(_, &v)| v)
    }

    /// Summaries of all retained runs, newest last.
    pub fn summaries(&self) -> Vec<RunSummary> {
        let st = self.state.lock();
        st.runs
            .iter()
            .map(|r| RunSummary {
                run_id: r.run_id,
                graph: r.graph.to_string(),
                started_ns: r.started_ns,
                ended_ns: r.ended_ns,
                ok: r.ok,
                detail: r.detail.as_ref().map(|d| d.to_string()),
                events: r.events_applied,
                tasks: r.tasks.len(),
                retries: r.tasks.values().map(|t| t.retries as u64).sum(),
                failures: r.tasks.values().map(|t| t.failures as u64).sum(),
                failovers: r.failovers as u64,
                tenant: r.tenant.as_ref().map(|t| t.to_string()),
            })
            .collect()
    }

    /// Per-tenant latency attribution, sorted by tenant name. Empty
    /// unless runs entered through a fleet (direct submissions carry no
    /// tenant and fold only into the unlabeled aggregates).
    pub fn tenant_latencies(&self) -> Vec<TenantLatency> {
        let st = self.state.lock();
        let mut out: Vec<TenantLatency> = st
            .tenants
            .iter()
            .map(|(name, th)| TenantLatency {
                tenant: name.to_string(),
                runs: th.runs,
                failed: th.failed,
                queue_delay: th.queue_delay.clone(),
                exec: th.exec.clone(),
                run_latency: th.run_latency.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Per-tenant attribution as one JSON document (for `/tenants`):
    /// run counts plus p50/p99 of each latency histogram.
    pub fn tenants_json(&self) -> Value {
        let tenants = self.tenant_latencies();
        let mut arr = Vec::with_capacity(tenants.len());
        for t in tenants {
            let mut o = Map::new();
            o.insert("tenant".into(), Value::Str(t.tenant));
            o.insert("runs".into(), Value::UInt(t.runs));
            o.insert("failed".into(), Value::UInt(t.failed));
            for (key, h) in [
                ("queue_delay_ns", &t.queue_delay),
                ("exec_ns", &t.exec),
                ("run_latency_ns", &t.run_latency),
            ] {
                let mut l = Map::new();
                l.insert("count".into(), Value::UInt(h.count));
                l.insert("p50".into(), Value::Float(h.quantile(0.5)));
                l.insert("p99".into(), Value::Float(h.quantile(0.99)));
                o.insert(key.into(), Value::Object(l));
            }
            arr.push(Value::Object(o));
        }
        let mut o = Map::new();
        o.insert("schema".into(), Value::Str("hf-tenants-v1".into()));
        o.insert("tenants".into(), Value::Array(arr));
        Value::Object(o)
    }

    /// The attribution histograms (queue delay, exec, run latency).
    pub fn latency_histograms(&self) -> (Histogram, Histogram, Histogram) {
        let st = self.state.lock();
        (
            st.queue_delay.clone(),
            st.exec.clone(),
            st.run_latency.clone(),
        )
    }

    /// The streaming epoch latency histogram (admission-to-completion per
    /// epoch, ns). Populated only by sessions opened with
    /// `Executor::run_stream`; sequential runs never emit epoch events.
    pub fn epoch_latency_histogram(&self) -> Histogram {
        self.state.lock().epoch_latency.clone()
    }

    /// Publishes the recorder's aggregates into a [`MetricsRegistry`]:
    /// `hf_task_queue_delay_nanos`, `hf_task_exec_nanos`,
    /// `hf_run_latency_nanos` histograms plus recorder counters.
    pub fn export_into(&self, reg: &MetricsRegistry) {
        let (qd, ex, rl) = self.latency_histograms();
        reg.set_histogram(
            "hf_task_queue_delay_nanos",
            "Ready-to-started queue delay per task execution (ns)",
            &[],
            qd,
        );
        reg.set_histogram(
            "hf_task_exec_nanos",
            "Started-to-finished execution time per task (ns; device time included for GPU tasks)",
            &[],
            ex,
        );
        reg.set_histogram(
            "hf_run_latency_nanos",
            "Submit-to-completion latency per run (ns)",
            &[],
            rl,
        );
        reg.set_histogram(
            "hf_epoch_latency_nanos",
            "Admission-to-completion latency per streaming epoch (ns)",
            &[],
            self.epoch_latency_histogram(),
        );
        // Per-tenant labeled series ride alongside the unlabeled
        // aggregates above (which keep folding every run, tenanted or
        // not, so existing dashboards stay stable).
        for t in self.tenant_latencies() {
            let labels = &[("tenant", t.tenant.as_str())];
            reg.set_histogram(
                "hf_task_queue_delay_nanos",
                "Ready-to-started queue delay per task execution (ns)",
                labels,
                t.queue_delay,
            );
            reg.set_histogram(
                "hf_task_exec_nanos",
                "Started-to-finished execution time per task (ns; device time included for GPU tasks)",
                labels,
                t.exec,
            );
            reg.set_histogram(
                "hf_run_latency_nanos",
                "Submit-to-completion latency per run (ns)",
                labels,
                t.run_latency,
            );
            reg.set_counter(
                "hf_tenant_runs_total",
                "Completed runs attributed to the tenant",
                labels,
                t.runs,
            );
            reg.set_counter(
                "hf_tenant_runs_failed_total",
                "Completed runs attributed to the tenant that failed or were cancelled",
                labels,
                t.failed,
            );
        }
        reg.set_counter(
            "hf_flight_events_recorded_total",
            "Lifecycle events accepted by the flight recorder",
            &[],
            self.events_recorded(),
        );
        reg.set_counter(
            "hf_flight_events_dropped_total",
            "Lifecycle events lost to ring overflow",
            &[],
            self.events_dropped(),
        );
    }

    fn event_json(ev: &LifecycleEvent) -> Value {
        let mut o = Map::new();
        o.insert("t_ns".into(), Value::UInt(ev.t_ns));
        o.insert("phase".into(), Value::Str(ev.phase.name().to_string()));
        o.insert("run_id".into(), Value::UInt(ev.run_id));
        o.insert("graph".into(), Value::Str(ev.graph.to_string()));
        if let Some(t) = ev.task {
            o.insert("task".into(), Value::UInt(t as u64));
        }
        o.insert("name".into(), Value::Str(ev.name.to_string()));
        if let Some(k) = ev.kind {
            o.insert("kind".into(), Value::Str(k.to_string()));
        }
        if let Some(d) = ev.device {
            o.insert("device".into(), Value::UInt(d as u64));
        }
        if let Some(w) = ev.worker {
            o.insert("worker".into(), Value::UInt(w as u64));
        }
        if let Some(c) = ev.chain {
            o.insert("chain".into(), Value::UInt(c as u64));
        }
        if let Some(e) = ev.epoch {
            o.insert("epoch".into(), Value::UInt(e));
        }
        if ev.bytes > 0 {
            o.insert("bytes".into(), Value::UInt(ev.bytes));
        }
        o.insert("ok".into(), Value::Bool(ev.ok));
        if let Some(d) = &ev.detail {
            o.insert("detail".into(), Value::Str(d.to_string()));
        }
        if let Some(t) = &ev.tenant {
            o.insert("tenant".into(), Value::Str(t.to_string()));
        }
        Value::Object(o)
    }

    fn run_json_locked(st: &FlightState, run_id: u64) -> Option<Value> {
        let run = st.runs.iter().find(|r| r.run_id == run_id)?;
        let mut o = Map::new();
        o.insert("run_id".into(), Value::UInt(run.run_id));
        o.insert("graph".into(), Value::Str(run.graph.to_string()));
        if let Some(t) = &run.tenant {
            o.insert("tenant".into(), Value::Str(t.to_string()));
        }
        o.insert("started_ns".into(), Value::UInt(run.started_ns));
        match run.ended_ns {
            Some(e) => o.insert("ended_ns".into(), Value::UInt(e)),
            None => o.insert("ended_ns".into(), Value::Null),
        };
        match run.ok {
            Some(ok) => o.insert("ok".into(), Value::Bool(ok)),
            None => o.insert("ok".into(), Value::Null),
        };
        if let Some(d) = &run.detail {
            o.insert("detail".into(), Value::Str(d.to_string()));
        }
        if run.epochs_completed > 0 {
            o.insert("epochs_completed".into(), Value::UInt(run.epochs_completed));
        }
        o.insert("events_applied".into(), Value::UInt(run.events_applied));
        o.insert("events_dropped".into(), Value::UInt(run.events_dropped));
        o.insert(
            "events".into(),
            Value::Array(run.events.iter().map(Self::event_json).collect()),
        );
        Some(Value::Object(o))
    }

    /// One run's flight log as JSON (its black box), if retained.
    pub fn dump_run_json(&self, run_id: u64) -> Option<Value> {
        let st = self.state.lock();
        Self::run_json_locked(&st, run_id)
    }

    /// Every retained run's flight log as one JSON document.
    pub fn dump_json(&self) -> Value {
        let st = self.state.lock();
        let ids: Vec<u64> = st.runs.iter().map(|r| r.run_id).collect();
        let mut o = Map::new();
        o.insert("schema".into(), Value::Str("hf-flight-recorder-v1".into()));
        o.insert(
            "events_recorded".into(),
            Value::UInt(self.recorded.load(Ordering::Relaxed)),
        );
        o.insert("events_dropped".into(), Value::UInt(self.ring.dropped()));
        o.insert(
            "runs".into(),
            Value::Array(
                ids.iter()
                    .filter_map(|&id| Self::run_json_locked(&st, id))
                    .collect(),
            ),
        );
        Value::Object(o)
    }

    /// Writes the full flight dump to `path` as pretty JSON.
    pub fn write_blackbox(&self, path: &Path) -> std::io::Result<()> {
        self.pump();
        let v = self.dump_json();
        std::fs::write(path, serde_json::to_string_pretty(&v).expect("infallible"))
    }
}

impl ExecutorObserver for FlightRecorder {
    fn on_task_begin(&self, _meta: &TaskMeta<'_>) {}
    fn on_task_end(&self, _meta: &TaskMeta<'_>) {}

    fn is_active(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn on_lifecycle(&self, event: &LifecycleEvent) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        // Push never blocks; overflow is counted by the ring.
        let _ = self.ring.push(event.clone());
    }
}

/// Watchdog severity ladder, worst first when comparing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthVerdict {
    /// Armed runs are progressing (or none are armed).
    Healthy,
    /// A run has gone quiet longer than `warn_after`.
    Warn,
    /// A run has gone quiet longer than `stall_after`.
    Stall,
    /// A run has gone quiet longer than `hang_after`.
    Hang,
}

impl HealthVerdict {
    /// Stable lowercase name (`healthy`/`warn`/`stall`/`hang`).
    pub fn name(self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Warn => "warn",
            HealthVerdict::Stall => "stall",
            HealthVerdict::Hang => "hang",
        }
    }
}

impl std::fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured watchdog observation.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthEvent {
    /// A run produced no lifecycle events for `idle_ns` (first rung).
    Warn {
        /// Affected run.
        run_id: u64,
        /// Quiet time when the event fired (ns).
        idle_ns: u64,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
    /// The quiet window crossed the stall threshold.
    Stall {
        /// Affected run.
        run_id: u64,
        /// Quiet time when the event fired (ns).
        idle_ns: u64,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
    /// The quiet window crossed the hang threshold.
    Hang {
        /// Affected run.
        run_id: u64,
        /// Quiet time when the event fired (ns).
        idle_ns: u64,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
    /// One task has run far past its learned estimate.
    Straggler {
        /// Affected run.
        run_id: u64,
        /// Straggling task id.
        task: u32,
        /// Task name.
        name: String,
        /// Runtime so far (ns).
        runtime_ns: u64,
        /// EWMA estimate it is compared against (ns).
        estimate_ns: u64,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
    /// A previously warned/stalled/hung run made progress or finished.
    Recovered {
        /// Affected run.
        run_id: u64,
        /// Severity it recovered from.
        from: HealthVerdict,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
    /// The watchdog tripped cooperative cancellation at its deadline.
    DeadlineCancelled {
        /// Affected run.
        run_id: u64,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
}

impl HealthEvent {
    /// The run the event concerns.
    pub fn run_id(&self) -> u64 {
        match self {
            HealthEvent::Warn { run_id, .. }
            | HealthEvent::Stall { run_id, .. }
            | HealthEvent::Hang { run_id, .. }
            | HealthEvent::Straggler { run_id, .. }
            | HealthEvent::Recovered { run_id, .. }
            | HealthEvent::DeadlineCancelled { run_id, .. } => *run_id,
        }
    }

    /// Stable lowercase kind name.
    pub fn kind(&self) -> &'static str {
        match self {
            HealthEvent::Warn { .. } => "warn",
            HealthEvent::Stall { .. } => "stall",
            HealthEvent::Hang { .. } => "hang",
            HealthEvent::Straggler { .. } => "straggler",
            HealthEvent::Recovered { .. } => "recovered",
            HealthEvent::DeadlineCancelled { .. } => "deadline_cancelled",
        }
    }

    /// JSON form for `/health` and artifacts.
    pub fn to_json(&self) -> Value {
        let mut o = Map::new();
        o.insert("kind".into(), Value::Str(self.kind().to_string()));
        o.insert("run_id".into(), Value::UInt(self.run_id()));
        match self {
            HealthEvent::Warn { idle_ns, t_ns, .. }
            | HealthEvent::Stall { idle_ns, t_ns, .. }
            | HealthEvent::Hang { idle_ns, t_ns, .. } => {
                o.insert("idle_ns".into(), Value::UInt(*idle_ns));
                o.insert("t_ns".into(), Value::UInt(*t_ns));
            }
            HealthEvent::Straggler {
                task,
                name,
                runtime_ns,
                estimate_ns,
                t_ns,
                ..
            } => {
                o.insert("task".into(), Value::UInt(*task as u64));
                o.insert("name".into(), Value::Str(name.clone()));
                o.insert("runtime_ns".into(), Value::UInt(*runtime_ns));
                o.insert("estimate_ns".into(), Value::UInt(*estimate_ns));
                o.insert("t_ns".into(), Value::UInt(*t_ns));
            }
            HealthEvent::Recovered { from, t_ns, .. } => {
                o.insert("from".into(), Value::Str(from.name().to_string()));
                o.insert("t_ns".into(), Value::UInt(*t_ns));
            }
            HealthEvent::DeadlineCancelled { t_ns, .. } => {
                o.insert("t_ns".into(), Value::UInt(*t_ns));
            }
        }
        Value::Object(o)
    }
}

/// Watchdog thresholds. Defaults suit tests and interactive use; raise
/// them for production-sized runs.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Monitor poll period.
    pub poll: Duration,
    /// Quiet time before a `Warn`.
    pub warn_after: Duration,
    /// Quiet time before a `Stall`.
    pub stall_after: Duration,
    /// Quiet time before a `Hang`.
    pub hang_after: Duration,
    /// A task is a straggler when its runtime exceeds
    /// `straggler_factor ×` its learned EWMA estimate…
    pub straggler_factor: f64,
    /// …and also exceeds this absolute floor (filters noise on
    /// microsecond tasks).
    pub straggler_min: Duration,
    /// Quiet time after which the watchdog cancels the run
    /// (`None` = observe only, never cancel).
    pub cancel_after: Option<Duration>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            poll: Duration::from_millis(10),
            warn_after: Duration::from_millis(100),
            stall_after: Duration::from_millis(500),
            hang_after: Duration::from_secs(5),
            straggler_factor: 4.0,
            straggler_min: Duration::from_millis(50),
            cancel_after: None,
        }
    }
}

/// One armed run, tracked by the monitor thread.
struct ArmedRun {
    /// A clone of the run's future: observes (and cancels) the same run.
    fut: RunFuture,
    label: String,
    level: HealthVerdict,
    last_events: u64,
    last_progress_ns: u64,
    flagged: Vec<u32>,
    cancelled: bool,
    done: bool,
}

struct WatchInner {
    recorder: Arc<FlightRecorder>,
    config: WatchdogConfig,
    shutdown: AtomicBool,
    runs: Mutex<Vec<ArmedRun>>,
    events: Mutex<Vec<HealthEvent>>,
}

impl WatchInner {
    /// One monitor tick: pump the recorder, then walk armed runs.
    fn tick(&self) {
        self.recorder.pump();
        let now = lifecycle_now_ns();
        let cfg = &self.config;
        let mut runs = self.runs.lock();
        let mut out = Vec::new();
        for run in runs.iter_mut() {
            if run.done {
                continue;
            }
            let run_id = run.fut.run_id();
            if run.fut.is_done() {
                run.done = true;
                if run.level > HealthVerdict::Healthy {
                    out.push(HealthEvent::Recovered {
                        run_id,
                        from: run.level,
                        t_ns: now,
                    });
                    run.level = HealthVerdict::Healthy;
                }
                continue;
            }
            let progress = self.recorder.run_progress(run_id);
            if let Some(p) = &progress {
                if p.events > run.last_events {
                    run.last_events = p.events;
                    run.last_progress_ns = now;
                    if run.level > HealthVerdict::Healthy {
                        out.push(HealthEvent::Recovered {
                            run_id,
                            from: run.level,
                            t_ns: now,
                        });
                        run.level = HealthVerdict::Healthy;
                    }
                }
            }
            let idle_ns = now.saturating_sub(run.last_progress_ns);
            let idle = Duration::from_nanos(idle_ns);
            let target = if idle >= cfg.hang_after {
                HealthVerdict::Hang
            } else if idle >= cfg.stall_after {
                HealthVerdict::Stall
            } else if idle >= cfg.warn_after {
                HealthVerdict::Warn
            } else {
                HealthVerdict::Healthy
            };
            // Escalate one rung at a time so every level is visible.
            while run.level < target {
                run.level = match run.level {
                    HealthVerdict::Healthy => HealthVerdict::Warn,
                    HealthVerdict::Warn => HealthVerdict::Stall,
                    _ => HealthVerdict::Hang,
                };
                out.push(match run.level {
                    HealthVerdict::Warn => HealthEvent::Warn {
                        run_id,
                        idle_ns,
                        t_ns: now,
                    },
                    HealthVerdict::Stall => HealthEvent::Stall {
                        run_id,
                        idle_ns,
                        t_ns: now,
                    },
                    _ => HealthEvent::Hang {
                        run_id,
                        idle_ns,
                        t_ns: now,
                    },
                });
            }
            // Straggler scan: in-flight tasks far past their estimate.
            if let Some(p) = &progress {
                let graph = run.label.clone();
                for &(task, ref name, started_ns) in &p.inflight {
                    if run.flagged.contains(&task) {
                        continue;
                    }
                    let runtime_ns = now.saturating_sub(started_ns);
                    if runtime_ns < cfg.straggler_min.as_nanos() as u64 {
                        continue;
                    }
                    let est = self
                        .recorder
                        .exec_estimate(&graph, task)
                        .unwrap_or(cfg.straggler_min.as_nanos() as f64);
                    if runtime_ns as f64 > cfg.straggler_factor * est {
                        run.flagged.push(task);
                        out.push(HealthEvent::Straggler {
                            run_id,
                            task,
                            name: name.to_string(),
                            runtime_ns,
                            estimate_ns: est as u64,
                            t_ns: now,
                        });
                    }
                }
            }
            if let Some(deadline) = cfg.cancel_after {
                if !run.cancelled && idle >= deadline {
                    run.cancelled = true;
                    run.fut.cancel();
                    out.push(HealthEvent::DeadlineCancelled { run_id, t_ns: now });
                }
            }
        }
        drop(runs);
        if !out.is_empty() {
            self.events.lock().extend(out);
        }
    }

    fn verdict(&self) -> HealthVerdict {
        self.runs
            .lock()
            .iter()
            .filter(|r| !r.done)
            .map(|r| r.level)
            .max()
            .unwrap_or(HealthVerdict::Healthy)
    }
}

/// Straggler/hang watchdog: a monitor thread that pumps a
/// [`FlightRecorder`] and watches armed runs for quiet windows and
/// stragglers, escalating structured [`HealthEvent`]s.
pub struct Watchdog {
    inner: Arc<WatchInner>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Watchdog {
    /// Spawns the monitor thread.
    pub fn spawn(recorder: Arc<FlightRecorder>, config: WatchdogConfig) -> Arc<Self> {
        let inner = Arc::new(WatchInner {
            recorder,
            config,
            shutdown: AtomicBool::new(false),
            runs: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        });
        let monitor = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("hf-watchdog".into())
            .spawn(move || {
                // Sleep in short slices so Drop's join never waits a full
                // (possibly long) poll period for the thread to notice
                // shutdown.
                let slice = monitor.config.poll.min(Duration::from_millis(20));
                let mut slept = Duration::ZERO;
                while !monitor.shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(slice);
                    slept += slice;
                    if slept >= monitor.config.poll {
                        slept = Duration::ZERO;
                        monitor.tick();
                    }
                }
            })
            .expect("spawn watchdog thread");
        Arc::new(Self {
            inner,
            thread: Mutex::new(Some(handle)),
        })
    }

    /// Arms the watchdog for `fut`'s run. `label` names the run in
    /// events and must match the graph name for straggler estimates to
    /// resolve. Already-done or ready futures (run id 0) are ignored.
    pub fn arm(&self, fut: &RunFuture, label: &str) {
        if fut.run_id() == 0 || fut.is_done() {
            return;
        }
        let now = lifecycle_now_ns();
        self.inner.runs.lock().push(ArmedRun {
            fut: fut.clone(),
            label: label.to_string(),
            level: HealthVerdict::Healthy,
            last_events: 0,
            last_progress_ns: now,
            flagged: Vec::new(),
            cancelled: false,
            done: false,
        });
    }

    /// Worst current severity across armed, unfinished runs.
    pub fn verdict(&self) -> HealthVerdict {
        self.inner.verdict()
    }

    /// All health events observed so far, in order.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.inner.events.lock().clone()
    }

    /// Forces one monitor tick now (tests, scrape handlers).
    pub fn tick_now(&self) {
        self.inner.tick();
    }

    /// The `/health` document: overall verdict, per-run state, events.
    pub fn health_json(&self) -> Value {
        let mut o = Map::new();
        o.insert(
            "verdict".into(),
            Value::Str(self.verdict().name().to_string()),
        );
        let now = lifecycle_now_ns();
        let runs = self.inner.runs.lock();
        o.insert(
            "runs".into(),
            Value::Array(
                runs.iter()
                    .map(|r| {
                        let mut ro = Map::new();
                        ro.insert("run_id".into(), Value::UInt(r.fut.run_id()));
                        ro.insert("label".into(), Value::Str(r.label.clone()));
                        ro.insert("level".into(), Value::Str(r.level.name().to_string()));
                        ro.insert("done".into(), Value::Bool(r.done));
                        ro.insert("cancelled".into(), Value::Bool(r.cancelled));
                        ro.insert(
                            "idle_ns".into(),
                            Value::UInt(if r.done {
                                0
                            } else {
                                now.saturating_sub(r.last_progress_ns)
                            }),
                        );
                        Value::Object(ro)
                    })
                    .collect(),
            ),
        );
        drop(runs);
        o.insert(
            "events".into(),
            Value::Array(self.events().iter().map(HealthEvent::to_json).collect()),
        );
        Value::Object(o)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_core::TaskKind;

    fn ev(run_id: u64, phase: LifecyclePhase, task: Option<u32>, t_ns: u64) -> LifecycleEvent {
        LifecycleEvent {
            run_id,
            graph: Arc::from("g"),
            phase,
            task,
            name: Arc::from(task.map(|t| format!("t{t}")).unwrap_or_else(|| "g".into())),
            kind: task.map(|_| TaskKind::Host),
            device: None,
            worker: Some(0),
            chain: None,
            bytes: 0,
            ok: true,
            detail: None,
            epoch: None,
            tenant: None,
            t_ns,
        }
    }

    fn tenant_ev(
        run_id: u64,
        tenant: &str,
        phase: LifecyclePhase,
        task: Option<u32>,
        t_ns: u64,
    ) -> LifecycleEvent {
        let mut e = ev(run_id, phase, task, t_ns);
        e.tenant = Some(Arc::from(tenant));
        e
    }

    #[test]
    fn pump_attributes_latency_components() {
        let r = FlightRecorder::new();
        r.on_lifecycle(&ev(1, LifecyclePhase::RunStart, None, 1_000));
        r.on_lifecycle(&ev(1, LifecyclePhase::Ready, Some(0), 2_000));
        r.on_lifecycle(&ev(1, LifecyclePhase::Started, Some(0), 5_000));
        r.on_lifecycle(&ev(1, LifecyclePhase::Finished, Some(0), 9_000));
        r.on_lifecycle(&ev(1, LifecyclePhase::RunEnd, None, 10_000));
        assert_eq!(r.pump(), 5);
        let (qd, ex, rl) = r.latency_histograms();
        assert_eq!(qd.count, 1);
        assert!((qd.sum - 3_000.0).abs() < 1e-9, "queue delay = started - ready");
        assert_eq!(ex.count, 1);
        assert!((ex.sum - 4_000.0).abs() < 1e-9, "exec = finished - started");
        assert_eq!(rl.count, 1);
        assert!((rl.sum - 9_000.0).abs() < 1e-9, "run latency = end - start");
        let s = &r.summaries()[0];
        assert_eq!(s.run_id, 1);
        assert_eq!(s.ok, Some(true));
        assert_eq!(s.tasks, 1);
    }

    #[test]
    fn pump_folds_out_of_order_events_by_timestamp() {
        let r = FlightRecorder::new();
        // Pushed out of stamp order, as racing threads can deliver them.
        r.on_lifecycle(&ev(1, LifecyclePhase::RunStart, None, 100));
        r.on_lifecycle(&ev(1, LifecyclePhase::Finished, Some(0), 300));
        r.on_lifecycle(&ev(1, LifecyclePhase::Ready, Some(0), 250));
        r.on_lifecycle(&ev(1, LifecyclePhase::Started, Some(0), 270));
        assert_eq!(r.pump(), 4);
        // An inversion that straddles two pumps lands in place as well.
        r.on_lifecycle(&ev(1, LifecyclePhase::Ready, Some(1), 280));
        assert_eq!(r.pump(), 1);

        let dump = r.dump_json();
        let run = &dump.get("runs").and_then(|v| v.as_array()).unwrap()[0];
        let stamps: Vec<u64> = run
            .get("events")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|e| e.get("t_ns").and_then(|t| t.as_u64()).unwrap())
            .collect();
        assert_eq!(stamps, vec![100, 250, 270, 280, 300]);
        let (qd, ex, _) = r.latency_histograms();
        assert_eq!(ex.count, 1, "Finished folded after its Started");
        assert!((ex.sum - 30.0).abs() < 1e-9, "exec = finished - started");
        assert_eq!(qd.count, 1);
        assert!((qd.sum - 20.0).abs() < 1e-9, "queue delay = started - ready");
    }

    #[test]
    fn pump_pairs_a_finished_folded_before_its_started() {
        let r = FlightRecorder::new();
        r.on_lifecycle(&ev(1, LifecyclePhase::RunStart, None, 100));
        r.on_lifecycle(&ev(1, LifecyclePhase::Ready, Some(0), 200));
        r.on_lifecycle(&ev(1, LifecyclePhase::Finished, Some(0), 400));
        assert_eq!(r.pump(), 3);
        assert_eq!(r.latency_histograms().1.count, 0, "no begin folded yet");
        // The Started stamped before the Finished arrives one pump late.
        r.on_lifecycle(&ev(1, LifecyclePhase::Started, Some(0), 250));
        assert_eq!(r.pump(), 1);
        let (qd, ex, _) = r.latency_histograms();
        assert_eq!(ex.count, 1, "exec sample survives the pump boundary");
        assert!((ex.sum - 150.0).abs() < 1e-9, "exec = finished - started");
        assert_eq!(qd.count, 1);
        assert!((qd.sum - 50.0).abs() < 1e-9, "queue delay = started - ready");
        assert!(r.run_progress(1).unwrap().inflight.is_empty());
    }

    #[test]
    fn pump_pairs_across_chunk_boundaries() {
        let r = FlightRecorder::new();
        r.on_lifecycle(&ev(1, LifecyclePhase::Finished, Some(0), 9_000));
        // Enough other events that task 0's Started lands in a later chunk.
        for t in 1..=PUMP_CHUNK as u32 + 10 {
            r.on_lifecycle(&ev(1, LifecyclePhase::Ready, Some(t), 1_000 + t as u64));
        }
        r.on_lifecycle(&ev(1, LifecyclePhase::Started, Some(0), 5_000));
        assert_eq!(r.pump(), PUMP_CHUNK + 12);
        let (_, ex, _) = r.latency_histograms();
        assert_eq!(ex.count, 1);
        assert!((ex.sum - 4_000.0).abs() < 1e-9);
        assert!(r.run_progress(1).unwrap().inflight.is_empty());
    }

    #[test]
    fn rerun_task_is_in_flight_again() {
        let r = FlightRecorder::new();
        // Epoch 0 runs task 0 to completion; epoch 1 starts it again.
        for (phase, t) in [
            (LifecyclePhase::Ready, 100),
            (LifecyclePhase::Started, 110),
            (LifecyclePhase::Finished, 150),
            (LifecyclePhase::Ready, 200),
            (LifecyclePhase::Started, 210),
        ] {
            r.on_lifecycle(&ev(1, phase, Some(0), t));
        }
        r.pump();
        let inflight = r.run_progress(1).unwrap().inflight;
        assert_eq!(inflight.len(), 1);
        assert_eq!((inflight[0].0, inflight[0].2), (0, 210));
    }

    #[test]
    fn pump_attributes_per_tenant_latency() {
        let r = FlightRecorder::new();
        // Run 1 belongs to tenant "small", run 2 to "batch", run 3 is a
        // direct (untenanted) submission.
        r.on_lifecycle(&tenant_ev(1, "small", LifecyclePhase::RunStart, None, 1_000));
        r.on_lifecycle(&tenant_ev(1, "small", LifecyclePhase::Ready, Some(0), 2_000));
        r.on_lifecycle(&tenant_ev(1, "small", LifecyclePhase::Started, Some(0), 3_000));
        r.on_lifecycle(&tenant_ev(1, "small", LifecyclePhase::Finished, Some(0), 4_000));
        r.on_lifecycle(&tenant_ev(1, "small", LifecyclePhase::RunEnd, None, 5_000));
        r.on_lifecycle(&tenant_ev(2, "batch", LifecyclePhase::RunStart, None, 1_000));
        let mut end = tenant_ev(2, "batch", LifecyclePhase::RunEnd, None, 21_000);
        end.ok = false;
        r.on_lifecycle(&end);
        r.on_lifecycle(&ev(3, LifecyclePhase::RunStart, None, 1_000));
        r.on_lifecycle(&ev(3, LifecyclePhase::RunEnd, None, 2_000));
        r.pump();

        // Unlabeled aggregates fold every run, tenanted or not.
        let (_, _, rl) = r.latency_histograms();
        assert_eq!(rl.count, 3, "aggregate run latency counts all runs");

        let tenants = r.tenant_latencies();
        assert_eq!(tenants.len(), 2, "direct submission creates no tenant");
        let batch = &tenants[0];
        let small = &tenants[1];
        assert_eq!(batch.tenant, "batch");
        assert_eq!((batch.runs, batch.failed), (1, 1));
        assert!((batch.run_latency.sum - 20_000.0).abs() < 1e-9);
        assert_eq!(small.tenant, "small");
        assert_eq!((small.runs, small.failed), (1, 0));
        assert!((small.run_latency.sum - 4_000.0).abs() < 1e-9);
        assert_eq!(small.queue_delay.count, 1);
        assert_eq!(small.exec.count, 1);

        // Summaries and dumps carry the attribution.
        let sums = r.summaries();
        assert_eq!(
            sums.iter()
                .find(|s| s.run_id == 1)
                .and_then(|s| s.tenant.clone()),
            Some("small".to_string())
        );
        assert_eq!(
            sums.iter().find(|s| s.run_id == 3).map(|s| s.tenant.clone()),
            Some(None)
        );
        let text =
            serde_json::to_string(&r.dump_run_json(2).expect("retained")).expect("infallible");
        assert!(text.contains("\"tenant\":\"batch\""), "{text}");
        let tj = serde_json::to_string(&r.tenants_json()).expect("infallible");
        assert!(tj.contains("hf-tenants-v1"), "{tj}");
        assert!(tj.contains("\"tenant\":\"small\""), "{tj}");

        // Prometheus export gains labeled series; aggregates stay.
        let reg = MetricsRegistry::new();
        r.export_into(&reg);
        let prom = reg.prometheus_text();
        assert!(
            prom.contains("hf_run_latency_nanos_bucket{tenant=\"small\""),
            "{prom}"
        );
        assert!(prom.contains("hf_tenant_runs_total{tenant=\"batch\"} 1"), "{prom}");
        assert!(
            prom.contains("hf_tenant_runs_failed_total{tenant=\"batch\"} 1"),
            "{prom}"
        );
        // The unlabeled aggregate count line still reports all 3 runs.
        assert!(prom.contains("hf_run_latency_nanos_count 3"), "{prom}");
    }

    #[test]
    fn pump_attributes_epoch_latency() {
        let r = FlightRecorder::new();
        r.on_lifecycle(&ev(3, LifecyclePhase::RunStart, None, 1_000));
        let mut e0 = ev(3, LifecyclePhase::EpochStart, None, 2_000);
        e0.epoch = Some(0);
        r.on_lifecycle(&e0);
        let mut e1 = ev(3, LifecyclePhase::EpochStart, None, 3_000);
        e1.epoch = Some(1);
        r.on_lifecycle(&e1);
        let mut d0 = ev(3, LifecyclePhase::EpochEnd, None, 7_000);
        d0.epoch = Some(0);
        r.on_lifecycle(&d0);
        let mut d1 = ev(3, LifecyclePhase::EpochEnd, None, 12_000);
        d1.epoch = Some(1);
        r.on_lifecycle(&d1);
        r.on_lifecycle(&ev(3, LifecyclePhase::RunEnd, None, 13_000));
        assert_eq!(r.pump(), 6);
        let h = r.epoch_latency_histogram();
        assert_eq!(h.count, 2);
        assert!(
            (h.sum - 14_000.0).abs() < 1e-9,
            "epoch latency = end - start per epoch: 5000 + 9000"
        );
        let json = r.dump_run_json(3).expect("run retained");
        let text = serde_json::to_string(&json).expect("infallible");
        assert!(text.contains("\"epochs_completed\":2"), "{text}");
        assert!(text.contains("\"epoch\":1"), "{text}");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::new();
        r.set_enabled(false);
        assert!(!r.is_active());
        r.on_lifecycle(&ev(1, LifecyclePhase::RunStart, None, 0));
        assert_eq!(r.events_recorded(), 0);
        assert_eq!(r.pump(), 0);
        assert!(r.summaries().is_empty());
    }

    #[test]
    fn failed_run_auto_dumps_blackbox() {
        let dir = std::env::temp_dir().join(format!(
            "hf_blackbox_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let r = FlightRecorder::new();
        r.set_blackbox_dir(Some(dir.clone()));
        r.on_lifecycle(&ev(7, LifecyclePhase::RunStart, None, 0));
        let mut end = ev(7, LifecyclePhase::RunEnd, None, 500);
        end.ok = false;
        end.detail = Some(Arc::from("device lost"));
        r.on_lifecycle(&end);
        r.pump();
        let path = dir.join("blackbox_run7.json");
        let text = std::fs::read_to_string(&path).expect("blackbox written");
        let v = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(v.get("run_id").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(
            v.get("detail").and_then(|x| x.as_str()),
            Some("device lost")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_runs_are_trimmed() {
        let r = FlightRecorder::new();
        for id in 1..=40u64 {
            r.on_lifecycle(&ev(id, LifecyclePhase::RunStart, None, id * 10));
            r.on_lifecycle(&ev(id, LifecyclePhase::RunEnd, None, id * 10 + 5));
        }
        r.pump();
        let s = r.summaries();
        assert!(s.len() <= DEFAULT_KEEP_COMPLETED, "retention window holds");
        assert_eq!(s.last().unwrap().run_id, 40, "newest run retained");
    }

    #[test]
    fn watchdog_escalates_and_recovers() {
        let recorder = FlightRecorder::shared();
        let wd = Watchdog::spawn(
            Arc::clone(&recorder),
            WatchdogConfig {
                poll: Duration::from_secs(3600), // tick manually
                warn_after: Duration::from_nanos(1),
                stall_after: Duration::from_nanos(2),
                hang_after: Duration::from_secs(3600),
                ..WatchdogConfig::default()
            },
        );
        // Recorder-only escalation needs a live run future, so the
        // executor integration tests drive a real (blocked) run; here
        // exercise verdict bookkeeping directly.
        assert_eq!(wd.verdict(), HealthVerdict::Healthy);
        assert!(wd.events().is_empty());
    }

    #[test]
    fn exec_estimate_learns_ewma() {
        let r = FlightRecorder::new();
        r.on_lifecycle(&ev(1, LifecyclePhase::RunStart, None, 0));
        for (i, dur) in [1_000u64, 2_000, 3_000].iter().enumerate() {
            let base = 10_000 * (i as u64 + 1);
            r.on_lifecycle(&ev(1, LifecyclePhase::Ready, Some(0), base));
            r.on_lifecycle(&ev(1, LifecyclePhase::Started, Some(0), base + 10));
            r.on_lifecycle(&ev(1, LifecyclePhase::Finished, Some(0), base + 10 + dur));
        }
        r.pump();
        let est = r.exec_estimate("g", 0).expect("estimate learned");
        assert!(est > 1_000.0 && est < 3_000.0, "EWMA between extremes: {est}");
    }
}
