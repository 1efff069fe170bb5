//! The executor: N CPU workers, M GPUs, work-stealing scheduling.
//!
//! "An executor ... manages a set of CPU threads and GPU devices to
//! schedule in which list of tasks to execute" (§III-B). Unlike systems
//! that dedicate a worker per GPU, every Heteroflow worker can run every
//! task kind — tasks are uniform closures — and GPU tasks are scoped to
//! their assigned device via an RAII context (Listing 13).
//!
//! The executor is split by layer:
//!
//! * this module — the builder, the [`Executor`] API, the shared
//!   executor state, and the submission preamble (`plan_for`: freeze,
//!   lint gate, placement, fusion, scheduling cache);
//! * `sched` — work tokens, the topology registry, the worker
//!   loop, stealing, and batched successor release (§III-C);
//! * `gpu_dispatch` — fused GPU chain dispatch and the one
//!   host↔device copy path;
//! * `recovery` — failure handling: retries and device failover.

use crate::error::HfError;
use crate::graph::{FrozenGraph, Heteroflow, SchedCache, Work};
use crate::lifecycle::{lifecycle_now_ns, LifecycleEvent, LifecyclePhase};
use crate::observer::ExecutorObserver;
use crate::placement::PlacementPolicy;
use crate::retry::RetryPolicy;
use crate::sched::{Token, TopoRegistry, Worker};
use crate::stats::ExecutorStats;
use crate::topology::{FusionPlan, RunFuture, Topology};
use hf_gpu::{GpuConfig, GpuRuntime};
use hf_sync::{Injector, Notifier, Steal, StealDeque, Stealer};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default byte size above which H2D/D2H transfers are chunked across
/// copy-lane streams. Large enough that typical test graphs stay on the
/// single-op path.
const DEFAULT_COPY_CHUNK_THRESHOLD: usize = 1 << 20;

/// Default number of copy-lane streams per (worker, device).
const DEFAULT_COPY_LANES: usize = 2;

/// Executor identities for keying per-graph scheduling caches.
static NEXT_EXEC_ID: AtomicU64 = AtomicU64::new(0);

pub(crate) struct ExecInner {
    /// Process-unique id keying [`SchedCache`] entries.
    pub(crate) id: u64,
    pub(crate) stealers: Vec<Stealer<Token>>,
    /// Shared lock-free inbox for work scheduled off worker threads and
    /// for batched successor sprays.
    pub(crate) injector: Injector<Token>,
    pub(crate) registry: TopoRegistry,
    pub(crate) notifier: Notifier,
    pub(crate) done: AtomicBool,
    pub(crate) num_actives: AtomicUsize,
    pub(crate) num_thieves: AtomicUsize,
    /// Topologies in flight across all graphs.
    pub(crate) num_topologies: AtomicUsize,
    pub(crate) idle_lock: Mutex<()>,
    pub(crate) idle_cv: Condvar,
    pub(crate) gpu: Arc<GpuRuntime>,
    pub(crate) policy: PlacementPolicy,
    /// Decaying estimate of modeled load already packed per device, used
    /// to bias placement of later topologies toward idle GPUs.
    pub(crate) device_load: Mutex<Vec<f64>>,
    pub(crate) stats: ExecutorStats,
    /// When false, idle thieves always spin (never sleep) — the A4
    /// ablation baseline.
    pub(crate) adaptive_sleep: bool,
    /// GPU task fusion (§III-C "task fusing") enabled.
    pub(crate) fusion: bool,
    /// Observers notified around every task execution.
    pub(crate) observers: Vec<Arc<dyn ExecutorObserver>>,
    /// Retry/failover policy applied to failing task bodies.
    pub(crate) retry: RetryPolicy,
    /// Per-device "already counted as lost" latch for the
    /// `devices_lost` stat (each device counted once per executor).
    pub(crate) lost_seen: Vec<AtomicBool>,
    /// H2D/D2H transfers larger than this many bytes are split into
    /// chunks pipelined across copy-lane streams (`usize::MAX` disables).
    pub(crate) copy_chunk_threshold: usize,
    /// Copy-lane streams per (worker, device) used by chunked transfers.
    pub(crate) copy_lanes: usize,
    /// EWMA feedback of modeled per-task durations; consulted by the
    /// locality placement policy and seedable from external history.
    pub(crate) cost_db: crate::costmodel::CostDb,
    /// Device of the GPU chain each worker most recently dispatched
    /// (`u64::MAX` = none yet). Thieves prefer victims sharing their
    /// focus device: those deques hold tasks whose data is most likely
    /// resident where the thief's streams already live.
    pub(crate) worker_focus: Vec<AtomicU64>,
    /// Submission ids handed to topologies/futures and stamped onto
    /// lifecycle events (starts at 1; 0 is reserved for ready futures).
    pub(crate) run_seq: AtomicU64,
    /// What to do with static-analysis findings at submission time.
    pub(crate) lint: LintPolicy,
}

impl ExecInner {
    /// True when the locality policy is active — the only mode that pays
    /// for per-task cost observation.
    fn locality(&self) -> bool {
        matches!(self.policy, PlacementPolicy::Locality)
    }

    /// Records one executed task's modeled duration into the cost
    /// database (locality policy only; other policies skip the feedback
    /// loop entirely so their hot path is unchanged).
    pub(crate) fn observe_cost(&self, graph: &str, task: &str, nanos: f64) {
        if self.locality() {
            self.cost_db.observe(graph, task, nanos);
        }
    }

    /// EWMA cost snapshot for placing `graph`, when the policy uses one.
    pub(crate) fn refined_costs(&self, graph: &str) -> Option<crate::costmodel::TaskCosts> {
        if self.locality() {
            Some(self.cost_db.snapshot_for(graph))
        } else {
            None
        }
    }

    /// The devices' cost model (placement input).
    pub(crate) fn cost_model(&self) -> hf_gpu::CostModel {
        self.gpu
            .devices()
            .first()
            .map(|d| d.cost_model())
            .unwrap_or_default()
    }

    /// Per-device lost flags. Each newly lost device is counted once in
    /// the `devices_lost` stat.
    pub(crate) fn note_lost_devices(&self) -> Vec<bool> {
        let lost: Vec<bool> = self.gpu.devices().iter().map(|d| d.is_lost()).collect();
        for (d, &l) in lost.iter().enumerate() {
            if l && !self.lost_seen[d].swap(true, Ordering::Relaxed) {
                self.stats.devices_lost.incr();
            }
        }
        lost
    }

    /// Lifecycle fast-path gate: `true` only when at least one registered
    /// observer is active. With no observers (or all inactive) every
    /// lifecycle emission site reduces to this check — no event is
    /// constructed, no timestamp taken, nothing allocated.
    #[inline]
    pub(crate) fn lc_active(&self) -> bool {
        !self.observers.is_empty() && self.observers.iter().any(|o| o.is_active())
    }

    /// Stamps `ev` and sends it to every observer; callers check
    /// [`ExecInner::lc_active`] before building it. Stamping last keeps
    /// the timestamps of events recorded from different threads in
    /// recording order as far as possible.
    pub(crate) fn emit(&self, mut ev: LifecycleEvent) {
        ev.t_ns = lifecycle_now_ns();
        for o in &self.observers {
            o.on_lifecycle(&ev);
        }
    }

    /// Emits a task-level lifecycle event to every observer. `outcome` is
    /// `Ok` for a successful transition and `Err` (with the error, when
    /// there is one) otherwise. Internally gated on
    /// [`ExecInner::lc_active`], so call sites need no guard (loops over
    /// chains may still hoist the check).
    pub(crate) fn emit_task_lc(
        &self,
        topo: &Topology,
        phase: LifecyclePhase,
        node: usize,
        worker: Option<u32>,
        chain: Option<u32>,
        outcome: Result<(), Option<&HfError>>,
    ) {
        if !self.lc_active() {
            return;
        }
        let nd = &topo.frozen.nodes[node];
        let mut ev = LifecycleEvent::new(
            topo.run_id,
            &topo.graph_label,
            phase,
            topo.epoch,
            topo.tenant.as_ref(),
        );
        ev.task = Some(node as u32);
        ev.name = Arc::clone(&nd.name);
        ev.kind = Some(nd.work.kind());
        ev.device = topo.placement().device_of[node];
        ev.worker = worker;
        ev.chain = chain;
        ev.bytes = node_move_bytes(&topo.frozen, node);
        ev.ok = outcome.is_ok();
        ev.detail = outcome
            .err()
            .flatten()
            .map(|e| Arc::from(e.to_string().as_str()));
        self.emit(ev);
    }

    /// Emits a run-level lifecycle event: `RunStart`/`RunEnd` (bracketing
    /// a whole submission) and `EpochStart`/`EpochEnd`.
    pub(crate) fn emit_run_lc(
        &self,
        run_id: u64,
        label: &Arc<str>,
        phase: LifecyclePhase,
        epoch: Option<u64>,
        tenant: Option<&Arc<str>>,
        result: Result<&(), &HfError>,
    ) {
        if !self.lc_active() {
            return;
        }
        let mut ev = LifecycleEvent::new(run_id, label, phase, epoch, tenant);
        ev.ok = result.is_ok();
        ev.detail = result.err().map(|e| Arc::from(e.to_string().as_str()));
        self.emit(ev);
    }

    /// Emits one run-level [`LifecyclePhase::Lint`] event per diagnostic
    /// in `report`, right after `RunStart`. `ok` is `false` for
    /// Error-severity findings; `detail` carries the rendered diagnostic.
    pub(crate) fn emit_lint_lc(
        &self,
        run_id: u64,
        label: &Arc<str>,
        report: &crate::analyze::Report,
    ) {
        if !self.lc_active() {
            return;
        }
        for d in &report.diagnostics {
            let mut ev = LifecycleEvent::new(run_id, label, LifecyclePhase::Lint, None, None);
            ev.ok = d.severity != crate::analyze::Severity::Error;
            ev.detail = Some(Arc::from(d.render().as_str()));
            self.emit(ev);
        }
    }

    /// Publishes a freshly computed placement's locality metrics.
    pub(crate) fn record_placement(&self, p: &crate::placement::Placement) {
        if p.warm_hits > 0 {
            self.stats.placement_warm_hits.add(p.warm_hits);
        }
        if p.est_bytes_saved > 0 {
            self.stats.placement_est_bytes_saved.add(p.est_bytes_saved);
        }
        self.stats.placement_imbalance.set(p.imbalance());
    }
}

/// PCIe bytes a task moves when it runs: a pull's current host size, a
/// push's staged pull size, `0` for host/kernel tasks. Stamped onto
/// lifecycle events so transfer-heavy stragglers are attributable.
fn node_move_bytes(frozen: &FrozenGraph, node: usize) -> u64 {
    match &frozen.nodes[node].work {
        Work::Pull { source } => source.byte_len() as u64,
        Work::Push { source_pull, .. } => match &frozen.nodes[*source_pull].work {
            Work::Pull { source } => source.byte_len() as u64,
            _ => 0,
        },
        _ => 0,
    }
}

/// What the executor does with static-analysis findings
/// ([`crate::Heteroflow::analyze`]) when a graph is submitted.
///
/// The analysis itself is cheap and epoch-cached on the graph, so the
/// policy only decides what happens to the *findings*:
///
/// * [`Off`](LintPolicy::Off) — never analyze at submission.
/// * [`Warn`](LintPolicy::Warn) (default) — when a lifecycle observer is
///   active, emit one [`crate::LifecyclePhase::Lint`] event per finding
///   right after `RunStart`; the run proceeds regardless. With no active
///   observer the analysis is skipped entirely, keeping the default
///   submission path as cheap as `Off`.
/// * [`Deny`](LintPolicy::Deny) — reject graphs with Error-severity
///   findings before any work dispatches: the returned future resolves
///   to [`crate::HfError::LintRejected`] carrying the rendered findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Never run the analyzer at submission time.
    Off,
    /// Analyze and surface findings as lifecycle events; never reject.
    #[default]
    Warn,
    /// Reject submissions whose graph has Error-severity findings.
    Deny,
}

/// A resolved scheduling preamble: everything an epoch driver needs to
/// start creating topologies for one submission of one graph.
pub(crate) struct ExecPlan {
    pub(crate) frozen: Arc<FrozenGraph>,
    pub(crate) placement: Arc<crate::placement::Placement>,
    pub(crate) fusion: Arc<FusionPlan>,
    pub(crate) lint_report: Option<Arc<crate::analyze::Report>>,
}

/// Builder for [`Executor`] with non-default GPU configuration, placement
/// policy, or scheduling knobs.
pub struct ExecutorBuilder {
    cpus: usize,
    gpus: u32,
    gpu_config: GpuConfig,
    shared_gpu: Option<Arc<GpuRuntime>>,
    policy: PlacementPolicy,
    adaptive_sleep: bool,
    fusion: bool,
    observers: Vec<Arc<dyn ExecutorObserver>>,
    tracer: Option<Arc<crate::observer::TraceCollector>>,
    retry: RetryPolicy,
    copy_chunk_threshold: usize,
    copy_lanes: usize,
    lint: LintPolicy,
}

impl std::fmt::Debug for ExecutorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorBuilder")
            .field("cpus", &self.cpus)
            .field("gpus", &self.gpus)
            .field("policy", &self.policy)
            .field("adaptive_sleep", &self.adaptive_sleep)
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl ExecutorBuilder {
    /// Starts a builder with `cpus` worker threads and `gpus` devices.
    pub fn new(cpus: usize, gpus: u32) -> Self {
        Self {
            cpus,
            gpus,
            gpu_config: GpuConfig::default(),
            shared_gpu: None,
            policy: PlacementPolicy::BalancedLoad,
            adaptive_sleep: true,
            fusion: true,
            observers: Vec::new(),
            tracer: None,
            retry: RetryPolicy::default(),
            copy_chunk_threshold: DEFAULT_COPY_CHUNK_THRESHOLD,
            copy_lanes: DEFAULT_COPY_LANES,
            lint: LintPolicy::default(),
        }
    }

    /// Sets what the executor does with static-analysis findings when a
    /// graph is submitted (default [`LintPolicy::Warn`]). See
    /// [`LintPolicy`] and [`crate::Heteroflow::analyze`].
    pub fn lint_policy(mut self, policy: LintPolicy) -> Self {
        self.lint = policy;
        self
    }

    /// Sets the byte size above which H2D/D2H transfers are split into
    /// chunks enqueued round-robin across copy-lane streams, letting long
    /// copies interleave with kernels on the same device (default 1 MiB;
    /// `usize::MAX` disables chunking).
    pub fn copy_chunk_threshold(mut self, bytes: usize) -> Self {
        self.copy_chunk_threshold = bytes.max(1);
        self
    }

    /// Sets how many copy-lane streams each worker opens per device for
    /// chunked transfers (default 2; clamped to at least 1).
    pub fn copy_lanes(mut self, lanes: usize) -> Self {
        self.copy_lanes = lanes.max(1);
        self
    }

    /// Sets the retry/failover policy applied when task bodies fail with
    /// transient device errors (default: no retries; device loss triggers
    /// failover onto the surviving GPUs). See [`RetryPolicy`].
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Overrides the GPU configuration (memory size, cost model, ...).
    pub fn gpu_config(mut self, cfg: GpuConfig) -> Self {
        self.gpu_config = cfg;
        self
    }

    /// Shares an existing GPU runtime instead of creating one.
    pub fn gpu_runtime(mut self, rt: Arc<GpuRuntime>) -> Self {
        self.shared_gpu = Some(rt);
        self
    }

    /// Overrides the device placement policy (Algorithm 1's packing step).
    pub fn placement_policy(mut self, p: PlacementPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Disables the adaptive sleep strategy: idle thieves spin forever.
    /// Ablation baseline; wastes CPU but minimizes wakeup latency.
    pub fn adaptive_sleep(mut self, on: bool) -> Self {
        self.adaptive_sleep = on;
        self
    }

    /// Enables/disables GPU task fusion (default on): linear chains of
    /// same-device kernel/push tasks dispatch as one stream submission
    /// with a single completion callback, cutting per-task scheduling
    /// overhead (§III-C "task fusing"). The A5 ablation baseline is
    /// `false`.
    pub fn task_fusion(mut self, on: bool) -> Self {
        self.fusion = on;
        self
    }

    /// Registers an observer notified around every task execution (e.g.
    /// [`crate::observer::TraceCollector`] for chrome-trace profiling).
    /// Fused chain members fold into their head's span.
    pub fn observer(mut self, obs: Arc<dyn ExecutorObserver>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Registers `trace` as observer *and* wires it into the GPU runtime
    /// for device-side stitching: GPU task spans then show true device
    /// execution times (and CPU/GPU overlap) instead of the worker-side
    /// dispatch window — see the [`crate::observer`] module docs for the
    /// historical dispatch-time-only behaviour. Workers also label
    /// dispatched ops with the task name/kind so device events map back
    /// to graph tasks.
    pub fn tracer(mut self, trace: Arc<crate::observer::TraceCollector>) -> Self {
        self.observers
            .push(Arc::clone(&trace) as Arc<dyn ExecutorObserver>);
        self.tracer = Some(trace);
        self
    }

    /// Builds the executor, spawning worker threads and device engines.
    pub fn build(self) -> Executor {
        let cpus = self.cpus.max(1);
        let gpu = self
            .shared_gpu
            .unwrap_or_else(|| Arc::new(GpuRuntime::new(self.gpus, self.gpu_config)));
        if let Some(trace) = &self.tracer {
            trace.connect_gpu(&gpu);
        }

        let deques: Vec<StealDeque<Token>> = (0..cpus).map(|_| StealDeque::new()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();

        let inner = Arc::new(ExecInner {
            id: NEXT_EXEC_ID.fetch_add(1, Ordering::Relaxed),
            stealers,
            injector: Injector::new(),
            registry: TopoRegistry::new(),
            notifier: Notifier::new(),
            done: AtomicBool::new(false),
            num_actives: AtomicUsize::new(0),
            num_thieves: AtomicUsize::new(0),
            num_topologies: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            gpu: Arc::clone(&gpu),
            policy: self.policy,
            device_load: Mutex::new(vec![0.0; gpu.num_devices() as usize]),
            stats: ExecutorStats::new(cpus),
            adaptive_sleep: self.adaptive_sleep,
            fusion: self.fusion,
            observers: self.observers,
            retry: self.retry,
            lost_seen: (0..gpu.num_devices())
                .map(|_| AtomicBool::new(false))
                .collect(),
            copy_chunk_threshold: self.copy_chunk_threshold,
            copy_lanes: self.copy_lanes,
            cost_db: crate::costmodel::CostDb::new(),
            worker_focus: (0..cpus).map(|_| AtomicU64::new(u64::MAX)).collect(),
            run_seq: AtomicU64::new(0),
            lint: self.lint,
        });

        let threads = deques
            .into_iter()
            .enumerate()
            .map(|(id, deque)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("hf-worker-{id}"))
                    .spawn(move || Worker::new(id, deque, inner).run())
                    .expect("spawn executor worker")
            })
            .collect();

        Executor {
            inner,
            gpu,
            threads: Mutex::new(threads),
        }
    }
}

/// The Heteroflow executor. Thread-safe: `run*` may be called from any
/// thread, concurrently (§III-B).
pub struct Executor {
    pub(crate) inner: Arc<ExecInner>,
    pub(crate) gpu: Arc<GpuRuntime>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("cpus", &self.num_workers())
            .field("gpus", &self.gpu.num_devices())
            .finish()
    }
}

impl Executor {
    /// Creates an executor with `cpus` worker threads and `gpus` software
    /// GPU devices — `hf::Executor executor(8, 4)` in the paper.
    pub fn new(cpus: usize, gpus: u32) -> Self {
        ExecutorBuilder::new(cpus, gpus).build()
    }

    /// Builder for custom configurations.
    pub fn builder(cpus: usize, gpus: u32) -> ExecutorBuilder {
        ExecutorBuilder::new(cpus, gpus)
    }

    /// Number of CPU worker threads.
    pub fn num_workers(&self) -> usize {
        self.inner.stealers.len()
    }

    /// Number of GPU devices.
    pub fn num_gpus(&self) -> u32 {
        self.gpu.num_devices()
    }

    /// The underlying GPU runtime (e.g. for pool statistics in tests).
    pub fn gpu_runtime(&self) -> &Arc<GpuRuntime> {
        &self.gpu
    }

    /// Scheduling statistics (steals, sleeps, executed tasks).
    pub fn stats(&self) -> &ExecutorStats {
        &self.inner.stats
    }

    /// Statistics snapshot extended with the executor's *live* scheduling
    /// gauges: `inflight_tasks` (task bodies currently executing on
    /// workers) and `queue_depth` (tokens waiting in the injector plus
    /// every worker deque). Unlike the counters these are point-in-time
    /// reads of moving state — exactly what an external health monitor
    /// needs to distinguish "busy" from "stuck". Plain
    /// [`ExecutorStats::snapshot`] leaves both at zero.
    pub fn snapshot(&self) -> crate::stats::StatsSnapshot {
        let mut s = self.inner.stats.snapshot();
        s.inflight_tasks = self.inner.num_actives.load(Ordering::SeqCst) as u64;
        s.queue_depth = (self.inner.injector.len()
            + self.inner.stealers.iter().map(|st| st.len()).sum::<usize>())
            as u64;
        s
    }

    /// The per-task cost database backing the locality placement policy.
    /// Exposed for inspection; prefer [`Executor::seed_task_cost`] for
    /// pre-loading estimates.
    pub fn cost_db(&self) -> &crate::costmodel::CostDb {
        &self.inner.cost_db
    }

    /// Seeds the locality cost model with an external duration estimate
    /// (nanoseconds of modeled device time) for `task` of `graph` — e.g.
    /// from a persisted timing profile — so the very first placement of a
    /// known workload is already informed. Estimates observed at runtime
    /// take precedence over seeds.
    pub fn seed_task_cost(&self, graph: &str, task: &str, nanos: f64) {
        self.inner.cost_db.seed(graph, task, nanos);
    }

    /// Current decaying modeled-load estimate per device (nanoseconds),
    /// as used to bias placement of later topologies toward idle GPUs.
    pub fn device_loads(&self) -> Vec<f64> {
        self.inner.device_load.lock().clone()
    }

    /// Runs the graph once. Non-blocking; returns a future.
    pub fn run(&self, hf: &Heteroflow) -> RunFuture {
        self.run_n(hf, 1)
    }

    /// Runs the graph `n` times (rounds execute back-to-back).
    pub fn run_n(&self, hf: &Heteroflow, n: usize) -> RunFuture {
        let mut remaining = n;
        self.run_until(hf, move || {
            if remaining == 0 {
                true
            } else {
                remaining -= 1;
                false
            }
        })
    }

    /// Runs the graph repeatedly until `stop` returns `true` (checked
    /// before each round).
    ///
    /// The scheduling preamble (freeze, Algorithm 1 placement, fusion
    /// planning) is cached per graph: resubmitting an unchanged graph
    /// reuses the previous plan and only refreshes the decaying
    /// device-load bias. Any mutation invalidates the cache via the
    /// builder epoch.
    ///
    /// Since the streaming redesign this is a thin wrapper over the same
    /// epoch driver machinery that powers [`Executor::run_stream`]: each
    /// round executes as one single-round epoch topology, chained through
    /// the epoch-completion hook (see `crate::stream`).
    pub fn run_until<P>(&self, hf: &Heteroflow, stop: P) -> RunFuture
    where
        P: FnMut() -> bool + Send + 'static,
    {
        crate::stream::run_driver(self, hf, Box::new(stop))
    }

    /// Opens a resident streaming session on the graph with the default
    /// [`crate::StreamConfig`] (in-flight depth 2). The returned
    /// [`crate::Session`] keeps the frozen snapshot, placement, and
    /// double-buffered device residency resident across epochs;
    /// [`crate::Session::submit`] enqueues the next epoch while prior
    /// epochs still occupy the devices, so epoch N+1's H2D transfers
    /// overlap epoch N's kernels.
    pub fn run_stream(&self, hf: &Heteroflow) -> Result<crate::stream::Session, HfError> {
        self.run_stream_with(hf, crate::stream::StreamConfig::default())
    }

    /// [`Executor::run_stream`] with an explicit [`crate::StreamConfig`]
    /// (in-flight epoch depth / residency ring size).
    pub fn run_stream_with(
        &self,
        hf: &Heteroflow,
        cfg: crate::stream::StreamConfig,
    ) -> Result<crate::stream::Session, HfError> {
        crate::stream::Session::open(self, hf, cfg)
    }

    /// The scheduling preamble shared by every submission path: freeze,
    /// lint gate, placement (degraded against survivors when a device is
    /// lost), fusion planning, and the per-graph scheduling cache.
    pub(crate) fn plan_for(&self, hf: &Heteroflow) -> Result<ExecPlan, HfError> {
        let inner = &self.inner;
        let (frozen, epoch) = hf.freeze_with_epoch()?;

        // Static analysis gate (see `crate::analyze`). The report is
        // epoch-cached on the graph, and under the default `Warn` policy
        // nothing is even computed unless a lifecycle observer is active
        // — so the common submission path pays only this match.
        let lint_report = match inner.lint {
            LintPolicy::Off => None,
            LintPolicy::Warn if !inner.lc_active() => None,
            policy => {
                let report = hf.analyze();
                if policy == LintPolicy::Deny && report.has_errors() {
                    return Err(HfError::LintRejected {
                        graph: report.graph.clone(),
                        diagnostics: report.errors().map(|d| d.render()).collect(),
                    });
                }
                Some(report)
            }
        };

        // Degraded mode: with a lost device the cached placement (and the
        // cross-graph load bias) may reference dead hardware, so bypass
        // the cache in both directions and place directly against the
        // surviving device set.
        let lost = inner.note_lost_devices();
        if lost.iter().any(|&l| l) {
            inner.stats.topo_cache_misses.incr();
            let refined = inner.refined_costs(frozen.name());
            let p = crate::placement::failover_placement_ext(
                &*frozen,
                &[],
                &lost,
                &inner.cost_model(),
                inner.policy,
                refined.as_ref(),
            )?;
            inner.record_placement(&p);
            let placement = Arc::new(p);
            let fusion = Arc::new(FusionPlan::compute(&frozen, &placement, inner.fusion));
            return Ok(ExecPlan {
                frozen,
                placement,
                fusion,
                lint_report,
            });
        }

        // Scheduling cache: reuse placement + fusion when this executor
        // already planned this epoch of the graph.
        let cached = {
            let c = hf.shared.sched_cache.lock();
            c.as_ref()
                .filter(|sc| sc.exec_id == inner.id && sc.epoch == epoch)
                .map(|sc| {
                    (
                        Arc::clone(&sc.placement),
                        Arc::clone(&sc.fusion),
                        sc.own_loads.clone(),
                    )
                })
        };
        let (placement, fusion) = match cached {
            Some((placement, fusion, own_loads)) => {
                inner.stats.topo_cache_hits.incr();
                // Keep the cross-graph bias fresh: decay, then re-apply
                // this graph's own modeled load.
                let mut dl = inner.device_load.lock();
                for (l, own) in dl.iter_mut().zip(&own_loads) {
                    *l = *l * 0.5 + own;
                }
                (placement, fusion)
            }
            None => {
                inner.stats.topo_cache_misses.incr();
                let mut dl = inner.device_load.lock();
                for l in dl.iter_mut() {
                    *l *= 0.5;
                }
                let refined = inner.refined_costs(frozen.name());
                let p = crate::placement::device_placement_ext(
                    &*frozen,
                    self.gpu.num_devices(),
                    inner.policy,
                    &inner.cost_model(),
                    &dl,
                    refined.as_ref(),
                )?;
                inner.record_placement(&p);
                let own_loads: Vec<f64> =
                    p.loads.iter().zip(dl.iter()).map(|(l, b)| l - b).collect();
                dl.copy_from_slice(&p.loads);
                drop(dl);
                let placement = Arc::new(p);
                let fusion = Arc::new(FusionPlan::compute(&frozen, &placement, inner.fusion));
                *hf.shared.sched_cache.lock() = Some(SchedCache {
                    exec_id: inner.id,
                    epoch,
                    placement: Arc::clone(&placement),
                    fusion: Arc::clone(&fusion),
                    own_loads,
                });
                (placement, fusion)
            }
        };

        Ok(ExecPlan {
            frozen,
            placement,
            fusion,
            lint_report,
        })
    }

    /// Blocks until every topology submitted to this executor (from any
    /// thread) has finished — including every epoch of open streaming
    /// sessions: a [`crate::Session`] holds an in-flight topology count
    /// while any submitted epoch is unfinished (an *idle* open stream
    /// does not block this call).
    ///
    /// Multi-threaded submission contract: this call observes a
    /// consistent in-flight count across *all* submitting threads — a
    /// submission that returned its [`RunFuture`] before `wait_for_all`
    /// was entered is always drained, whichever thread made it. The
    /// count is held for a whole chained submission (every round of
    /// `run_n`, every queued run of a busy graph), so the gaps between
    /// chained epochs are observed as busy, never as a spurious idle.
    /// Submissions racing *into* `wait_for_all` from other threads may
    /// or may not be included; the call returns at some point when the
    /// executor is momentarily drained.
    pub fn wait_for_all(&self) {
        let mut g = self.inner.idle_lock.lock();
        while self.inner.num_topologies.load(Ordering::SeqCst) != 0 {
            self.inner.idle_cv.wait(&mut g);
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.wait_for_all();
        self.inner.done.store(true, Ordering::SeqCst);
        self.inner.notifier.notify_all();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        // Queues hold plain integer tokens (no ownership); draining is
        // purely defensive hygiene.
        for s in &self.inner.stealers {
            while let Steal::Success(_) = s.steal() {}
        }
        while self.inner.injector.pop().is_some() {}
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::data::HostVec;

    #[test]
    fn empty_graph_completes_immediately() {
        let ex = Executor::new(2, 1);
        let g = Heteroflow::new("empty");
        assert!(ex.run(&g).wait().is_ok());
    }

    #[test]
    fn placeholder_execution_is_an_error() {
        let ex = Executor::new(2, 0);
        let g = Heteroflow::new("ph");
        g.placeholder("nothing");
        assert!(matches!(ex.run(&g).wait(), Err(HfError::EmptyTask { .. })));
    }

    #[test]
    fn gpu_graph_without_gpus_errors() {
        let ex = Executor::new(2, 0);
        let g = Heteroflow::new("gpu");
        let x: HostVec<i32> = HostVec::from_vec(vec![1, 2, 3]);
        g.pull("px", &x);
        assert!(matches!(ex.run(&g).wait(), Err(HfError::NoGpus { .. })));
    }

    /// pull→kernel(double)→push lane over `data`; expect every element
    /// doubled after a successful run.
    pub(crate) fn gpu_lane(g: &Heteroflow, name: &str, data: &HostVec<i32>) {
        let p = g.pull(&format!("{name}_pull"), data);
        let k = g.kernel(&format!("{name}_k"), &[&p], |cfg, args| {
            let xs = args.slice_mut::<i32>(0).unwrap();
            for i in cfg.threads() {
                if i < xs.len() {
                    xs[i] *= 2;
                }
            }
        });
        k.block_x(64);
        let s = g.push(&format!("{name}_push"), &p, data);
        p.precede(&k);
        k.precede(&s);
    }

    #[test]
    fn unchanged_graph_reuses_cached_placement() {
        let ex = Executor::new(2, 1);
        let g = Heteroflow::new("cached");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 64]);
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        let s = g.push("s", &p, &x);
        p.precede(&k);
        k.precede(&s);

        for _ in 0..10 {
            ex.run(&g).wait().unwrap();
        }
        // Exactly one freeze + placement for the unchanged graph.
        assert_eq!(ex.stats().topo_cache_misses.sum(), 1);
        assert_eq!(ex.stats().topo_cache_hits.sum(), 9);

        // Mutating the graph invalidates the cache.
        g.host("extra", || {});
        ex.run(&g).wait().unwrap();
        assert_eq!(ex.stats().topo_cache_misses.sum(), 2);
        assert_eq!(ex.stats().topo_cache_hits.sum(), 9);
        // And the new epoch caches again.
        ex.run(&g).wait().unwrap();
        assert_eq!(ex.stats().topo_cache_misses.sum(), 2);
        assert_eq!(ex.stats().topo_cache_hits.sum(), 10);
    }

    #[test]
    fn run_n_of_unchanged_graph_is_one_placement() {
        let ex = Executor::new(2, 0);
        let g = Heteroflow::new("repeat");
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        g.host("inc", move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        ex.run_n(&g, 50).wait().unwrap();
        ex.run_n(&g, 50).wait().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(ex.stats().rounds.sum(), 100);
        // Two submissions, one graph version: one miss, one hit.
        assert_eq!(ex.stats().topo_cache_misses.sum(), 1);
        assert_eq!(ex.stats().topo_cache_hits.sum(), 1);
    }

    #[test]
    fn submission_after_device_loss_uses_survivors() {
        let ex = Executor::new(2, 2);
        ex.gpu_runtime().device(0).unwrap().mark_lost();
        let g = Heteroflow::new("degraded");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 64]);
        let y: HostVec<i32> = HostVec::from_vec(vec![3; 64]);
        gpu_lane(&g, "lx", &x);
        gpu_lane(&g, "ly", &y);
        ex.run(&g).wait().unwrap();
        assert!(x.read().iter().all(|&v| v == 2));
        assert!(y.read().iter().all(|&v| v == 6));
        assert_eq!(ex.stats().snapshot().devices_lost, 1);
    }

    #[test]
    fn second_executor_evicts_cache_entry() {
        let g = Heteroflow::new("two-ex");
        g.host("t", || {});
        let ex1 = Executor::new(1, 0);
        let ex2 = Executor::new(1, 0);
        ex1.run(&g).wait().unwrap();
        ex1.run(&g).wait().unwrap();
        assert_eq!(ex1.stats().topo_cache_misses.sum(), 1);
        assert_eq!(ex1.stats().topo_cache_hits.sum(), 1);
        // A different executor must not reuse ex1's plan.
        ex2.run(&g).wait().unwrap();
        assert_eq!(ex2.stats().topo_cache_misses.sum(), 1);
        assert_eq!(ex2.stats().topo_cache_hits.sum(), 0);
    }

    /// Locality policy end-to-end: correct results, the placement cache
    /// still hits on unchanged resubmission, and the resubmission elides
    /// its transfers via residency.
    #[test]
    fn locality_policy_runs_and_caches() {
        let ex = Executor::builder(2, 2)
            .placement_policy(PlacementPolicy::Locality)
            .build();
        let g = Heteroflow::new("loc");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 256]);
        let y: HostVec<i32> = HostVec::from_vec(vec![2; 256]);
        let px = g.pull("px", &x);
        let py = g.pull("py", &y);
        let _ = (px, py);
        ex.run(&g).wait().unwrap();
        ex.run(&g).wait().unwrap();
        let snap = ex.stats().snapshot();
        assert_eq!(snap.topo_cache_misses, 1);
        assert_eq!(snap.topo_cache_hits, 1);
        // Second submission found both buffers warm.
        assert_eq!(snap.transfers_elided, 2);
        assert_eq!(snap.bytes_h2d, 2048, "each buffer copied exactly once");
        // The locality runs fed the cost model.
        assert!(ex.cost_db().get("loc", "px").is_some());
        assert!(ex.cost_db().get("loc", "py").is_some());
    }

    /// The cost database only accumulates under the locality policy —
    /// the default policy's hot path stays observation-free.
    #[test]
    fn balanced_load_skips_cost_feedback() {
        let ex = Executor::new(2, 1);
        let g = Heteroflow::new("nofb");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 64]);
        gpu_lane(&g, "lane", &x);
        ex.run(&g).wait().unwrap();
        assert!(ex.cost_db().is_empty());
        assert_eq!(ex.stats().snapshot().placement_warm_hits, 0);
    }

    #[test]
    fn seeded_costs_survive_until_observed() {
        let ex = Executor::builder(1, 1)
            .placement_policy(PlacementPolicy::Locality)
            .build();
        ex.seed_task_cost("g", "t", 1234.0);
        assert_eq!(ex.cost_db().get("g", "t"), Some(1234.0));
        let g = Heteroflow::new("g");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 32]);
        g.pull("t", &x);
        ex.run(&g).wait().unwrap();
        // Observation replaced the seed with the modeled copy duration.
        let observed = ex.cost_db().get("g", "t").unwrap();
        assert_ne!(observed, 1234.0);
        assert!(observed > 0.0);
    }

    #[test]
    fn device_loads_tracks_gpu_count() {
        let ex = Executor::new(1, 3);
        assert_eq!(ex.device_loads().len(), 3);
        let g = Heteroflow::new("dl");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 128]);
        gpu_lane(&g, "lane", &x);
        ex.run(&g).wait().unwrap();
        assert!(ex.device_loads().iter().any(|&l| l > 0.0));
    }
}
