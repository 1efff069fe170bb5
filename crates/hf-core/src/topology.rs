//! Topologies: per-submission execution state, and the future returned to
//! callers.
//!
//! "When a graph is submitted to an executor, a special data structure
//! called *topology* is created to marshal execution parameters and
//! runtime metadata ... The communication is based on a shared state
//! managed by a pair of C++ promise and future objects" (§III-C).
//!
//! Beyond the paper's promise/future pair, the topology carries the
//! fault-tolerance state of one submission: per-node attempt counters for
//! the retry policy, per-node `round_ok` flags that let device failover
//! replay exactly the invalidated part of a round, and the cooperative
//! cancellation flag shared with every clone of the [`RunFuture`].
//!
//! ## The epoch model
//!
//! Since the streaming redesign, one topology executes exactly **one
//! epoch** — a single pass over the frozen graph. The sequential drivers
//! (`run`, `run_n`, `run_until`) and the streaming [`crate::Session`]
//! both create a fresh topology per epoch and chain them through the
//! [`Topology::on_finish`] hook, so there is a single execution code
//! path. All wait/cancel state lives in [`RunFuture`], the one future
//! type for runs and streaming epochs alike.

use crate::error::HfError;
use crate::graph::{FrozenGraph, PullState};
use crate::placement::Placement;
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

/// Shared promise state of one run or epoch (the C++ promise half).
pub(crate) struct Promise {
    state: Mutex<PromiseState>,
    cv: Condvar,
}

#[derive(Default)]
struct PromiseState {
    result: Option<Result<(), HfError>>,
    wakers: Vec<Waker>,
}

impl Promise {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(PromiseState::default()),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn complete(&self, result: Result<(), HfError>) {
        let mut st = self.state.lock();
        if st.result.is_some() {
            return;
        }
        st.result = Some(result);
        let wakers = std::mem::take(&mut st.wakers);
        self.cv.notify_all();
        drop(st);
        for w in wakers {
            w.wake();
        }
    }

    fn wait(&self) -> Result<(), HfError> {
        let mut st = self.state.lock();
        while st.result.is_none() {
            self.cv.wait(&mut st);
        }
        st.result.clone().expect("checked above")
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Result<(), HfError>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if let Some(r) = &st.result {
                return Some(r.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cv.wait_for(&mut st, deadline - now);
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().result.is_some()
    }

    fn poll(&self, cx: &mut std::task::Context<'_>) -> Poll<Result<(), HfError>> {
        let mut st = self.state.lock();
        if let Some(r) = &st.result {
            Poll::Ready(r.clone())
        } else {
            if !st.wakers.iter().any(|w| w.will_wake(cx.waker())) {
                st.wakers.push(cx.waker().clone());
            }
            Poll::Pending
        }
    }
}

/// Future of one submission: returned by [`crate::Executor::run`] and
/// friends, by [`crate::Fleet::submit`], and — as [`crate::EpochFuture`]
/// — by [`crate::Session::submit`]. All run methods are non-blocking:
/// "issuing a run on a graph returns immediately with a C++ future
/// object" (§III-B).
///
/// This is the one completion type (see DESIGN.md): one promise, one
/// cooperative cancellation flag, the submission's process-unique
/// `run_id`, and — for streaming epochs — the epoch index. It supports
/// blocking ([`RunFuture::wait`]), deadline-bounded
/// ([`RunFuture::wait_timeout`]), and async (`.await`) consumption, plus
/// cooperative cancellation ([`RunFuture::cancel`]). Clones share the
/// same state, so a monitor thread (watchdog, deadline enforcer) holds a
/// clone and observes exactly what the owner's `wait` does.
#[derive(Clone)]
pub struct RunFuture {
    pub(crate) promise: Arc<Promise>,
    /// Cooperative cancellation flag, shared with the topology: checked
    /// at task boundaries, round boundaries, and inside pending GPU
    /// stream operations.
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) run_id: u64,
    pub(crate) epoch: Option<u64>,
}

impl RunFuture {
    /// A fresh, incomplete future for one run (`epoch` is `None`) or one
    /// streaming epoch.
    pub(crate) fn new(run_id: u64, epoch: Option<u64>) -> Self {
        Self {
            promise: Promise::new(),
            cancel: Arc::new(AtomicBool::new(false)),
            run_id,
            epoch,
        }
    }

    /// An already-completed future (empty graphs, rejected submissions).
    /// Carries run id `0`: such futures never execute and never emit
    /// lifecycle events.
    pub(crate) fn ready(result: Result<(), HfError>) -> Self {
        let f = Self::new(0, None);
        f.promise.complete(result);
        f
    }

    /// Blocks until the run/epoch finishes; returns its result.
    pub fn wait(&self) -> Result<(), HfError> {
        self.promise.wait()
    }

    /// Blocks for at most `timeout`. Returns `None` when the deadline
    /// expired with the work still in flight (it keeps going — call
    /// `wait*` again or [`RunFuture::cancel`]), otherwise the result.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<(), HfError>> {
        self.promise.wait_timeout(timeout)
    }

    /// Requests cooperative cancellation. Non-blocking: in-flight task
    /// bodies finish, everything not yet started is skipped (including
    /// ops already enqueued on GPU streams), and the run/epoch completes
    /// with [`HfError::Cancelled`]. Cancelling one epoch leaves later
    /// epochs of its stream unaffected; cancelling finished work is a
    /// no-op.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// True once cancellation has been requested.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// True once the run/epoch has finished (success or error).
    pub fn is_done(&self) -> bool {
        self.promise.is_done()
    }

    /// Process-unique id of the owning submission. Lifecycle events
    /// recorded by a flight recorder carry the same id (`0` for
    /// immediately-ready futures, which never emit events). Every epoch
    /// of one stream shares the stream's run id.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// The epoch index within a stream, `None` for one-shot runs.
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }
}

impl std::fmt::Debug for RunFuture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunFuture")
            .field("run_id", &self.run_id)
            .field("epoch", &self.epoch)
            .field("done", &self.is_done())
            .field("cancel_requested", &self.cancel.load(Ordering::Relaxed))
            .finish()
    }
}

impl std::future::Future for RunFuture {
    type Output = Result<(), HfError>;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> Poll<Self::Output> {
        self.promise.poll(cx)
    }
}

/// Admission gate of one streaming epoch: the epoch's *body* (kernels,
/// pushes, and their descendants) stays parked — via join-counter
/// inflation on the gate heads — until the previous epoch of the stream
/// completes. The *prologue* (host tasks and pulls) runs immediately, so
/// epoch N+1's H2D transfers overlap epoch N's kernels.
pub(crate) struct EpochGate {
    /// Body nodes with no body predecessor (the inflated entry points).
    pub(crate) heads: Vec<usize>,
    /// Per-node flag for O(1) "is this a gate head" checks.
    pub(crate) is_head: Vec<bool>,
    /// Set once the gate opened; opening is idempotent.
    pub(crate) opened: AtomicBool,
}

/// Tracks the prologue (non-body) portion of a streaming epoch so the
/// session can admit the next epoch — and apply its input mutation — as
/// soon as every host task and pull of this epoch has drained.
pub(crate) struct PrologueTrack {
    /// True for prologue members (host tasks / pulls not downstream of a
    /// kernel or push).
    pub(crate) is_prologue: Arc<Vec<bool>>,
    /// Prologue nodes not yet finished this epoch. Saturating: failover
    /// replay may re-finish a prologue node.
    pub(crate) pending: AtomicUsize,
    /// Fired exactly once when `pending` reaches zero.
    pub(crate) hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// Guards failover replay against superseded host inputs: once the
/// session has admitted a later epoch (and run its input mutator), this
/// epoch's pulls must not be replayed — they would read the *next*
/// epoch's data. `gen` is the session's input generation counter;
/// `admitted_gen` its value when this epoch was admitted.
pub(crate) struct InputGuard {
    pub(crate) gen: Arc<AtomicU64>,
    pub(crate) admitted_gen: u64,
}

/// Optional epoch-execution context for [`Topology::new`]. Sequential
/// one-shot epochs use `TopoExtras::default()`; streaming sessions fill
/// in the gate, prologue tracking, ring-slot residency, and hooks.
/// Hook invoked once by `finish_topology` after an epoch resolves;
/// sequential drivers and stream sessions chain the next epoch here.
pub(crate) type EpochFinishHook = Box<dyn FnOnce(&Arc<Topology>) + Send>;

#[derive(Default)]
pub(crate) struct TopoExtras {
    /// Epoch index within a stream; `None` for sequential runs.
    pub(crate) epoch: Option<u64>,
    /// Ring-slot pull residency replacing the frozen graph's own
    /// `PullState`s (double buffering across in-flight epochs).
    pub(crate) pull_override: Option<Arc<Vec<Mutex<PullState>>>>,
    /// Body admission gate (streaming pipelining).
    pub(crate) gate: Option<EpochGate>,
    /// Prologue drain tracking (streaming admission).
    pub(crate) prologue: Option<PrologueTrack>,
    /// Invoked by `finish_topology` after the epoch resolved; drivers and
    /// sessions chain the next epoch here.
    pub(crate) on_finish: Option<EpochFinishHook>,
    /// Failover input-hazard guard (streaming).
    pub(crate) input_guard: Option<InputGuard>,
    /// Tenant the submission is attributed to ([`crate::Fleet`]
    /// submissions); stamped onto every lifecycle event of the epoch.
    pub(crate) tenant: Option<Arc<str>>,
}

/// Per-submission runtime state: join counters, round bookkeeping, device
/// placement, the stopping predicate, and the epoch-completion hook. One
/// topology executes one epoch (a single pass over the frozen graph);
/// drivers chain topologies for multi-epoch runs.
pub(crate) struct Topology {
    pub(crate) frozen: Arc<FrozenGraph>,
    /// Process-unique submission id (shared with the [`RunFuture`] /
    /// [`crate::Session`] and every lifecycle event of this run).
    pub(crate) run_id: u64,
    /// Graph name as a shared string, cloned into lifecycle events
    /// without reallocating.
    pub(crate) graph_label: Arc<str>,
    /// Current device placement. Initially shared with the graph's
    /// scheduling cache; device failover swaps in a re-placed plan.
    pub(crate) placement: RwLock<Arc<Placement>>,
    /// Remaining unmet dependencies per node, reset each round.
    pub(crate) join: Vec<AtomicUsize>,
    /// Nodes not yet finished this round.
    pub(crate) pending: AtomicUsize,
    /// Stopping predicate: `true` means stop (checked before each round).
    pub(crate) predicate: Mutex<Box<dyn FnMut() -> bool + Send>>,
    /// First error observed during execution.
    pub(crate) error: Mutex<Option<HfError>>,
    /// Set once an error occurs: remaining task bodies are skipped while
    /// the round drains.
    pub(crate) cancelled: AtomicBool,
    /// Cooperative cancellation requested via [`RunFuture::cancel`];
    /// shared with the owning future.
    pub(crate) cancel: Arc<AtomicBool>,
    /// Rounds completed (diagnostic).
    pub(crate) rounds: AtomicUsize,
    /// Task fusion plan (§III-C "task fusing"). Initially shared with the
    /// graph's scheduling cache; failover swaps in a replay-masked plan.
    pub(crate) fusion: RwLock<Arc<FusionPlan>>,
    /// The fusion plan is a failover replay mask and must be recomputed
    /// for the new placement before the next full round.
    pub(crate) fusion_stale: AtomicBool,
    /// Failed attempts per node this round (retry-policy bookkeeping).
    pub(crate) attempts: Vec<AtomicU32>,
    /// Whether each node completed successfully this round. Device
    /// failover uses this to replay exactly the unfinished/invalidated
    /// part of the round.
    pub(crate) round_ok: Vec<AtomicBool>,
    /// A device loss requested failover; handled when the round drains.
    /// Holds the triggering error so a failed failover reports it.
    pub(crate) failover: Mutex<Option<HfError>>,
    /// Fast-path mirror of `failover.is_some()`: workers skip task bodies
    /// while a failover is pending so half-failed state never propagates.
    pub(crate) failover_pending: AtomicBool,
    /// Failovers performed for this submission (bounded by the policy).
    pub(crate) failovers: AtomicU32,
    /// Slot in the executor's topology registry while this topology is in
    /// flight; `u32::MAX` before registration. Work tokens pack this slot
    /// with a node index, so queued items carry no heap pointer.
    pub(crate) slot: AtomicU32,
    /// Epoch index within a stream; `None` for sequential epochs.
    pub(crate) epoch: Option<u64>,
    /// Ring-slot pull residency (streaming double buffering); `None`
    /// falls back to the frozen nodes' own `PullState`s.
    pub(crate) pull_override: Option<Arc<Vec<Mutex<PullState>>>>,
    /// Streaming body admission gate.
    pub(crate) gate: Option<EpochGate>,
    /// Streaming prologue drain tracking.
    pub(crate) prologue: Option<PrologueTrack>,
    /// Invoked (once) by `finish_topology` after the epoch resolved.
    pub(crate) on_finish: Mutex<Option<EpochFinishHook>>,
    /// Failover input-hazard guard (streaming).
    pub(crate) input_guard: Option<InputGuard>,
    /// Tenant attribution (fleet submissions); cloned into lifecycle
    /// events so per-tenant latency histograms can be folded downstream.
    pub(crate) tenant: Option<Arc<str>>,
    /// Retry-policy re-dispatches performed within this epoch. Drivers
    /// accumulate it across chained epochs so a fleet can charge the
    /// retry work to the owning tenant's budget.
    pub(crate) retries: AtomicU32,
}

impl Topology {
    pub(crate) fn new(
        frozen: Arc<FrozenGraph>,
        run_id: u64,
        placement: Arc<Placement>,
        fusion: Arc<FusionPlan>,
        predicate: Box<dyn FnMut() -> bool + Send>,
        cancel: Arc<AtomicBool>,
        extras: TopoExtras,
    ) -> Arc<Self> {
        let n = frozen.nodes.len();
        let join = frozen
            .nodes
            .iter()
            .map(|nd| AtomicUsize::new(nd.num_deps))
            .collect();
        let graph_label: Arc<str> = Arc::from(frozen.name.as_str());
        Arc::new(Self {
            frozen: Arc::clone(&frozen),
            run_id,
            graph_label,
            placement: RwLock::new(placement),
            join,
            pending: AtomicUsize::new(n),
            predicate: Mutex::new(predicate),
            error: Mutex::new(None),
            cancelled: AtomicBool::new(false),
            cancel,
            rounds: AtomicUsize::new(0),
            fusion: RwLock::new(fusion),
            fusion_stale: AtomicBool::new(false),
            attempts: (0..n).map(|_| AtomicU32::new(0)).collect(),
            round_ok: (0..n).map(|_| AtomicBool::new(false)).collect(),
            failover: Mutex::new(None),
            failover_pending: AtomicBool::new(false),
            failovers: AtomicU32::new(0),
            slot: AtomicU32::new(u32::MAX),
            epoch: extras.epoch,
            pull_override: extras.pull_override,
            gate: extras.gate,
            prologue: extras.prologue,
            on_finish: Mutex::new(extras.on_finish),
            input_guard: extras.input_guard,
            tenant: extras.tenant,
            retries: AtomicU32::new(0),
        })
    }

    /// Current placement (failover may swap it between rounds).
    pub(crate) fn placement(&self) -> Arc<Placement> {
        Arc::clone(&self.placement.read())
    }

    /// Current fusion plan (failover may swap it between rounds).
    pub(crate) fn fusion(&self) -> Arc<FusionPlan> {
        Arc::clone(&self.fusion.read())
    }

    /// The pull residency of `node` for this epoch: the ring slot when
    /// streaming double buffering is active, otherwise the frozen node's
    /// own persistent `PullState` (sequential epochs, where residency
    /// carries across epochs and re-freezes).
    pub(crate) fn pull_state(&self, node: usize) -> &Mutex<PullState> {
        match &self.pull_override {
            Some(ring) => &ring[node],
            None => &self.frozen.nodes[node].pull_state,
        }
    }

    /// True once the caller requested cancellation.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Records a device-loss failover request; the first cause wins.
    pub(crate) fn request_failover(&self, cause: HfError) {
        let mut f = self.failover.lock();
        if f.is_none() {
            *f = Some(cause);
        }
        self.failover_pending.store(true, Ordering::Release);
    }

    /// Resets per-round counters for the next repetition. When a
    /// still-closed epoch gate is present, the gate heads' join counters
    /// are inflated by one: the extra dependency is consumed by
    /// `open_gate` when the previous epoch of the stream completes.
    pub(crate) fn reset_round(&self) {
        for (j, n) in self.join.iter().zip(&self.frozen.nodes) {
            j.store(n.num_deps, Ordering::Relaxed);
        }
        if let Some(g) = &self.gate {
            if !g.opened.load(Ordering::Acquire) {
                for &h in &g.heads {
                    self.join[h].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        for a in &self.attempts {
            a.store(0, Ordering::Relaxed);
        }
        for ok in &self.round_ok {
            ok.store(false, Ordering::Relaxed);
        }
        self.pending
            .store(self.frozen.nodes.len(), Ordering::Release);
    }

    /// Records the first error and cancels remaining bodies.
    pub(crate) fn fail(&self, e: HfError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.cancelled.store(true, Ordering::Release);
    }

    /// The final result for the completion promise.
    pub(crate) fn result(&self) -> Result<(), HfError> {
        match self.error.lock().clone() {
            Some(e) => Err(e),
            None if self.cancel_requested() => Err(HfError::Cancelled),
            None => Ok(()),
        }
    }
}

/// Precomputed GPU task-fusion chains (§III-C "task fusing"). Pure
/// function of (frozen graph, placement, fusion flag), so the executor
/// caches it alongside the placement and reuses it across submissions of
/// an unchanged graph.
pub(crate) struct FusionPlan {
    /// `next[v]` chains v to a GPU successor dispatched on the same
    /// stream submission; members of a chain (non-heads) are never
    /// scheduled individually.
    pub(crate) next: Vec<Option<u32>>,
    /// True for chain members (every node with a fused predecessor).
    pub(crate) member: Vec<bool>,
}

impl FusionPlan {
    /// Identifies fusible GPU chains: node `v` fuses to its successor `w`
    /// when `v` is a GPU task, `w` is a *kernel or push* task whose only
    /// dependency is `v`, and both are placed on the same device. Pull
    /// tasks are never fused as members (their device allocation sizes
    /// bind at dispatch time and must observe their host-side
    /// predecessors).
    pub(crate) fn compute(
        frozen: &FrozenGraph,
        placement: &crate::placement::Placement,
        enabled: bool,
    ) -> Self {
        Self::plan(frozen, placement, enabled, None)
    }

    /// [`FusionPlan::compute`] restricted to the `active` nodes — the
    /// failover replay plan, and the streaming body plan (a chain must
    /// never lead from a prologue pull into a gated body kernel, or the
    /// member would bypass the epoch gate). A chain must not lead from an
    /// already-finished head into a replayed member (the head would never
    /// be dispatched again), so both endpoints must be active.
    pub(crate) fn compute_masked(
        frozen: &FrozenGraph,
        placement: &crate::placement::Placement,
        enabled: bool,
        active: &[bool],
    ) -> Self {
        Self::plan(frozen, placement, enabled, Some(active))
    }

    fn plan(
        frozen: &FrozenGraph,
        placement: &crate::placement::Placement,
        enabled: bool,
        active: Option<&[bool]>,
    ) -> Self {
        use crate::graph::TaskKind;
        let n = frozen.nodes.len();
        let mut next = vec![None; n];
        let mut member = vec![false; n];
        if !enabled {
            return Self { next, member };
        }
        let is_active = |i: usize| active.is_none_or(|a| a[i]);
        #[allow(clippy::needless_range_loop)] // v indexes three parallel arrays
        for v in 0..n {
            if !is_active(v) {
                continue;
            }
            let vk = frozen.nodes[v].work.kind();
            let v_gpu = matches!(vk, TaskKind::Pull | TaskKind::Push | TaskKind::Kernel);
            if !v_gpu || frozen.nodes[v].succ.len() != 1 {
                continue;
            }
            let w = frozen.nodes[v].succ[0];
            let wk = frozen.nodes[w].work.kind();
            let w_fusible = matches!(wk, TaskKind::Push | TaskKind::Kernel);
            if w_fusible
                && is_active(w)
                && frozen.nodes[w].num_deps == 1
                && placement.device_of[v] == placement.device_of[w]
                && !member[w]
            {
                next[v] = Some(w as u32);
                member[w] = true;
            }
        }
        Self { next, member }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_future(c: &Arc<Promise>) -> RunFuture {
        RunFuture {
            promise: Arc::clone(c),
            cancel: Arc::new(AtomicBool::new(false)),
            run_id: 0,
            epoch: None,
        }
    }

    #[test]
    fn completion_wait_and_poll() {
        let c = Promise::new();
        let fut = test_future(&c);
        assert!(!fut.is_done());
        c.complete(Ok(()));
        assert!(fut.is_done());
        assert!(fut.wait().is_ok());
        // Second completion is ignored.
        c.complete(Err(HfError::ExecutorShutDown));
        assert!(fut.wait().is_ok());
    }

    #[test]
    fn ready_future() {
        let f = RunFuture::ready(Err(HfError::ExecutorShutDown));
        assert!(f.is_done());
        assert_eq!(f.wait(), Err(HfError::ExecutorShutDown));
    }

    #[test]
    fn wait_timeout_expires_then_succeeds() {
        let c = Promise::new();
        let fut = test_future(&c);
        assert_eq!(fut.wait_timeout(Duration::from_millis(20)), None);
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            c2.complete(Ok(()));
        });
        assert_eq!(fut.wait_timeout(Duration::from_secs(10)), Some(Ok(())));
        // Completed future: any timeout returns immediately.
        assert_eq!(fut.wait_timeout(Duration::ZERO), Some(Ok(())));
        t.join().unwrap();
    }

    #[test]
    fn cancel_flag_is_shared_across_clones() {
        let c = Promise::new();
        let fut = test_future(&c);
        let clone = fut.clone();
        clone.cancel();
        assert!(fut.cancel_requested());
        assert!(!fut.is_done());
    }

    #[test]
    fn future_is_pollable() {
        // Poll with a no-op waker through a minimal block_on.
        let c = Promise::new();
        let fut = test_future(&c);
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            c2.complete(Ok(()));
        });
        let result = pollster_block_on(fut);
        assert!(result.is_ok());
        t.join().unwrap();
    }

    #[test]
    fn completion_core_is_awaitable_and_tagged() {
        let c = Promise::new();
        let fut = RunFuture {
            promise: Arc::clone(&c),
            cancel: Arc::new(AtomicBool::new(false)),
            run_id: 7,
            epoch: Some(3),
        };
        assert_eq!(fut.run_id(), 7);
        assert_eq!(fut.epoch(), Some(3));
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            c2.complete(Ok(()));
        });
        assert!(pollster_block_on(fut).is_ok());
        t.join().unwrap();
    }

    /// Minimal executor for testing `impl Future` without external deps.
    fn pollster_block_on<F: std::future::Future>(fut: F) -> F::Output {
        use std::sync::mpsc;
        use std::task::{Context, RawWaker, RawWakerVTable};
        let (tx, rx) = mpsc::channel::<()>();

        fn raw(tx: *const ()) -> RawWaker {
            RawWaker::new(tx, &VTABLE)
        }
        unsafe fn clone(tx: *const ()) -> RawWaker {
            let t = &*(tx as *const mpsc::Sender<()>);
            let boxed = Box::new(t.clone());
            raw(Box::into_raw(boxed) as *const ())
        }
        unsafe fn wake(tx: *const ()) {
            let t = Box::from_raw(tx as *mut mpsc::Sender<()>);
            let _ = t.send(());
        }
        unsafe fn wake_by_ref(tx: *const ()) {
            let t = &*(tx as *const mpsc::Sender<()>);
            let _ = t.send(());
        }
        unsafe fn drop_waker(tx: *const ()) {
            drop(Box::from_raw(tx as *mut mpsc::Sender<()>));
        }
        static VTABLE: RawWakerVTable =
            RawWakerVTable::new(clone, wake, wake_by_ref, drop_waker);

        let boxed = Box::new(tx);
        let waker =
            unsafe { std::task::Waker::from_raw(raw(Box::into_raw(boxed) as *const ())) };
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => {
                    let _ = rx.recv();
                }
            }
        }
    }
}
