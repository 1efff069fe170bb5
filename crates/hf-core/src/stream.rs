//! Streaming epoch execution: resident sessions and the shared epoch
//! driver behind `run`/`run_n`/`run_until`.
//!
//! The paper's execution model submits one graph and waits
//! ("issuing a run on a graph returns immediately with a C++ future
//! object", §III-B). Serving-style workloads resubmit the *same* graph
//! for round after round of fresh host inputs; paying the submission
//! preamble each round — and, worse, leaving the devices idle between
//! the rounds — wastes exactly the concurrency the runtime exists to
//! extract. This module adds a first-class streaming mode:
//!
//! * [`crate::Executor::run_stream`] returns a [`Session`] that keeps
//!   the frozen snapshot, device placement, fusion plan, and device
//!   residency resident across epochs.
//! * [`Session::submit`] enqueues the next epoch and returns an
//!   [`EpochFuture`] immediately. Up to [`StreamConfig::depth`] epochs
//!   are in flight at once; `submit` applies backpressure beyond that.
//! * Epochs **pipeline**: epoch N+1's host tasks and H2D transfers (its
//!   *prologue*) start as soon as epoch N's prologue has drained, while
//!   epoch N's kernels still occupy the devices. Each epoch's *body*
//!   (kernels, pushes, and their descendants) is held behind an
//!   admission gate until the previous epoch completes, so per-epoch
//!   results are exactly those of sequential execution.
//! * Pull residency is **double-buffered**: epoch `e` owns ring slot
//!   `e % depth`, so epoch N+1's H2D chunks land in their own device
//!   buffers and never clobber data epoch N is still consuming.
//!
//! The sequential entry points (`run`, `run_n`, `run_until`) are thin
//! wrappers over the same machinery: [`run_driver`] chains one
//! single-round epoch topology per repetition through the
//! epoch-completion hook, so there is a single execution code path.
//!
//! ## Failure containment
//!
//! A failed or cancelled epoch resolves *alone*: its [`EpochFuture`]
//! reports the error, the stream keeps serving, and — after a device
//! loss — the session re-places subsequent epochs against the surviving
//! devices. A mid-epoch device failover replays within the epoch unless
//! a later epoch's input mutation has already been applied
//! ([`crate::topology::InputGuard`]), in which case the epoch fails
//! rather than replay pulls against superseded host data.

use crate::error::HfError;
use crate::executor::{ExecInner, Executor};
use crate::graph::{FrozenGraph, GraphShared, Heteroflow, PullState, TaskKind};
use crate::lifecycle::LifecyclePhase;
use crate::placement::Placement;
use crate::topology::{
    EpochGate, FusionPlan, InputGuard, PrologueTrack, RunFuture, TopoExtras, Topology,
};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Configuration of a streaming [`Session`].
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Maximum epochs in flight at once — and the size of the pull
    /// residency ring. [`Session::submit`] blocks (backpressure) while
    /// `depth` epochs are unfinished. Depth 2 (the default) double
    /// buffers: the next epoch's H2D transfers overlap the current
    /// epoch's kernels. Depth 1 serializes epochs (still resident — the
    /// submission preamble is paid once). Clamped to at least 1.
    pub depth: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self { depth: 2 }
    }
}

/// Future of one streaming epoch, returned by [`Session::submit`]: the
/// same [`RunFuture`] type every submission path returns, with
/// [`RunFuture::epoch`] set. Cancelling it cancels this epoch only.
pub type EpochFuture = RunFuture;

// ---------------------------------------------------------------------------
// Sequential driver: run / run_n / run_until over the epoch machinery.
// ---------------------------------------------------------------------------

/// Claims `shared` for a new submission (`true`), or queues `starter`
/// behind the active owner — the paper's topology list (§III-C).
fn claim_or_queue(shared: &GraphShared, starter: impl FnOnce() + Send + 'static) -> bool {
    let mut rs = shared.run_state.lock();
    if rs.active {
        rs.queued.push_back(Box::new(starter));
        false
    } else {
        rs.active = true;
        true
    }
}

/// Hands the graph's run claim to the next queued submission, or marks
/// the graph idle.
fn release_claim(shared: &GraphShared) {
    let next = {
        let mut rs = shared.run_state.lock();
        let next = rs.queued.pop_front();
        rs.active = next.is_some();
        next
    };
    if let Some(starter) = next {
        starter();
    }
}

/// One sequential submission: chains single-round epoch topologies until
/// the stopping predicate fires, then settles the promise and promotes
/// the next queued run of the graph.
struct SeqDriver {
    inner: Arc<ExecInner>,
    shared: Arc<GraphShared>,
    frozen: Arc<FrozenGraph>,
    label: Arc<str>,
    run_id: u64,
    /// The caller's stopping predicate (checked once before each epoch).
    predicate: Mutex<Box<dyn FnMut() -> bool + Send>>,
    /// Placement carried across epochs: a device failover inside one
    /// epoch re-places it, and the next epoch must not resurrect the
    /// lost device from the scheduling cache.
    placement: Mutex<Arc<Placement>>,
    fusion: Mutex<Arc<FusionPlan>>,
    core: RunFuture,
    /// Tenant attribution (fleet submissions); stamped onto each epoch
    /// topology and the run-level lifecycle events.
    tenant: Option<Arc<str>>,
    /// Retry-policy re-dispatches accumulated across the chained epochs,
    /// reported to `on_done` so a fleet can bill retry work.
    retries: AtomicU32,
    /// Completion callback (fleet accounting); fired exactly once, after
    /// the promise settles.
    on_done: Mutex<Option<DoneHook>>,
}

/// Completion callback of one driver submission: the run's result and
/// the retry-policy re-dispatches it consumed (for tenant billing).
pub(crate) type DoneHook = Box<dyn FnOnce(&Result<(), HfError>, u32) + Send>;

/// Submission context threaded by [`crate::Fleet`] through the driver:
/// a pre-allocated future (so a parked future exists *before*
/// admission), the owning tenant, and a completion callback.
#[derive(Default)]
pub(crate) struct DriverExtras {
    /// Pre-allocated future; `None` allocates one internally.
    pub(crate) core: Option<RunFuture>,
    /// Tenant attribution for lifecycle events and telemetry.
    pub(crate) tenant: Option<Arc<str>>,
    /// Invoked once when the submission settles (after the promise).
    pub(crate) on_done: Option<DoneHook>,
}

/// Drives `run_until` (and through it `run`/`run_n`): plans once, claims
/// the graph (or queues behind its active owner), then executes one
/// epoch topology per repetition. Non-blocking; returns the future.
pub(crate) fn run_driver(
    exec: &Executor,
    hf: &Heteroflow,
    stop: Box<dyn FnMut() -> bool + Send>,
) -> RunFuture {
    run_driver_ext(exec, hf, stop, DriverExtras::default())
}

/// [`run_driver`] with fleet submission context ([`DriverExtras`]).
/// Early failures (executor shut down, plan rejection) settle the
/// provided future and fire `on_done` before returning, so fleet
/// bookkeeping never leaks an in-flight slot.
pub(crate) fn run_driver_ext(
    exec: &Executor,
    hf: &Heteroflow,
    stop: Box<dyn FnMut() -> bool + Send>,
    extras: DriverExtras,
) -> RunFuture {
    let DriverExtras {
        core: pre_core,
        tenant,
        on_done,
    } = extras;
    let fail_early = |e: HfError, pre: Option<RunFuture>, od: Option<DoneHook>| {
        let result = Err(e);
        if let Some(cb) = od {
            cb(&result, 0);
        }
        match pre {
            Some(f) => {
                f.promise.complete(result);
                f
            }
            None => RunFuture::ready(result),
        }
    };
    let inner = &exec.inner;
    if inner.done.load(Ordering::SeqCst) {
        return fail_early(HfError::ExecutorShutDown, pre_core, on_done);
    }
    let plan = match exec.plan_for(hf) {
        Ok(p) => p,
        Err(e) => return fail_early(e, pre_core, on_done),
    };
    let core = match pre_core {
        Some(c) => c,
        None => RunFuture::new(inner.run_seq.fetch_add(1, Ordering::Relaxed) + 1, None),
    };
    let run_id = core.run_id();
    let label: Arc<str> = Arc::from(plan.frozen.name());
    inner.emit_run_lc(
        run_id,
        &label,
        LifecyclePhase::RunStart,
        None,
        tenant.as_ref(),
        Ok(&()),
    );
    if let Some(report) = &plan.lint_report {
        inner.emit_lint_lc(run_id, &label, report);
    }
    // The driver holds one in-flight count for the whole submission (its
    // epoch topologies add their own), so `wait_for_all` observes the
    // gaps between chained epochs as busy, not idle.
    inner.num_topologies.fetch_add(1, Ordering::SeqCst);

    let driver = Arc::new(SeqDriver {
        inner: Arc::clone(inner),
        shared: Arc::clone(&hf.shared),
        frozen: plan.frozen,
        label,
        run_id,
        predicate: Mutex::new(stop),
        placement: Mutex::new(plan.placement),
        fusion: Mutex::new(plan.fusion),
        core: core.clone(),
        tenant,
        retries: AtomicU32::new(0),
        on_done: Mutex::new(on_done),
    });

    let d = Arc::clone(&driver);
    if claim_or_queue(&hf.shared, move || d.step()) {
        driver.step();
    }
    core
}

impl SeqDriver {
    /// Starts the next epoch, or finishes the run when cancelled / the
    /// predicate fired / the graph is empty. Recursion through
    /// `on_epoch_done` is bounded: a non-empty epoch finishes on a
    /// worker or engine thread, never synchronously inside `step`.
    fn step(self: &Arc<Self>) {
        if self.core.cancel_requested() {
            return self.finish(Err(HfError::Cancelled));
        }
        if (self.predicate.lock())() {
            return self.finish(Ok(()));
        }
        if self.frozen.nodes.is_empty() {
            return self.finish(Ok(()));
        }
        let placement = Arc::clone(&self.placement.lock());
        let fusion = Arc::clone(&self.fusion.lock());
        // Run-once predicate: one round per epoch topology (the first,
        // false call is consumed by `start_topology`'s pre-round check).
        let mut fired = false;
        let once = Box::new(move || std::mem::replace(&mut fired, true));
        let d = Arc::clone(self);
        let topo = Topology::new(
            Arc::clone(&self.frozen),
            self.run_id,
            placement,
            fusion,
            once,
            Arc::clone(&self.core.cancel),
            TopoExtras {
                on_finish: Some(Box::new(move |t: &Arc<Topology>| d.on_epoch_done(t))),
                tenant: self.tenant.clone(),
                ..Default::default()
            },
        );
        self.inner.registry.register(&topo);
        self.inner.num_topologies.fetch_add(1, Ordering::SeqCst);
        self.inner.start_topology(topo);
    }

    /// Epoch-completion hook: carries a failover's re-placement forward
    /// (the epoch-local fusion recompute in `end_round` never runs for
    /// single-round epochs), then chains the next epoch or finishes.
    fn on_epoch_done(self: &Arc<Self>, topo: &Arc<Topology>) {
        let r = topo.retries.load(Ordering::Relaxed);
        if r > 0 {
            self.retries.fetch_add(r, Ordering::Relaxed);
        }
        let p = topo.placement();
        {
            let mut cur = self.placement.lock();
            if !Arc::ptr_eq(&p, &cur) {
                let plan = FusionPlan::compute(&self.frozen, &p, self.inner.fusion);
                *self.fusion.lock() = Arc::new(plan);
                *cur = p;
            }
        }
        match topo.result() {
            Err(e) => self.finish(Err(e)),
            Ok(()) => self.step(),
        }
    }

    /// Emits `RunEnd` (the run's last lifecycle event), releases the
    /// graph claim, settles the promise, and drops the submission's
    /// in-flight hold. The claim is released *before* the promise
    /// settles: a waiter is free to mutate and resubmit the graph the
    /// instant `wait` returns, and a still-held claim would make its
    /// re-freeze fail with [`HfError::GraphBusy`]. Called exactly once
    /// per driver.
    fn finish(&self, result: Result<(), HfError>) {
        if matches!(result, Err(HfError::Cancelled)) {
            self.inner.stats.cancelled.incr();
        }
        self.inner.emit_run_lc(
            self.run_id,
            &self.label,
            LifecyclePhase::RunEnd,
            None,
            self.tenant.as_ref(),
            result.as_ref(),
        );
        release_claim(&self.shared);
        // The done hook (the fleet's slot release) runs *before* the
        // promise settles: a submitter woken by the completion then finds
        // the in-flight slot already freed instead of contending with
        // this thread for the fleet state lock.
        let done_hook = self.on_done.lock().take();
        if let Some(cb) = done_hook {
            cb(&result, self.retries.load(Ordering::Relaxed));
        }
        self.core.promise.complete(result.clone());
        self.inner.drop_inflight();
    }
}

// ---------------------------------------------------------------------------
// Streaming session.
// ---------------------------------------------------------------------------

/// A resident streaming session on one graph, returned by
/// [`crate::Executor::run_stream`].
///
/// The session holds the frozen snapshot, placement, fusion plans, and a
/// `depth`-deep ring of device-residency slots for the graph's pull
/// tasks. [`Session::submit`] enqueues one epoch (one pass over the
/// graph) and returns an [`EpochFuture`]; epochs pipeline as described
/// in the [module docs](self). Dropping (or [`Session::close`]-ing) the
/// session drains in-flight epochs and releases the graph for other
/// submissions; while the session is open, `run`/`run_n` calls on the
/// same graph queue behind it.
pub struct Session {
    core: Arc<SessionCore>,
}

struct SessionCore {
    inner: Arc<ExecInner>,
    shared: Arc<GraphShared>,
    frozen: Arc<FrozenGraph>,
    label: Arc<str>,
    run_id: u64,
    depth: usize,
    /// True for body nodes (kernels, pushes, and their descendants) —
    /// the gated portion of each epoch.
    is_body: Vec<bool>,
    /// Body nodes with no body predecessor: the gate's inflated heads.
    gate_heads: Vec<usize>,
    gate_is_head: Vec<bool>,
    /// Complement of `is_body`, shared with every epoch's
    /// [`PrologueTrack`].
    is_prologue: Arc<Vec<bool>>,
    prologue_count: usize,
    /// Double-buffered pull residency: epoch `e` owns `rings[e % depth]`.
    rings: Vec<Arc<Vec<Mutex<PullState>>>>,
    /// Input generation: bumped by each applied submit-time mutator so a
    /// device failover can detect superseded host inputs.
    input_gen: Arc<AtomicU64>,
    state: Mutex<SessState>,
    cv: Condvar,
}

struct SessState {
    /// The session owns the graph's run claim.
    claimed: bool,
    /// `close` was called: no further submissions.
    closed: bool,
    /// `RunEnd` emitted and the claim released (close is idempotent).
    run_ended: bool,
    /// Next epoch index to hand out.
    next_epoch: u64,
    /// Epochs admitted (topology started); admission order is epoch
    /// order.
    admitted: u64,
    /// Contiguous epochs whose prologue has drained; the next epoch's
    /// input mutation must wait for this to reach `admitted`.
    prologue_done: u64,
    /// Contiguous completed-epoch watermark: epochs `0..completed_mark`
    /// have all finished. Gates open and ring slots recycle against it.
    completed_mark: u64,
    /// Finished epochs at or above the watermark.
    done_set: BTreeSet<u64>,
    /// Submitted epochs not yet finished (backpressure counter).
    inflight: usize,
    /// Submitted epochs not yet admitted.
    queue: VecDeque<PendingEpoch>,
    /// Admitted epochs whose body gate waits on the watermark.
    pending_gate: Vec<(u64, Arc<Topology>)>,
    /// Placement carried across epochs (failover re-placements stick).
    placement: Arc<Placement>,
    /// Body-masked fusion plan for the current placement (prologue→body
    /// chains must not bypass the gate).
    fusion: Arc<FusionPlan>,
    /// The session currently holds one executor in-flight count (taken
    /// when `inflight` 0→1, released when it drains to 0), so
    /// `wait_for_all` quiesces busy streams but ignores idle ones.
    holding: bool,
}

struct PendingEpoch {
    epoch: u64,
    mutator: Option<Box<dyn FnOnce() + Send>>,
    core: RunFuture,
}

impl Session {
    pub(crate) fn open(
        exec: &Executor,
        hf: &Heteroflow,
        cfg: StreamConfig,
    ) -> Result<Self, HfError> {
        let inner = &exec.inner;
        if inner.done.load(Ordering::SeqCst) {
            return Err(HfError::ExecutorShutDown);
        }
        let plan = exec.plan_for(hf)?;
        let frozen = plan.frozen;
        let n = frozen.nodes.len();
        let depth = cfg.depth.max(1);

        // Body = kernels and pushes plus everything downstream of one;
        // prologue = the rest (host tasks and pulls feeding the body).
        let mut is_body = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        for (i, nd) in frozen.nodes.iter().enumerate() {
            if matches!(nd.work.kind(), TaskKind::Kernel | TaskKind::Push) && !is_body[i] {
                is_body[i] = true;
                stack.push(i);
            }
        }
        while let Some(v) = stack.pop() {
            for &s in &frozen.nodes[v].succ {
                if !is_body[s] {
                    is_body[s] = true;
                    stack.push(s);
                }
            }
        }
        let mut has_body_pred = vec![false; n];
        for (v, nd) in frozen.nodes.iter().enumerate() {
            if is_body[v] {
                for &s in &nd.succ {
                    has_body_pred[s] = true;
                }
            }
        }
        let gate_heads: Vec<usize> =
            (0..n).filter(|&i| is_body[i] && !has_body_pred[i]).collect();
        let mut gate_is_head = vec![false; n];
        for &h in &gate_heads {
            gate_is_head[h] = true;
        }
        let is_prologue: Vec<bool> = is_body.iter().map(|&b| !b).collect();
        let prologue_count = is_prologue.iter().filter(|&&p| p).count();

        // The steady-state fusion plan is masked to the body: a chain
        // from a prologue pull into a body kernel would dispatch the
        // kernel with the pull and bypass the epoch gate.
        let fusion = Arc::new(FusionPlan::compute_masked(
            &frozen,
            &plan.placement,
            inner.fusion,
            &is_body,
        ));

        let run_id = inner.run_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let label: Arc<str> = Arc::from(frozen.name());
        inner.emit_run_lc(
            run_id,
            &label,
            LifecyclePhase::RunStart,
            None,
            None,
            Ok(&()),
        );
        if let Some(report) = &plan.lint_report {
            inner.emit_lint_lc(run_id, &label, report);
        }

        let rings: Vec<Arc<Vec<Mutex<PullState>>>> = (0..depth)
            .map(|_| {
                Arc::new(
                    (0..n)
                        .map(|_| Mutex::new(PullState::default()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();

        let core = Arc::new(SessionCore {
            inner: Arc::clone(inner),
            shared: Arc::clone(&hf.shared),
            frozen,
            label,
            run_id,
            depth,
            is_body,
            gate_heads,
            gate_is_head,
            is_prologue: Arc::new(is_prologue),
            prologue_count,
            rings,
            input_gen: Arc::new(AtomicU64::new(0)),
            state: Mutex::new(SessState {
                claimed: false,
                closed: false,
                run_ended: false,
                next_epoch: 0,
                admitted: 0,
                prologue_done: 0,
                completed_mark: 0,
                done_set: BTreeSet::new(),
                inflight: 0,
                queue: VecDeque::new(),
                pending_gate: Vec::new(),
                placement: plan.placement,
                fusion,
                holding: false,
            }),
            cv: Condvar::new(),
        });

        // Submissions accepted before a queued session is claimed park in
        // its queue.
        let c = Arc::clone(&core);
        let starter = move || {
            c.state.lock().claimed = true;
            c.cv.notify_all();
            c.pump();
        };
        if claim_or_queue(&hf.shared, starter) {
            core.state.lock().claimed = true;
        }
        Ok(Session { core })
    }

    /// Enqueues the next epoch over the graph's *current* host inputs
    /// and returns its future immediately — unless `depth` epochs are
    /// already in flight, in which case this blocks until one finishes
    /// (backpressure). The epoch reads whatever the host sources hold
    /// when its transfers run; to mutate inputs between epochs race-free,
    /// use [`Session::submit_with`].
    pub fn submit(&self) -> EpochFuture {
        self.core.submit_inner(None)
    }

    /// [`Session::submit`] with an input mutator: `mutate` runs exactly
    /// once, after the *previous* epoch's host tasks and H2D transfers
    /// have drained and before this epoch's begin — the race-free window
    /// for writing the next round's inputs into the graph's host
    /// sources. The pipeline keeps flowing: the previous epoch's kernels
    /// and pushes are still executing when `mutate` runs.
    pub fn submit_with<F>(&self, mutate: F) -> EpochFuture
    where
        F: FnOnce() + Send + 'static,
    {
        self.core.submit_inner(Some(Box::new(mutate)))
    }

    /// Drains in-flight epochs, emits the stream's `RunEnd`, and
    /// releases the graph for other submissions. Idempotent; also called
    /// by `Drop`. Blocks until the stream is quiescent.
    pub fn close(&self) {
        self.core.close_inner();
    }

    /// Process-unique run id shared by every epoch of this stream (and
    /// stamped on its lifecycle events).
    pub fn run_id(&self) -> u64 {
        self.core.run_id
    }

    /// The in-flight depth (residency ring size) this session runs at.
    pub fn depth(&self) -> usize {
        self.core.depth
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.core.state.lock();
        f.debug_struct("Session")
            .field("run_id", &self.core.run_id)
            .field("depth", &self.core.depth)
            .field("submitted", &st.next_epoch)
            .field("completed", &st.completed_mark)
            .field("inflight", &st.inflight)
            .field("closed", &st.closed)
            .finish()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.core.close_inner();
    }
}

impl SessionCore {
    fn submit_inner(self: &Arc<Self>, mutator: Option<Box<dyn FnOnce() + Send>>) -> EpochFuture {
        if self.inner.done.load(Ordering::SeqCst) {
            return RunFuture::ready(Err(HfError::ExecutorShutDown));
        }
        let core = {
            let mut st = self.state.lock();
            loop {
                if st.closed {
                    return RunFuture::ready(Err(HfError::StreamClosed));
                }
                if st.inflight < self.depth {
                    break;
                }
                self.cv.wait(&mut st);
            }
            let e = st.next_epoch;
            st.next_epoch += 1;
            let core = RunFuture::new(self.run_id, Some(e));
            if st.inflight == 0 && !st.holding {
                st.holding = true;
                self.inner.num_topologies.fetch_add(1, Ordering::SeqCst);
            }
            st.inflight += 1;
            st.queue.push_back(PendingEpoch {
                epoch: e,
                mutator,
                core: core.clone(),
            });
            core
        };
        self.pump();
        core
    }

    /// Admits every epoch whose turn has come: the previous epoch's
    /// prologue must have drained (its host inputs are consumed — the
    /// admission point of the pipeline contract), and the epoch's ring
    /// slot must be free (the epoch `depth` back has completed). Safe to
    /// call from any thread; admission order is epoch order.
    fn pump(self: &Arc<Self>) {
        loop {
            let (pending, placement, fusion) = {
                let mut st = self.state.lock();
                if !st.claimed {
                    return;
                }
                let Some(front) = st.queue.front() else { return };
                let e = front.epoch;
                if st.prologue_done < st.admitted {
                    return;
                }
                if e >= self.depth as u64 && st.completed_mark < e - self.depth as u64 + 1 {
                    return;
                }
                let pending = st.queue.pop_front().expect("front checked");
                st.admitted = e + 1;
                (pending, Arc::clone(&st.placement), Arc::clone(&st.fusion))
            };
            let e = pending.epoch;
            // Apply the input mutation in the race-free window the
            // admission condition just established, bumping the input
            // generation so failover replay of an *earlier* epoch knows
            // its pulls are superseded.
            let admitted_gen = match pending.mutator {
                Some(m) => {
                    let g = self.input_gen.fetch_add(1, Ordering::SeqCst) + 1;
                    m();
                    g
                }
                None => self.input_gen.load(Ordering::SeqCst),
            };
            let mut fired = false;
            let once = Box::new(move || std::mem::replace(&mut fired, true));
            let hook_me = Arc::clone(self);
            let ecore = pending.core.clone();
            let extras = TopoExtras {
                epoch: Some(e),
                pull_override: Some(Arc::clone(&self.rings[(e % self.depth as u64) as usize])),
                gate: (!self.gate_heads.is_empty()).then(|| EpochGate {
                    heads: self.gate_heads.clone(),
                    is_head: self.gate_is_head.clone(),
                    opened: AtomicBool::new(false),
                }),
                prologue: (self.prologue_count > 0).then(|| {
                    let me = Arc::clone(self);
                    PrologueTrack {
                        is_prologue: Arc::clone(&self.is_prologue),
                        pending: AtomicUsize::new(self.prologue_count),
                        hook: Mutex::new(Some(Box::new(move || me.on_prologue_drained(e)))),
                    }
                }),
                on_finish: Some(Box::new(move |t: &Arc<Topology>| {
                    hook_me.on_epoch_done(t, t.epoch.unwrap_or(0), ecore)
                })),
                input_guard: Some(InputGuard {
                    gen: Arc::clone(&self.input_gen),
                    admitted_gen,
                }),
                tenant: None,
            };
            let topo = Topology::new(
                Arc::clone(&self.frozen),
                self.run_id,
                placement,
                fusion,
                once,
                Arc::clone(&pending.core.cancel),
                extras,
            );
            self.inner.emit_run_lc(
                self.run_id,
                &self.label,
                LifecyclePhase::EpochStart,
                Some(e),
                None,
                Ok(&()),
            );
            self.inner.registry.register(&topo);
            self.inner.num_topologies.fetch_add(1, Ordering::SeqCst);
            self.inner.start_topology(Arc::clone(&topo));
            // Post-start bookkeeping under the session lock. The gate
            // decision is serialized here (and in `on_epoch_done`'s
            // drain) so `open_gate` never races `schedule_sources` of
            // the same topology: sources were already scheduled above,
            // and a pending gate only opens via the drain, after this
            // push.
            let open_now = {
                let mut st = self.state.lock();
                if self.prologue_count == 0 && st.prologue_done < e + 1 {
                    st.prologue_done = e + 1;
                }
                if self.gate_heads.is_empty() {
                    false
                } else if st.completed_mark >= e {
                    true
                } else {
                    st.pending_gate.push((e, Arc::clone(&topo)));
                    false
                }
            };
            if open_now {
                self.inner.open_gate(&topo);
            }
        }
    }

    /// Prologue-drain hook of epoch `e`: unblocks admission of epoch
    /// `e + 1` (runs on whichever worker/engine thread finished the last
    /// prologue node).
    fn on_prologue_drained(self: &Arc<Self>, e: u64) {
        {
            let mut st = self.state.lock();
            if st.prologue_done < e + 1 {
                st.prologue_done = e + 1;
            }
        }
        self.pump();
    }

    /// Epoch-completion hook: carries failover re-placements forward,
    /// re-places against survivors after an unrecovered device loss,
    /// advances the completion watermark, opens now-eligible gates,
    /// settles the epoch's promise, and releases backpressure.
    fn on_epoch_done(self: &Arc<Self>, topo: &Arc<Topology>, e: u64, core: RunFuture) {
        let result = topo.result();
        let mut to_open: Vec<Arc<Topology>> = Vec::new();
        let release = {
            let mut st = self.state.lock();
            // A successful mid-epoch failover left a re-placed plan on
            // the topology; adopt it for subsequent epochs.
            let p = topo.placement();
            if !Arc::ptr_eq(&p, &st.placement) {
                st.fusion = Arc::new(FusionPlan::compute_masked(
                    &self.frozen,
                    &p,
                    self.inner.fusion,
                    &self.is_body,
                ));
                st.placement = p;
            }
            // An epoch that *failed* on a device loss (failover budget
            // spent, or superseded inputs) never re-placed; re-place the
            // stream directly against the survivors so later epochs
            // don't cascade-fail onto dead hardware.
            if let Err(err) = &result {
                if matches!(err.gpu_cause(), Some(hf_gpu::GpuError::DeviceLost(_))) {
                    self.replace_on_survivors(&mut st);
                }
            }
            st.done_set.insert(e);
            let mut mark = st.completed_mark;
            while st.done_set.remove(&mark) {
                mark += 1;
            }
            st.completed_mark = mark;
            // A cancelled-at-admission epoch never ran a prologue node;
            // completing it must still unblock the next admission.
            if st.prologue_done < e + 1 {
                st.prologue_done = e + 1;
            }
            st.inflight -= 1;
            let mark = st.completed_mark;
            let mut keep = Vec::new();
            for (k, t) in st.pending_gate.drain(..) {
                if k <= mark {
                    to_open.push(t);
                } else {
                    keep.push((k, t));
                }
            }
            st.pending_gate = keep;
            let release = st.inflight == 0 && st.holding;
            if release {
                st.holding = false;
            }
            release
        };
        if matches!(result, Err(HfError::Cancelled)) {
            self.inner.stats.cancelled.incr();
        }
        for t in &to_open {
            self.inner.open_gate(t);
        }
        core.promise.complete(result);
        if release {
            self.inner.drop_inflight();
        }
        self.cv.notify_all();
        self.pump();
    }

    /// Re-places the stream's steady-state plan against the surviving
    /// devices (caller holds the session lock). Keeps surviving groups
    /// on their devices where possible so residency stays warm. A
    /// placement failure (no devices left) keeps the old plan: further
    /// epochs fail individually, which is the honest outcome.
    fn replace_on_survivors(&self, st: &mut SessState) {
        let lost = self.inner.note_lost_devices();
        if !lost.iter().any(|&l| l) {
            return;
        }
        let refined = self.inner.refined_costs(self.frozen.name());
        if let Ok(p) = crate::placement::failover_placement_ext(
            &*self.frozen,
            &st.placement.device_of,
            &lost,
            &self.inner.cost_model(),
            self.inner.policy,
            refined.as_ref(),
        ) {
            self.inner.record_placement(&p);
            let placement = Arc::new(p);
            st.fusion = Arc::new(FusionPlan::compute_masked(
                &self.frozen,
                &placement,
                self.inner.fusion,
                &self.is_body,
            ));
            st.placement = placement;
        }
    }

    /// Drains and ends the stream; idempotent.
    fn close_inner(&self) {
        {
            let mut st = self.state.lock();
            if st.run_ended {
                return;
            }
            st.closed = true;
            self.cv.notify_all();
            // Wait for the claim (a session queued behind another run is
            // started by that run's release) and for in-flight epochs to
            // drain. `pump` keeps admitting queued epochs after close.
            while !(st.claimed && st.inflight == 0) {
                self.cv.wait(&mut st);
            }
            st.run_ended = true;
        }
        self.inner.emit_run_lc(
            self.run_id,
            &self.label,
            LifecyclePhase::RunEnd,
            None,
            None,
            Ok(&()),
        );
        release_claim(&self.shared);
    }
}
