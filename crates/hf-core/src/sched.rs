//! The scheduling layer: work tokens, the topology registry, the worker
//! loop, stealing, and batched successor release.
//!
//! The scheduling loop follows §III-C: after device placement, workers
//! drain their local Chase–Lev deque and become *thieves* stealing from
//! random victims when empty. The adaptive strategy keeps "one thief
//! alive as long as an active worker is running a task"; otherwise idle
//! workers sleep on an eventcount.
//!
//! The hot path is engineered to stay allocation- and lock-free in steady
//! state:
//!
//! * queued work items are packed `(topology-slot, node)` integer tokens
//!   resolved through a lock-free slot registry — no per-task `Box`;
//! * the shared inbox is a lock-free segmented [`Injector`] with batch
//!   push/pop instead of a `Mutex<VecDeque>`;
//! * releasing successors batches all newly-ready nodes into one injector
//!   spray plus one coalesced `notify_n` wakeup;
//! * re-running an unchanged graph reuses the cached freeze + placement +
//!   fusion plan (see [`crate::graph::SchedCache`]).
//!
//! [`Injector`]: hf_sync::Injector

use crate::error::HfError;
use crate::executor::ExecInner;
use crate::graph::Work;
use crate::lifecycle::LifecyclePhase;
use crate::observer::TaskMeta;
use crate::topology::{FusionPlan, Topology};
use hf_gpu::Stream;
use hf_sync::{Steal, StealDeque};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// A schedulable unit, packed into one integer: the topology's registry
/// slot in the high 32 bits, the node index in the low 32. Tokens are
/// `Copy` and carry no ownership, so pushing work touches no allocator.
pub(crate) type Token = u64;

#[inline]
fn pack(slot: u32, node: usize) -> Token {
    debug_assert!(node <= u32::MAX as usize);
    ((slot as u64) << 32) | node as u64
}

#[inline]
fn unpack(token: Token) -> (u32, usize) {
    ((token >> 32) as u32, (token & 0xFFFF_FFFF) as usize)
}

/// Newly-ready nodes are dispatched in chunks of this size: one chunk is
/// one injector spray and one coalesced wakeup.
const RELEASE_BATCH: usize = 32;

/// Tokens a thief claims from the injector in one batched pop; extras are
/// banked in its local deque.
const STEAL_BATCH: usize = 16;

/// First registry segment size; segment `i` holds `SEG0 << i` slots.
const SEG0: usize = 64;
/// Segment count: `64 * (2^26 - 1)` slots covers every packable id.
const SEGS: usize = 26;

/// Lock-free registry mapping slot ids to in-flight topologies.
///
/// Registration/deregistration (once per submission) take a mutex; token
/// resolution on the execute path is two atomic loads plus a refcount
/// bump. Slots live in lazily-allocated, geometrically-growing segments
/// published through a fixed directory, so resolution never races a
/// reallocation.
///
/// Safety invariant: a slot's strong reference is released only in
/// `deregister`, which the executor calls after the topology's last round
/// fully drained — at that point no token referencing the slot exists in
/// any deque or the injector, so resolution never observes a freed slot.
pub(crate) struct TopoRegistry {
    /// Directory of segments; entry `i` points at `SEG0 << i` slots.
    segments: [AtomicPtr<AtomicPtr<Topology>>; SEGS],
    alloc: Mutex<RegistryAlloc>,
}

#[derive(Default)]
struct RegistryAlloc {
    free: Vec<u32>,
    next: u32,
}

/// Segment index, slot offset within it, and segment length for a slot id.
#[inline]
fn locate(slot: u32) -> (usize, usize, usize) {
    let x = slot / SEG0 as u32 + 1;
    let seg = (31 - x.leading_zeros()) as usize;
    let start = SEG0 * ((1usize << seg) - 1);
    (seg, slot as usize - start, SEG0 << seg)
}

impl TopoRegistry {
    pub(crate) fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            alloc: Mutex::new(RegistryAlloc::default()),
        }
    }

    /// Assigns a slot to `topo`, stores a strong reference in it, and
    /// records the slot id in `topo.slot`.
    pub(crate) fn register(&self, topo: &Arc<Topology>) -> u32 {
        let mut a = self.alloc.lock();
        let slot = a.free.pop().unwrap_or_else(|| {
            let s = a.next;
            a.next = a.next.checked_add(1).expect("registry slot ids exhausted");
            s
        });
        let (seg, off, len) = locate(slot);
        let mut seg_ptr = self.segments[seg].load(Ordering::Acquire);
        if seg_ptr.is_null() {
            let boxed: Box<[AtomicPtr<Topology>]> = (0..len)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            seg_ptr = Box::into_raw(boxed) as *mut AtomicPtr<Topology>;
            self.segments[seg].store(seg_ptr, Ordering::Release);
        }
        let ptr = Arc::into_raw(Arc::clone(topo)) as *mut Topology;
        // Safety: `off < len` by construction and the segment was just
        // published (or already was); only this mutex-holding thread
        // writes a null slot.
        unsafe { (*seg_ptr.add(off)).store(ptr, Ordering::Release) };
        topo.slot.store(slot, Ordering::Release);
        slot
    }

    /// Resolves a token's slot to its topology. Lock-free.
    pub(crate) fn resolve(&self, slot: u32) -> Arc<Topology> {
        let (seg, off, _) = locate(slot);
        let seg_ptr = self.segments[seg].load(Ordering::Acquire);
        debug_assert!(!seg_ptr.is_null(), "token for unregistered segment");
        // Safety: tokens only exist between register and deregister (see
        // the struct invariant), so the segment exists and the slot holds
        // a live strong reference we can borrow a count from.
        unsafe {
            let ptr = (*seg_ptr.add(off)).load(Ordering::Acquire);
            debug_assert!(!ptr.is_null(), "token for unregistered topology");
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Releases a slot's strong reference and recycles the id.
    pub(crate) fn deregister(&self, slot: u32) {
        let (seg, off, _) = locate(slot);
        let seg_ptr = self.segments[seg].load(Ordering::Acquire);
        let ptr = unsafe { (*seg_ptr.add(off)).swap(std::ptr::null_mut(), Ordering::AcqRel) };
        if !ptr.is_null() {
            // Safety: ownership of the registration count transfers here.
            unsafe { drop(Arc::from_raw(ptr)) };
        }
        self.alloc.lock().free.push(slot);
    }
}

impl Drop for TopoRegistry {
    fn drop(&mut self) {
        for (i, seg) in self.segments.iter().enumerate() {
            let seg_ptr = seg.load(Ordering::Acquire);
            if seg_ptr.is_null() {
                continue;
            }
            let len = SEG0 << i;
            // Safety: reconstructs the Box created in `register`; any
            // still-registered topology (defensive — normally none) drops
            // its strong count with the slots.
            unsafe {
                let slots = Box::from_raw(std::ptr::slice_from_raw_parts_mut(seg_ptr, len));
                for s in slots.iter() {
                    let p = s.load(Ordering::Acquire);
                    if !p.is_null() {
                        drop(Arc::from_raw(p));
                    }
                }
            }
        }
    }
}

impl ExecInner {
    /// Starts a (now-active) topology: checks the stopping predicate and
    /// either completes immediately or schedules the first round.
    pub(crate) fn start_topology(&self, topo: Arc<Topology>) {
        // Check cancellation (a queued topology may have been cancelled
        // while waiting) and the predicate before the first round
        // (run_n(0) semantics).
        let stop = topo.cancel_requested() || (topo.predicate.lock())();
        if stop || topo.frozen.nodes.is_empty() {
            self.finish_topology(topo);
            return;
        }
        topo.reset_round();
        self.schedule_sources(&topo);
    }

    /// Schedules the round's source nodes. Sources that are heads of a
    /// still-closed epoch gate are skipped: their (inflated) join counter
    /// is consumed by [`ExecInner::open_gate`] when the previous epoch of
    /// the stream completes.
    fn schedule_sources(&self, topo: &Arc<Topology>) {
        let gated = topo
            .gate
            .as_ref()
            .filter(|g| !g.opened.load(Ordering::Acquire));
        let sources = topo.frozen.sources.iter().copied();
        self.release(
            topo,
            sources.filter(|&id| !gated.is_some_and(|g| g.is_head[id])),
        );
    }

    /// Opens a streaming epoch's body gate: consumes the extra join
    /// dependency [`crate::topology::Topology::reset_round`] inflated
    /// onto each gate head, dispatching heads whose real dependencies
    /// have already drained. Idempotent; no-op for gateless topologies
    /// and topologies that finished before their gate opened (a
    /// cancelled-at-admission epoch never dispatched any body token).
    pub(crate) fn open_gate(&self, topo: &Arc<Topology>) {
        let Some(g) = &topo.gate else { return };
        if g.opened.swap(true, Ordering::AcqRel) {
            return;
        }
        if topo.slot.load(Ordering::Acquire) == u32::MAX {
            return;
        }
        let fusion = topo.fusion();
        self.release(
            topo,
            g.heads
                .iter()
                .copied()
                .filter(|&h| topo.join[h].fetch_sub(1, Ordering::AcqRel) == 1 && !fusion.member[h]),
        );
    }

    /// Dispatches the `ready` nodes of `topo` in [`RELEASE_BATCH`]-sized
    /// batches: one injector spray and one coalesced wakeup per batch.
    pub(crate) fn release(&self, topo: &Topology, ready: impl IntoIterator<Item = usize>) {
        let slot = topo.slot.load(Ordering::Acquire);
        let mut buf = [0 as Token; RELEASE_BATCH];
        let mut n = 0;
        for id in ready {
            if n == RELEASE_BATCH {
                self.dispatch_batch(&buf);
                n = 0;
            }
            buf[n] = pack(slot, id);
            n += 1;
        }
        self.dispatch_batch(&buf[..n]);
    }

    /// Dispatches a batch of ready tokens: the first goes to the calling
    /// worker's local deque (when on a worker thread), the rest are
    /// sprayed across the injector in one lock-free batch push; thieves
    /// are woken with a single coalesced notification proportional to the
    /// batch size.
    fn dispatch_batch(&self, tokens: &[Token]) {
        let k = tokens.len();
        if k == 0 {
            return;
        }
        // Ready events must fire before the tokens become stealable:
        // once pushed, a peer can execute the token, drain the round, and
        // deregister the slot — after which it no longer resolves.
        if self.lc_active() {
            for &t in tokens {
                let (slot, node) = unpack(t);
                let topo = self.registry.resolve(slot);
                self.emit_task_lc(&topo, LifecyclePhase::Ready, node, None, None, Ok(()));
            }
        }
        let local_took = WORKER_DEQUE.with(|d| match d.borrow().as_ref() {
            Some(local) => {
                local.push(tokens[0]);
                true
            }
            None => false,
        });
        let rest = if local_took { &tokens[1..] } else { tokens };
        if !rest.is_empty() {
            self.injector.push_batch(rest);
            if rest.len() > 1 {
                self.stats.injector_batches.incr();
            }
        }
        if k > 1 {
            self.stats.notify_coalesced.add((k - 1) as u64);
        }
        self.notifier.notify_n(k);
    }

    /// Completes one epoch topology: releases its registry slot, emits
    /// `EpochEnd` (streaming epochs), and hands the result to the driver
    /// via the topology's `on_finish` hook — the hook chains the next
    /// epoch (sequential drivers), or advances the stream's completion
    /// watermark and opens the next epoch's gate (sessions). Promise
    /// settlement and graph-claim promotion live in the drivers.
    fn finish_topology(&self, topo: Arc<Topology>) {
        // Pull allocations stay device-resident so an unchanged
        // resubmission can elide its H2D copies; they are freed when the
        // frozen snapshot drops (graph mutation or teardown). Give the
        // pools' magazine caches back to the buddy allocator instead, so
        // parked blocks can coalesce between runs.
        for dev in self.gpu.devices() {
            dev.trim_pool();
        }

        // Release the registry slot: every token of this topology has
        // been consumed (the round fully drained), so none can resolve
        // this slot anymore.
        let slot = topo.slot.swap(u32::MAX, Ordering::AcqRel);
        if slot != u32::MAX {
            self.registry.deregister(slot);
        }

        if topo.epoch.is_some() {
            let result = topo.result();
            self.emit_run_lc(
                topo.run_id,
                &topo.graph_label,
                LifecyclePhase::EpochEnd,
                topo.epoch,
                topo.tenant.as_ref(),
                result.as_ref(),
            );
        }
        let hook = topo.on_finish.lock().take();

        // The epoch topology's own in-flight count drops here; the driver
        // holds a separate count for the whole submission, so the idle
        // condvar only fires at true quiescence.
        self.drop_inflight();

        if let Some(hook) = hook {
            hook(&topo);
        }
    }

    /// Drops one in-flight topology count (an epoch topology, or a
    /// driver's or session's hold), waking `wait_for_all` at zero.
    pub(crate) fn drop_inflight(&self) {
        if self.num_topologies.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _g = self.idle_lock.lock();
            self.idle_cv.notify_all();
        }
    }

    /// Emits a task's `Finished` lifecycle event and finishes it.
    pub(crate) fn finish_task(
        &self,
        topo: &Arc<Topology>,
        node: usize,
        worker: Option<u32>,
        chain: Option<u32>,
        ok: bool,
    ) {
        let outcome = if ok { Ok(()) } else { Err(None) };
        self.emit_task_lc(topo, LifecyclePhase::Finished, node, worker, chain, outcome);
        self.finish_node(topo, node, ok);
    }

    /// Marks a node finished: records whether it succeeded (failover
    /// replay bookkeeping), releases its successors (batched) and, if it
    /// was the round's last node, ends the round. Called from worker
    /// threads (synchronous host tasks) and from device engine threads
    /// (the stream-ordered completion callbacks of GPU tasks). Failed and
    /// skipped nodes still release successors so the round always drains
    /// — never hangs — with the skip flags keeping bodies from consuming
    /// half-failed state.
    pub(crate) fn finish_node(&self, topo: &Arc<Topology>, node: usize, ok: bool) {
        topo.round_ok[node].store(ok, Ordering::Release);
        // Fused chain members were dispatched with their head; whoever
        // finished the head also finishes them in order.
        let fusion = topo.fusion();
        self.release(
            topo,
            topo.frozen.nodes[node]
                .succ
                .iter()
                .copied()
                .filter(|&s| topo.join[s].fetch_sub(1, Ordering::AcqRel) == 1 && !fusion.member[s]),
        );
        // Streaming admission: when the last prologue node (host tasks and
        // pulls) of an epoch drains, fire the session's hook so the next
        // epoch's input mutation and H2D transfers can start while this
        // epoch's body still occupies the devices. Saturating — failover
        // replay may re-finish a prologue node — and the FnOnce hook fires
        // exactly once.
        if let Some(p) = &topo.prologue {
            if p.is_prologue[node] {
                let fired = p
                    .pending
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
                if fired == Ok(1) {
                    if let Some(hook) = p.hook.lock().take() {
                        hook();
                    }
                }
            }
        }
        if topo.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.end_round(topo);
        }
    }

    /// Called by the worker that finished the last node of a round.
    fn end_round(&self, topo: &Arc<Topology>) {
        // A device was lost mid-round: once the round has drained, replay
        // its unfinished part on a re-placed device assignment instead of
        // counting the round. Skipped when the run already failed or was
        // cancelled.
        if topo.failover_pending.load(Ordering::Acquire)
            && !topo.cancelled.load(Ordering::Acquire)
            && !topo.cancel_requested()
            && self.try_failover(topo)
        {
            return;
        }

        topo.rounds.fetch_add(1, Ordering::Relaxed);
        self.stats.rounds.incr();

        // Pull allocations persist across rounds and submissions (sizes
        // usually repeat, and unchanged data elides the copy entirely);
        // they are reclaimed when the frozen snapshot drops.
        let stop = topo.cancelled.load(Ordering::Acquire)
            || topo.cancel_requested()
            || (topo.predicate.lock())();
        if stop {
            self.finish_topology(Arc::clone(topo));
        } else {
            // A failover left a replay-masked fusion plan; recompute the
            // full plan for the new placement before the next round.
            if topo.fusion_stale.swap(false, Ordering::AcqRel) {
                let plan = FusionPlan::compute(&topo.frozen, &topo.placement(), self.fusion);
                *topo.fusion.write() = Arc::new(plan);
            }
            topo.reset_round();
            self.schedule_sources(topo);
        }
    }
}

thread_local! {
    /// The owning side of the current worker's deque, when the thread is
    /// an executor worker.
    static WORKER_DEQUE: std::cell::RefCell<Option<Arc<StealDeque<Token>>>> =
        const { std::cell::RefCell::new(None) };
}

pub(crate) struct Worker {
    pub(crate) id: usize,
    deque: Arc<StealDeque<Token>>,
    pub(crate) inner: Arc<ExecInner>,
    /// Lazily created per-device streams — "each worker keeps a
    /// per-thread CUDA stream" (§III-C).
    pub(crate) streams: Vec<Option<Stream>>,
    /// Lazily created per-device copy-lane streams: chunked transfers
    /// round-robin their chunks across these so long copies interleave
    /// with kernels on the device engine.
    pub(crate) copy_streams: Vec<Vec<Stream>>,
    /// xorshift state for victim selection.
    rng: u64,
}

impl Worker {
    pub(crate) fn new(id: usize, deque: StealDeque<Token>, inner: Arc<ExecInner>) -> Self {
        let n_gpus = inner.gpu.num_devices() as usize;
        Self {
            id,
            deque: Arc::new(deque),
            inner,
            streams: (0..n_gpus).map(|_| None).collect(),
            copy_streams: (0..n_gpus).map(|_| Vec::new()).collect(),
            rng: 0x9E3779B97F4A7C15 ^ (id as u64 + 1),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub(crate) fn run(mut self) {
        WORKER_DEQUE.with(|d| *d.borrow_mut() = Some(Arc::clone(&self.deque)));
        loop {
            // Exploit: drain the local queue.
            while let Some(token) = self.deque.pop() {
                self.execute(token);
            }
            // Explore: steal, or sleep when the system is quiet.
            match self.wait_for_task() {
                Some(token) => self.execute(token),
                None => break,
            }
        }
        WORKER_DEQUE.with(|d| *d.borrow_mut() = None);
    }

    /// Steal loop with the adaptive wake/sleep strategy. Returns `None`
    /// on shutdown.
    fn wait_for_task(&mut self) -> Option<Token> {
        let inner = Arc::clone(&self.inner);
        inner.num_thieves.fetch_add(1, Ordering::SeqCst);
        loop {
            // Bounded stealing sweep.
            let mut backoff = hf_sync::Backoff::new();
            while !backoff.is_completed() {
                if let Some(token) = self.try_steal_once() {
                    // If this was the last thief, wake a peer so one thief
                    // remains while we turn active (paper's invariant).
                    if inner.num_thieves.fetch_sub(1, Ordering::SeqCst) == 1 {
                        inner.notifier.notify_one();
                    }
                    return Some(token);
                }
                backoff.snooze();
            }

            if !inner.adaptive_sleep {
                // Ablation mode: spin forever (still honor shutdown).
                if inner.done.load(Ordering::Acquire) {
                    inner.num_thieves.fetch_sub(1, Ordering::SeqCst);
                    return None;
                }
                continue;
            }

            // Two-phase sleep: prepare, re-check, commit.
            let token = inner.notifier.prepare_wait();
            if inner.done.load(Ordering::Acquire) {
                inner.notifier.cancel_wait(token);
                inner.num_thieves.fetch_sub(1, Ordering::SeqCst);
                return None;
            }
            if self.work_visible() {
                inner.notifier.cancel_wait(token);
                continue;
            }
            // Keep one thief alive while any worker is active.
            if inner.num_actives.load(Ordering::SeqCst) > 0
                && inner.num_thieves.load(Ordering::SeqCst) == 1
            {
                inner.notifier.cancel_wait(token);
                continue;
            }
            inner.stats.sleeps.incr(self.id);
            inner.notifier.commit_wait(token);
            inner.stats.wakeups.incr(self.id);
        }
    }

    /// One randomized steal attempt across victims and the injector.
    /// Our own id maps to the injector, so every draw is a real attempt
    /// (no wasted self-steal); injector hits claim a whole batch and bank
    /// the extras in the local deque.
    ///
    /// Topology-aware preference: before the random draw, probe one
    /// victim sharing this worker's device focus (its deque most likely
    /// holds tasks placed where this worker's streams and caches are
    /// already warm). Misses fall straight through to the random sweep,
    /// so the affine pass can delay but never prevent a steal.
    fn try_steal_once(&mut self) -> Option<Token> {
        let inner = Arc::clone(&self.inner);
        let n = inner.stealers.len();
        inner.stats.steal_attempts.incr(self.id);
        let focus = inner.worker_focus[self.id].load(Ordering::Relaxed);
        if focus != u64::MAX && n > 1 {
            let start = (self.next_rand() % n as u64) as usize;
            for k in 0..n {
                let v = (start + k) % n;
                if v == self.id || inner.worker_focus[v].load(Ordering::Relaxed) != focus {
                    continue;
                }
                if let Steal::Success(token) = inner.stealers[v].steal() {
                    inner.stats.steals.incr(self.id);
                    inner.stats.steals_affine.incr(self.id);
                    return Some(token);
                }
                // One affine probe per attempt; empty or contended falls
                // back to the random draw below.
                break;
            }
        }
        let v = (self.next_rand() % n as u64) as usize;
        if v == self.id {
            let mut first = None;
            let deque = &self.deque;
            let got = inner.injector.pop_batch(STEAL_BATCH, |t| {
                if first.is_none() {
                    first = Some(t);
                } else {
                    deque.push(t);
                }
            });
            if got > 0 {
                inner.stats.steals.incr(self.id);
                return first;
            }
        } else {
            match inner.stealers[v].steal() {
                Steal::Success(token) => {
                    inner.stats.steals.incr(self.id);
                    return Some(token);
                }
                Steal::Retry | Steal::Empty => {}
            }
        }
        None
    }

    /// True if any queue plausibly holds work (used to re-check before
    /// sleeping). Lock-free: probes the injector and deque tops.
    fn work_visible(&self) -> bool {
        if !self.inner.injector.is_empty() {
            return true;
        }
        self.inner.stealers.iter().any(|s| !s.is_empty())
    }

    /// Executes a work token — the visitor dispatch of §III-C. Host tasks
    /// complete synchronously on this worker; GPU tasks are *dispatched*
    /// asynchronously to the device stream (the worker is immediately
    /// free, so one core can drive many GPUs concurrently), with a
    /// stream-ordered completion callback releasing the successors — the
    /// fully asynchronous pattern of Listing 13.
    fn execute(&mut self, token: Token) {
        let (slot, node) = unpack(token);
        let topo = self.inner.registry.resolve(slot);
        let inner = Arc::clone(&self.inner);
        let worker = Some(self.id as u32);
        inner.num_actives.fetch_add(1, Ordering::SeqCst);
        // Ensure a thief exists while we are active.
        if inner.num_thieves.load(Ordering::SeqCst) == 0 {
            inner.notifier.notify_one();
        }

        let observed = inner.observers.iter().any(|o| o.is_active());
        if observed {
            inner.emit_task_lc(&topo, LifecyclePhase::Started, node, worker, None, Ok(()));
            let meta = self.task_meta(&topo, node);
            for o in &inner.observers {
                o.on_task_begin(&meta);
            }
        }

        // Bodies are skipped (but the round still drains) when the run
        // failed, the caller cancelled, or a failover is pending — the
        // last keeps successors of a dead device's tasks from consuming
        // half-failed state; skipped nodes replay after the failover.
        // A GPU task finishes from its stream's completion callback, and
        // a retried one is re-dispatched; everything else finishes here.
        let skip = topo.cancelled.load(Ordering::Acquire)
            || topo.cancel_requested()
            || topo.failover_pending.load(Ordering::Acquire);
        let (ok, finish_here) = if skip {
            (false, true)
        } else {
            match self.invoke(&topo, node) {
                Ok(dispatched_async) => (true, !dispatched_async),
                Err(e) => (false, !inner.handle_failure(&topo, node, worker, e)),
            }
        };
        inner.stats.tasks_executed.incr(self.id);

        if observed {
            let meta = self.task_meta(&topo, node);
            for o in &inner.observers {
                o.on_task_end(&meta);
            }
        }

        if finish_here {
            // Finish this node and any fused chain hanging off it (chain
            // members are never scheduled individually, so a cancelled or
            // failed head must finish them here).
            let fusion = topo.fusion();
            let mut next = Some(node);
            while let Some(n) = next {
                next = fusion.next[n].map(|m| m as usize);
                inner.finish_task(&topo, n, worker, None, ok);
            }
        }
        inner.num_actives.fetch_sub(1, Ordering::SeqCst);
    }

    /// Builds the observer metadata for a work token.
    fn task_meta<'a>(&self, topo: &'a Arc<Topology>, node: usize) -> TaskMeta<'a> {
        let n = &topo.frozen.nodes[node];
        TaskMeta {
            worker: self.id,
            name: &n.name,
            kind: n.work.kind(),
            device: topo.placement().device_of[node],
            graph: &topo.frozen.name,
        }
    }

    /// Runs one task body. Returns `Ok(true)` when completion was handed
    /// to a device stream (asynchronous GPU task), `Ok(false)` when the
    /// task finished synchronously.
    fn invoke(&mut self, topo: &Arc<Topology>, id: usize) -> Result<bool, HfError> {
        let node = &topo.frozen.nodes[id];
        match &node.work {
            Work::Empty => Err(HfError::EmptyTask {
                task: node.name.to_string(),
            }),
            Work::Host(f) => {
                let f = Arc::clone(f);
                let res =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || (f.lock())()));
                res.map(|_| false).map_err(|_| HfError::TaskPanicked {
                    task: node.name.to_string(),
                })
            }
            Work::Pull { .. } | Work::Push { .. } | Work::Kernel { .. } => {
                self.dispatch_gpu_chain(topo, id)?;
                Ok(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::graph::Heteroflow;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn token_roundtrip() {
        let t = pack(7, 123);
        assert_eq!(unpack(t), (7, 123));
        let t = pack(u32::MAX - 1, u32::MAX as usize);
        assert_eq!(unpack(t), (u32::MAX - 1, u32::MAX as usize));
    }

    #[test]
    fn registry_locate_covers_segments() {
        // First ids of the first three segments, plus their last ids.
        assert_eq!(locate(0), (0, 0, 64));
        assert_eq!(locate(63), (0, 63, 64));
        assert_eq!(locate(64), (1, 0, 128));
        assert_eq!(locate(191), (1, 127, 128));
        assert_eq!(locate(192), (2, 0, 256));
    }

    #[test]
    fn host_only_chain_runs_in_order() {
        let ex = Executor::new(4, 0);
        let g = Heteroflow::new("chain");
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut prev: Option<crate::task::HostTask> = None;
        for i in 0..10 {
            let log = Arc::clone(&log);
            let t = g.host(&format!("t{i}"), move || log.lock().push(i));
            if let Some(p) = &prev {
                p.precede(&t);
            }
            prev = Some(t);
        }
        ex.run(&g).wait().unwrap();
        assert_eq!(&*log.lock(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn diamond_respects_dependencies() {
        let ex = Executor::new(4, 0);
        let g = Heteroflow::new("diamond");
        let counter = Arc::new(AtomicUsize::new(0));
        let snap = Arc::new(Mutex::new((0usize, 0usize)));
        let (c1, c2, c3) = (
            Arc::clone(&counter),
            Arc::clone(&counter),
            Arc::clone(&counter),
        );
        let s1 = Arc::clone(&snap);
        let a = g.host("a", move || {
            c1.fetch_add(1, Ordering::SeqCst);
        });
        let b = g.host("b", {
            let c = Arc::clone(&counter);
            move || {
                c.fetch_add(1, Ordering::SeqCst);
            }
        });
        let c = g.host("c", move || {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        let d = g.host("d", move || {
            let v = c3.load(Ordering::SeqCst);
            *s1.lock() = (v, 3);
        });
        a.precede(&b).precede(&c);
        d.succeed(&b).succeed(&c);
        ex.run(&g).wait().unwrap();
        assert_eq!(*snap.lock(), (3, 3), "d saw all three predecessors");
    }

    #[test]
    fn run_n_repeats() {
        let ex = Executor::new(2, 0);
        let g = Heteroflow::new("rep");
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        g.host("inc", move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        ex.run_n(&g, 100).wait().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn run_n_zero_is_noop() {
        let ex = Executor::new(2, 0);
        let g = Heteroflow::new("zero");
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        g.host("inc", move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        ex.run_n(&g, 0).wait().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let ex = Executor::new(2, 0);
        let g = Heteroflow::new("until");
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        g.host("inc", move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        let c2 = Arc::clone(&counter);
        ex.run_until(&g, move || c2.load(Ordering::SeqCst) >= 7)
            .wait()
            .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn panicking_host_task_reports_error() {
        let ex = Executor::new(2, 0);
        let g = Heteroflow::new("boom");
        g.host("boom", || panic!("intentional"));
        let res = ex.run(&g).wait();
        assert_eq!(
            res,
            Err(HfError::TaskPanicked {
                task: "boom".into()
            })
        );
        // Executor still works afterwards.
        let g2 = Heteroflow::new("ok");
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        g2.host("fine", move || {
            r.store(1, Ordering::SeqCst);
        });
        ex.run(&g2).wait().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_runs_of_same_graph_queue_up() {
        let ex = Executor::new(4, 0);
        let g = Heteroflow::new("queued");
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        g.host("inc", move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        let futs: Vec<_> = (0..8).map(|_| ex.run(&g)).collect();
        for f in futs {
            f.wait().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn wait_for_all_drains_everything() {
        let ex = Executor::new(4, 0);
        let counter = Arc::new(AtomicUsize::new(0));
        let graphs: Vec<Heteroflow> = (0..5)
            .map(|i| {
                let g = Heteroflow::new(&format!("g{i}"));
                let c = Arc::clone(&counter);
                g.host("inc", move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
                g
            })
            .collect();
        for g in &graphs {
            ex.run_n(g, 3);
        }
        ex.wait_for_all();
        assert_eq!(counter.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn wide_fanout_exercises_stealing() {
        let ex = Executor::new(4, 0);
        let g = Heteroflow::new("fan");
        let counter = Arc::new(AtomicUsize::new(0));
        let root = g.host("root", || {});
        for i in 0..200 {
            let c = Arc::clone(&counter);
            let t = g.host(&format!("leaf{i}"), move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
            root.precede(&t);
        }
        ex.run(&g).wait().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert!(ex.stats().tasks_executed.sum() >= 201);
        // 200 successors released at once must have been sprayed across
        // the injector in batched pushes, not item-by-item.
        assert!(ex.stats().injector_batches.sum() >= 1);
        assert!(ex.stats().notify_coalesced.sum() >= 1);
    }

    #[test]
    fn non_adaptive_mode_still_works() {
        let ex = Executor::builder(3, 0).adaptive_sleep(false).build();
        let g = Heteroflow::new("spin");
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        g.host("inc", move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        ex.run_n(&g, 10).wait().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }
}
