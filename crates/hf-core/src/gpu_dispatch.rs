//! GPU dispatch: fused task chains and the host↔device copy path.
//!
//! A worker that picks a GPU task prepares the whole fused chain hanging
//! off it (§III-C "task fusing"), enqueues the ops back-to-back on its
//! per-device stream, and returns immediately; one stream-ordered
//! completion callback finishes every chain node. Pull and push tasks
//! enqueue through [`Worker::enqueue_copy`], the single copy path for
//! both directions: small transfers are one op, large ones are chunked
//! across copy-lane streams.

use crate::data::{HostSink, HostSource};
use crate::error::HfError;
use crate::executor::ExecInner;
use crate::graph::Work;
use crate::lifecycle::LifecyclePhase;
use crate::sched::Worker;
use crate::topology::Topology;
use hf_gpu::stream::ExecFn;
use hf_gpu::{
    ArenaView, CostModel, Device, DevicePtr, Event, FaultSite, GpuError, KernelArgs, OpLabel,
    OpReport, ScopedDeviceContext, SimDuration, Stream,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

impl Worker {
    fn stream(&mut self, device: u32) -> Stream {
        let slot = &mut self.streams[device as usize];
        if slot.is_none() {
            let dev = self
                .inner
                .gpu
                .device(device)
                .expect("placement produced a valid device id");
            *slot = Some(Stream::new(&dev));
        }
        slot.clone().expect("just created")
    }

    /// Copy-lane streams for `device`, created on first chunked transfer.
    fn copy_lanes(&mut self, device: u32) -> Vec<Stream> {
        let lanes = self.inner.copy_lanes;
        let slot = &mut self.copy_streams[device as usize];
        if slot.is_empty() {
            let dev = self
                .inner
                .gpu
                .device(device)
                .expect("placement produced a valid device id");
            slot.extend((0..lanes).map(|_| Stream::new(&dev)));
        }
        slot.clone()
    }

    /// Dispatches a GPU task and its fused chain (§III-C "task fusing"):
    /// all ops are prepared first (any error aborts before a single
    /// enqueue), then submitted to the per-worker stream back-to-back
    /// with one completion callback finishing every chain node in order.
    ///
    /// Fault tolerance: each op checks its device's fault injector and
    /// the cancellation flags before doing anything, and records the
    /// first failure in the shared [`Chain`]. Faults fire *before* an
    /// op's effect, so the completion callback can finish the completed
    /// prefix normally and route just the failed suffix through the retry
    /// policy (retry re-dispatches the failed member, which re-walks the
    /// chain from there).
    pub(crate) fn dispatch_gpu_chain(
        &mut self,
        topo: &Arc<Topology>,
        head: usize,
    ) -> Result<(), HfError> {
        let dev_id = topo.placement().device_of[head].expect("GPU task placed");
        let device = self.inner.gpu.device(dev_id)?;
        let _ctx = ScopedDeviceContext::new(dev_id);
        // Publish this worker's device focus for topology-aware stealing:
        // peers whose last GPU chain hit the same device likely queue
        // work warm on it.
        self.inner.worker_focus[self.id].store(dev_id as u64, Ordering::Relaxed);

        let chain = Arc::new(Chain {
            inner: Arc::clone(&self.inner),
            topo: Arc::clone(topo),
            device,
            done: AtomicUsize::new(0),
            error: Mutex::new(None),
        });
        let fusion = topo.fusion();
        let mut nodes = vec![head];
        while let Some(nxt) = fusion.next[nodes[nodes.len() - 1]] {
            nodes.push(nxt as usize);
        }
        let ops = nodes
            .iter()
            .map(|&id| chain.prepare_op(id))
            .collect::<Result<Vec<_>, _>>()?;
        if nodes.len() > 1 {
            let members = (nodes.len() - 1) as u64;
            self.inner.stats.fused.add(self.id, members);
            // Members never pass through `execute`; account for them.
            self.inner.stats.tasks_executed.add(self.id, members);
        }

        let stream = self.stream(dev_id);
        // Dispatched events fire before the first op is enqueued: the
        // engine may complete (and emit Finished for) the chain the
        // moment an op lands on the stream.
        if self.inner.lc_active() {
            for &nid in &nodes {
                self.inner.emit_task_lc(
                    topo,
                    LifecyclePhase::Dispatched,
                    nid,
                    Some(self.id as u32),
                    Some(head as u32),
                    Ok(()),
                );
            }
        }
        // Label ops with task name/kind only when a device trace sink is
        // installed: the label costs an Arc<str> per op, and the engine
        // drops it unused when tracing is off.
        let tracing = self.inner.gpu.tracing_enabled();
        for (&nid, op) in nodes.iter().zip(ops) {
            let label = tracing.then(|| {
                let n = &topo.frozen.nodes[nid];
                OpLabel {
                    name: Arc::clone(&n.name),
                    tag: crate::observer::kind_to_tag(n.work.kind()),
                    epoch: topo.epoch,
                }
            });
            match op {
                PreparedOp::Kernel(f) => stream.exec_labeled(label, f),
                PreparedOp::Copy(x) => self.enqueue_copy(x, &stream, label),
            }
        }
        stream.host_fn(move || chain.complete(&nodes, head));
        Ok(())
    }

    /// Enqueues one host↔device copy — the only place transfers are
    /// enqueued, in both directions. A transfer of at most
    /// `copy_chunk_threshold` bytes is one op on the chain's stream. A
    /// larger one is pipelined: a begin op on the chain stream (skip,
    /// elision, host fetch), chunk ops fanned out round-robin across the
    /// copy-lane streams behind an event, and an end op back on the chain
    /// stream that waits for every chunk and publishes the result. The
    /// device engine round-robins runnable stream heads, so chunks
    /// interleave with other streams' kernels instead of occupying the
    /// device end-to-end.
    fn enqueue_copy(&mut self, x: Transfer, stream: &Stream, label: Option<OpLabel>) {
        let x = Arc::new(x);
        if x.chunks == 1 {
            stream.exec_labeled(
                label,
                Box::new(move |view, cost| {
                    x.begin()?;
                    let report = x.chunk(view, cost, 0)?;
                    x.end(cost);
                    Ok(report)
                }),
            );
            return;
        }
        let lanes = self.copy_lanes(x.chain.device.id());
        let begin = Arc::clone(&x);
        stream.exec(Box::new(move |_, _| {
            begin.begin().map(|()| OpReport::default())
        }));
        let fetched = Event::new();
        stream.record_event(&fetched);
        for i in 0..x.chunks {
            let lane = &lanes[i % lanes.len()];
            lane.wait_event(&fetched);
            let chunk_label = label.as_ref().map(|l| OpLabel {
                name: Arc::from(format!("{}#c{i}", l.name)),
                tag: l.tag,
                epoch: l.epoch,
            });
            let xi = Arc::clone(&x);
            lane.exec_labeled(
                chunk_label,
                Box::new(move |view, cost| xi.chunk(view, cost, i)),
            );
            let done = Event::new();
            lane.record_event(&done);
            stream.wait_event(&done);
        }
        stream.exec_labeled(
            label,
            Box::new(move |_, cost| {
                x.end(cost);
                Ok(OpReport::default())
            }),
        );
    }
}

/// What [`Chain::prepare_op`] produced for one chain node.
enum PreparedOp {
    /// A kernel launch: one op on the chain's stream.
    Kernel(ExecFn),
    /// A pull or push, enqueued by [`Worker::enqueue_copy`].
    Copy(Transfer),
}

/// One dispatched GPU chain, shared by its ops: the context every op
/// needs, how many ops completed (the chain prefix), and the first
/// error. The ops record progress on the device engine thread; the
/// stream's completion callback consumes it.
struct Chain {
    inner: Arc<ExecInner>,
    topo: Arc<Topology>,
    device: Device,
    done: AtomicUsize,
    error: Mutex<Option<HfError>>,
}

impl Chain {
    /// Records the first failure; later ops in the chain then skip.
    fn fail(&self, e: HfError) {
        let mut g = self.error.lock();
        if g.is_none() {
            *g = Some(e);
        }
    }

    /// Records a device error of `node`'s op as the chain's failure and
    /// hands the error back for the op to return.
    fn fail_op(&self, node: usize, e: GpuError) -> GpuError {
        self.fail(HfError::TaskFailed {
            task: self.topo.frozen.nodes[node].name.to_string(),
            source: e.clone(),
        });
        e
    }

    /// True when an op should do nothing: an earlier chain op failed,
    /// the run already failed, or the caller cancelled — cooperative
    /// cancellation propagated into ops already enqueued on the stream.
    fn skip(&self) -> bool {
        self.error.lock().is_some()
            || self.topo.cancelled.load(Ordering::Acquire)
            || self.topo.cancel_requested()
    }

    /// Counts `node`'s op done, feeding its modeled duration back to the
    /// cost model.
    fn op_done(&self, node: usize, modeled: SimDuration) {
        let name = &self.topo.frozen.nodes[node].name;
        self.inner
            .observe_cost(&self.topo.frozen.name, name, modeled.as_nanos() as f64);
        self.done.fetch_add(1, Ordering::Release);
    }

    /// The chain's stream-ordered completion callback: finishes the
    /// completed prefix and routes a failed suffix through the retry
    /// policy.
    fn complete(&self, nodes: &[usize], head: usize) {
        let (inner, topo) = (&self.inner, &self.topo);
        let chain = Some(head as u32);
        let done = self.done.load(Ordering::Acquire);
        let err = self.error.lock().take();
        match err {
            None => {
                // `done < len` without an error means ops were skipped
                // by cancellation — finish unsuccessfully so a failover
                // (if one is pending) replays them.
                let ok = done == nodes.len();
                for &n in nodes {
                    inner.finish_task(topo, n, None, chain, ok);
                }
            }
            Some(e) => {
                for &n in &nodes[..done] {
                    inner.finish_task(topo, n, None, chain, true);
                }
                let rest = &nodes[done..];
                if !inner.handle_failure(topo, rest[0], None, e) {
                    for &n in rest {
                        inner.finish_node(topo, n, false);
                    }
                }
            }
        }
    }

    /// Builds the device op for one GPU node (without enqueueing it).
    /// Pull tasks also (re)use or (re)allocate their device buffer here.
    fn prepare_op(self: &Arc<Self>, id: usize) -> Result<PreparedOp, HfError> {
        let frozen = &self.topo.frozen;
        let node = &frozen.nodes[id];
        match &node.work {
            Work::Pull { source } => {
                let ptr = self.pull_buffer(id, source.byte_len())?;
                Ok(PreparedOp::Copy(Transfer::new(
                    self,
                    id,
                    ptr,
                    Dir::H2d(Arc::clone(source)),
                )))
            }
            Work::Push { source_pull, sink } => {
                let pull_node = &frozen.nodes[*source_pull];
                let ptr = self
                    .topo
                    .pull_state(*source_pull)
                    .lock()
                    .ptr
                    .ok_or_else(|| HfError::PushBeforePull {
                        push: node.name.to_string(),
                        pull: pull_node.name.to_string(),
                    })?;
                debug_assert_eq!(self.device.id(), ptr.device);
                // Revalidation is only sound for an in-place round trip
                // (push back into the pull's own storage): versions are
                // per-buffer counters, so a foreign sink's version must
                // never validate the source's residency.
                let same_buffer = matches!(&pull_node.work, Work::Pull { source }
                    if source.source_id().is_some() && source.source_id() == sink.sink_id());
                let dir = Dir::D2h {
                    sink: Arc::clone(sink),
                    revalidate: same_buffer.then_some(*source_pull),
                };
                Ok(PreparedOp::Copy(Transfer::new(self, id, ptr, dir)))
            }
            Work::Kernel { func, sources } => {
                let mut ptrs = Vec::with_capacity(sources.len());
                for &s in sources {
                    let p = self.topo.pull_state(s).lock().ptr.ok_or_else(|| {
                        HfError::SourceNotPulled {
                            kernel: node.name.to_string(),
                            pull: frozen.nodes[s].name.to_string(),
                        }
                    })?;
                    debug_assert_eq!(
                        p.device,
                        self.device.id(),
                        "placement must co-locate kernels with their pulls"
                    );
                    ptrs.push(p);
                }
                let cfg = node.cfg;
                let work_units = if node.work_units > 0.0 {
                    node.work_units
                } else {
                    cfg.total_threads() as f64
                };
                let (func, src_ids, chain) = (Arc::clone(func), sources.clone(), Arc::clone(self));
                Ok(PreparedOp::Kernel(Box::new(move |view, cost| {
                    if chain.skip() {
                        return Ok(OpReport::default());
                    }
                    chain
                        .device
                        .fault_check(FaultSite::Kernel)
                        .map_err(|e| chain.fail_op(id, e))?;
                    // Kernels take mutable views of their sources with no
                    // declared access modes, so assume every source buffer
                    // is mutated: its device bytes no longer match any
                    // host version. (A faulted kernel above never ran, so
                    // residency survives the retry.)
                    for &sid in &src_ids {
                        chain.topo.pull_state(sid).lock().resident_version = None;
                    }
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut args = KernelArgs::new(view, &ptrs);
                        func(&cfg, &mut args);
                    }));
                    if res.is_err() {
                        chain.fail(HfError::TaskPanicked {
                            task: chain.topo.frozen.nodes[id].name.to_string(),
                        });
                        return Ok(OpReport::default());
                    }
                    let dur = cost.kernel(work_units);
                    chain.op_done(id, dur);
                    Ok(OpReport {
                        duration: dur,
                        kernels: 1,
                        ..Default::default()
                    })
                })))
            }
            Work::Empty | Work::Host(_) => unreachable!("not a GPU task"),
        }
    }

    /// (Re)uses or (re)allocates pull `id`'s device buffer for the
    /// source's *current* size — stateful. A same-device buffer whose
    /// reserved capacity still fits is kept: a changed length only
    /// adjusts `len` (and drops residency); a changed device or outgrown
    /// capacity reallocates.
    fn pull_buffer(&self, id: usize, bytes: usize) -> Result<DevicePtr, HfError> {
        let mut st = self.topo.pull_state(id).lock();
        let reuse = matches!((&st.ptr, &st.device), (Some(p), Some(d))
            if d.same_device(&self.device) && bytes as u64 <= p.capacity);
        if reuse {
            let mut p = st.ptr.expect("reuse checked");
            if p.len as usize != bytes {
                p.len = bytes as u64;
                st.ptr = Some(p);
                st.resident_version = None;
            }
            return Ok(p);
        }
        if let (Some(p), Some(d)) = (st.ptr.take(), st.device.take()) {
            // Best-effort: a dead or lost device rejects the free; its
            // arena died with it.
            let _ = d.free(p);
        }
        st.resident_version = None;
        let p = self.device.alloc(bytes).map_err(|e| HfError::TaskFailed {
            task: self.topo.frozen.nodes[id].name.to_string(),
            source: e,
        })?;
        st.ptr = Some(p);
        st.device = Some(self.device.clone());
        Ok(p)
    }
}

/// Direction and host end of a [`Transfer`].
enum Dir {
    /// A pull: host source → device buffer.
    H2d(Arc<dyn HostSource>),
    /// A push: device buffer → host sink. `revalidate` names the source
    /// pull when the push writes back into that pull's own host buffer.
    D2h {
        sink: Arc<dyn HostSink>,
        revalidate: Option<usize>,
    },
}

/// One host↔device copy of a chain node, split into `chunks` ops of
/// `chunk` bytes (one op when it fits the chunk threshold).
struct Transfer {
    chain: Arc<Chain>,
    node: usize,
    ptr: DevicePtr,
    dir: Dir,
    chunk: usize,
    chunks: usize,
    /// Host bytes in flight: the fetched source snapshot (H2D), or the
    /// chunk reads being assembled (multi-chunk D2H).
    staging: Mutex<Vec<u8>>,
    /// Host version of the copied bytes: the fetched source's (H2D), or
    /// the sink's after the store (D2H).
    version: Mutex<Option<u64>>,
    /// The device buffer already holds the host version: nothing moves.
    elided: AtomicBool,
}

impl Transfer {
    fn new(chain: &Arc<Chain>, node: usize, ptr: DevicePtr, dir: Dir) -> Self {
        let chunk = chain.inner.copy_chunk_threshold;
        Self {
            chain: Arc::clone(chain),
            node,
            ptr,
            dir,
            chunk,
            chunks: (ptr.len as usize).div_ceil(chunk).max(1),
            staging: Mutex::new(Vec::new()),
            version: Mutex::new(None),
            elided: AtomicBool::new(false),
        }
    }

    /// `len` bytes of the device buffer starting at `off`.
    fn sub(&self, off: usize, len: usize) -> DevicePtr {
        DevicePtr {
            device: self.ptr.device,
            offset: self.ptr.offset + off as u64,
            len: len as u64,
            capacity: len as u64,
        }
    }

    /// Sets `node`'s residency, if its pull still owns this buffer.
    fn set_residency(&self, node: usize, version: Option<u64>) {
        let mut st = self.chain.topo.pull_state(node).lock();
        if st.ptr == Some(self.ptr) {
            st.resident_version = version;
        }
    }

    /// The transfer's first step: the elision check and host fetch
    /// (H2D), or the staging buffer for chunk reads (multi-chunk D2H).
    fn begin(&self) -> Result<(), GpuError> {
        if self.chain.skip() {
            return Ok(());
        }
        match &self.dir {
            Dir::H2d(src) => {
                let host_ver = src.version();
                {
                    let mut st = self.chain.topo.pull_state(self.node).lock();
                    // Transfer elision: the device buffer already holds
                    // exactly this host version — skip the copy entirely
                    // (no fault draw either: no transfer happens).
                    if host_ver.is_some()
                        && st.resident_version == host_ver
                        && st.ptr == Some(self.ptr)
                    {
                        self.elided.store(true, Ordering::Release);
                        return Ok(());
                    }
                    // The copy is about to overwrite the buffer; a
                    // mid-copy fault must not leave residency valid.
                    st.resident_version = None;
                }
                let (data, ver) = src.fetch_bytes_versioned();
                if data.len() > self.ptr.len as usize {
                    let e = GpuError::SizeMismatch {
                        dst: self.ptr.len as usize,
                        src: data.len(),
                    };
                    return Err(self.chain.fail_op(self.node, e));
                }
                *self.version.lock() = ver;
                *self.staging.lock() = data;
            }
            Dir::D2h { .. } if self.chunks > 1 => {
                *self.staging.lock() = vec![0u8; self.ptr.len as usize];
            }
            Dir::D2h { .. } => {}
        }
        Ok(())
    }

    /// Moves chunk `i`: one fault draw, then the copy in (H2D) or the
    /// read out (D2H). A single-chunk push stores straight into its sink.
    fn chunk(
        &self,
        view: &mut ArenaView<'_>,
        cost: &CostModel,
        i: usize,
    ) -> Result<OpReport, GpuError> {
        let c = &self.chain;
        if c.skip() || self.elided.load(Ordering::Acquire) {
            return Ok(OpReport::default());
        }
        let site = match self.dir {
            Dir::H2d(_) => FaultSite::H2d,
            Dir::D2h { .. } => FaultSite::D2h,
        };
        c.device
            .fault_check(site)
            .map_err(|e| c.fail_op(self.node, e))?;
        let off = i * self.chunk;
        match &self.dir {
            Dir::H2d(_) => {
                let staging = self.staging.lock();
                // The host may have shrunk between sizing and fetch; copy
                // only the staged part of this chunk's range.
                let end = off.saturating_add(self.chunk).min(staging.len());
                let n = end.saturating_sub(off);
                if n > 0 {
                    view.copy_in(self.sub(off, n), &staging[off..end])
                        .map_err(|e| c.fail_op(self.node, e))?;
                }
                Ok(OpReport {
                    duration: cost.h2d(n),
                    h2d_bytes: n as u64,
                    ..Default::default()
                })
            }
            Dir::D2h { sink, .. } => {
                let n = self.chunk.min(self.ptr.len as usize - off);
                let bytes = view
                    .bytes(self.sub(off, n))
                    .map_err(|e| c.fail_op(self.node, e))?;
                if self.chunks == 1 {
                    *self.version.lock() = sink.store_bytes_versioned(bytes);
                } else {
                    self.staging.lock()[off..off + n].copy_from_slice(bytes);
                }
                Ok(OpReport {
                    duration: cost.d2h(n),
                    d2h_bytes: n as u64,
                    ..Default::default()
                })
            }
        }
    }

    /// The transfer's last step: counts an elided copy, or publishes the
    /// moved bytes — residency, the sink store of assembled chunks, byte
    /// stats — and marks the task's op done.
    fn end(&self, cost: &CostModel) {
        let c = &self.chain;
        if c.skip() {
            return;
        }
        if self.elided.load(Ordering::Acquire) {
            c.inner.stats.transfers_elided.incr();
            c.done.fetch_add(1, Ordering::Release);
            return;
        }
        let modeled = match &self.dir {
            Dir::H2d(_) => {
                let n = self.staging.lock().len();
                // A partial fill (host shrank since prepare) stays
                // invalid.
                let ver = if n == self.ptr.len as usize {
                    *self.version.lock()
                } else {
                    None
                };
                self.set_residency(self.node, ver);
                c.inner.stats.bytes_h2d.add(n as u64);
                cost.h2d(n)
            }
            Dir::D2h { sink, revalidate } => {
                if self.chunks > 1 {
                    let staging = std::mem::take(&mut *self.staging.lock());
                    *self.version.lock() = sink.store_bytes_versioned(&staging);
                }
                // Push revalidation: the host now mirrors the device
                // buffer exactly, so a later pull of unchanged host data
                // may elide its copy.
                let ver = *self.version.lock();
                if let (Some(pull), Some(_)) = (revalidate, ver) {
                    self.set_residency(*pull, ver);
                }
                let n = self.ptr.len as usize;
                c.inner.stats.bytes_d2h.add(n as u64);
                cost.d2h(n)
            }
        };
        c.op_done(self.node, modeled);
    }
}
