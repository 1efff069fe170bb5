//! Failure handling: the retry policy applied to failed task bodies, and
//! device failover at a drained round boundary.
//!
//! Every failed body — a host task on a worker, or a GPU chain member
//! reported by its stream's completion callback — goes through
//! [`ExecInner::handle_failure`]: a transient fault is re-dispatched
//! after the policy's backoff, a device loss requests a failover (the
//! round drains, then [`ExecInner::try_failover`] re-places the lost
//! devices' groups and replays the unfinished nodes), and anything else
//! fails the run.

use crate::error::HfError;
use crate::executor::ExecInner;
use crate::graph::TaskKind;
use crate::lifecycle::{LifecycleEvent, LifecyclePhase};
use crate::retry::OnDeviceLoss;
use crate::topology::{FusionPlan, Topology};
use hf_gpu::GpuError;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// What [`ExecInner::failure_action`] decided about a failed task body.
enum FailureAction {
    /// Re-dispatch the node after the given backoff.
    Retry(Duration),
    /// Request a device failover; the round drains and replays.
    Failover,
    /// Fail the run with the error.
    Fail,
}

impl ExecInner {
    /// Decides what to do about a failed task body: retry it (transient
    /// error with attempts left), fail the run, or — for a whole-device
    /// loss under [`OnDeviceLoss::Failover`] — request a failover.
    fn failure_action(&self, topo: &Topology, node: usize, err: &HfError) -> FailureAction {
        match err.gpu_cause() {
            Some(GpuError::FaultInjected { .. }) => {
                self.stats.faults_injected.incr();
            }
            Some(GpuError::DeviceLost(_)) => {
                return match self.retry.loss_behavior() {
                    OnDeviceLoss::Failover => FailureAction::Failover,
                    OnDeviceLoss::Fail => FailureAction::Fail,
                };
            }
            _ => {}
        }
        // Retry only failures whose effect never happened: injected
        // faults and allocation exhaustion fire before mutating anything,
        // and panics unwind before the task's outputs are published.
        let retryable = matches!(err, HfError::TaskPanicked { .. })
            || matches!(
                err.gpu_cause(),
                Some(GpuError::FaultInjected { .. } | GpuError::OutOfMemory { .. })
            );
        if !retryable {
            return FailureAction::Fail;
        }
        let kind = topo.frozen.nodes[node].work.kind();
        let attempt = topo.attempts[node].fetch_add(1, Ordering::Relaxed) + 1;
        if attempt < self.retry.attempts(kind) {
            FailureAction::Retry(self.retry.backoff_for(attempt))
        } else {
            FailureAction::Fail
        }
    }

    /// Routes a failed task body through the retry policy. `worker` is
    /// the reporting worker (`None` on a device engine thread). Returns
    /// `true` when `node` was re-dispatched — a GPU retry re-walks the
    /// fused chain from the failed member — so the caller must not finish
    /// it. Otherwise the run has failed or requested a device failover,
    /// and the caller finishes the node (and the chain members that never
    /// ran) unsuccessfully.
    pub(crate) fn handle_failure(
        &self,
        topo: &Arc<Topology>,
        node: usize,
        worker: Option<u32>,
        err: HfError,
    ) -> bool {
        match self.failure_action(topo, node, &err) {
            FailureAction::Retry(delay) => {
                self.stats.retries.incr();
                topo.retries.fetch_add(1, Ordering::Relaxed);
                self.emit_task_lc(
                    topo,
                    LifecyclePhase::Retried,
                    node,
                    worker,
                    None,
                    Err(Some(&err)),
                );
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                self.release(topo, [node]);
                true
            }
            action => {
                self.emit_task_lc(
                    topo,
                    LifecyclePhase::Failed,
                    node,
                    worker,
                    None,
                    Err(Some(&err)),
                );
                match action {
                    FailureAction::Failover => topo.request_failover(err),
                    _ => topo.fail(err),
                }
                false
            }
        }
    }

    /// Performs a device failover at a drained round boundary: re-places
    /// the lost devices' groups onto the survivors and replays exactly the
    /// nodes that did not complete this round. Returns `false` when the
    /// failover could not be performed (budget exhausted, no survivors, or
    /// replay would double-apply a completed push) — the run then fails
    /// with the triggering error.
    pub(crate) fn try_failover(&self, topo: &Arc<Topology>) -> bool {
        let cause = match topo.failover.lock().take() {
            Some(c) => c,
            None => return false,
        };
        if topo.failovers.fetch_add(1, Ordering::Relaxed) + 1 > self.retry.failover_budget() {
            topo.fail(cause);
            return false;
        }
        let lost = self.note_lost_devices();

        let frozen = &topo.frozen;
        let n = frozen.nodes.len();
        let placement = topo.placement();
        let mut ok: Vec<bool> = topo
            .round_ok
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .collect();

        // Results living in a lost device's arena are gone: pulls and
        // kernels there must replay even though they completed. A
        // *completed push* there is unrecoverable — its host-side write
        // already happened, and replaying its group could re-apply an
        // in-place update through the re-pulled data — so fail structured
        // rather than risk silent double-application.
        #[allow(clippy::needless_range_loop)] // i indexes three parallel arrays
        for i in 0..n {
            let on_lost = placement.device_of[i].is_some_and(|d| lost[d as usize]);
            if on_lost && ok[i] {
                if frozen.nodes[i].work.kind() == TaskKind::Push {
                    topo.fail(cause);
                    return false;
                }
                ok[i] = false;
            }
        }

        let replay = ok.iter().filter(|&&o| !o).count();
        if replay == 0 {
            // Can't happen (the failover-requesting node is !ok), but a
            // replay of nothing would hang the round — fail instead.
            topo.fail(cause);
            return false;
        }

        // Streaming input hazard: once the session admitted a later epoch
        // (and ran its input mutator), this epoch's pulls would replay the
        // *next* epoch's host data. Fail the epoch with the triggering
        // cause instead; the stream itself keeps serving (the session
        // re-places subsequent epochs on the survivors).
        if let Some(g) = &topo.input_guard {
            if g.gen.load(Ordering::Acquire) != g.admitted_gen {
                let replays_pull = ok
                    .iter()
                    .enumerate()
                    .any(|(i, &o)| !o && frozen.nodes[i].work.kind() == TaskKind::Pull);
                if replays_pull {
                    topo.fail(cause);
                    return false;
                }
            }
        }

        let refined = self.refined_costs(frozen.name());
        let new_placement = match crate::placement::failover_placement_ext(
            &**frozen,
            &placement.device_of,
            &lost,
            &self.cost_model(),
            self.policy,
            refined.as_ref(),
        ) {
            Ok(p) => p,
            Err(e) => {
                // No surviving GPUs: fail with the structural error.
                drop(cause);
                topo.fail(e);
                return false;
            }
        };
        self.record_placement(&new_placement);

        // Device buffers on lost devices vanished with their arenas; a
        // replayed pull re-allocates on its new device. (Nothing to free —
        // the device is gone.)
        for i in 0..frozen.nodes.len() {
            let mut st = topo.pull_state(i).lock();
            if let Some(p) = st.ptr {
                if lost.get(p.device as usize).copied().unwrap_or(true) {
                    st.ptr = None;
                    st.resident_version = None;
                    st.device = None;
                } else if new_placement.device_of[i] != Some(p.device) {
                    // Defensive: surviving groups keep their device, but if
                    // one ever moves, release the stale buffer properly.
                    if let Ok(dev) = self.gpu.device(p.device) {
                        let _ = dev.free(p);
                    }
                    st.ptr = None;
                    st.resident_version = None;
                    st.device = None;
                }
            }
        }

        // Replay plan: fuse only among replayed nodes so no chain hangs
        // off an already-finished head.
        let active: Vec<bool> = ok.iter().map(|&o| !o).collect();
        let masked = FusionPlan::compute_masked(frozen, &new_placement, self.fusion, &active);

        // Rebuild join counters for the replay subgraph: a replayed node
        // waits only on replayed predecessors (done ones are satisfied).
        let mut join = vec![0usize; n];
        for u in 0..n {
            if !ok[u] {
                for &s in &frozen.nodes[u].succ {
                    if !ok[s] {
                        join[s] += 1;
                    }
                }
            }
        }
        for (j, v) in topo.join.iter().zip(&join) {
            j.store(*v, Ordering::Relaxed);
        }
        for a in &topo.attempts {
            a.store(0, Ordering::Relaxed);
        }
        for (b, &o) in topo.round_ok.iter().zip(&ok) {
            b.store(o, Ordering::Relaxed);
        }
        *topo.placement.write() = Arc::new(new_placement);
        *topo.fusion.write() = Arc::new(masked);
        topo.fusion_stale.store(true, Ordering::Release);
        topo.pending.store(replay, Ordering::Release);

        // Lift the skip barrier before dispatching replay work.
        topo.failover_pending.store(false, Ordering::Release);
        if self.lc_active() {
            // A successful failover: `ok`, with the triggering cause.
            let mut ev = LifecycleEvent::new(
                topo.run_id,
                &topo.graph_label,
                LifecyclePhase::Failover,
                topo.epoch,
                topo.tenant.as_ref(),
            );
            ev.detail = Some(Arc::from(cause.to_string().as_str()));
            self.emit(ev);
        }

        let fusion = topo.fusion();
        self.release(
            topo,
            (0..n).filter(|&i| !ok[i] && join[i] == 0 && !fusion.member[i]),
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::data::HostVec;
    use crate::executor::tests::gpu_lane;
    use crate::prelude::*;

    #[test]
    fn injected_fault_retries_to_success() {
        let ex = Executor::builder(2, 1)
            .retry_policy(RetryPolicy::new(3))
            .build();
        ex.gpu_runtime().set_fault_plan(Some(
            FaultPlan::seeded(42)
                .fail(FaultSite::Kernel, 1.0)
                .max_faults(1),
        ));
        let g = Heteroflow::new("retry");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 64]);
        gpu_lane(&g, "lane", &x);
        ex.run(&g).wait().unwrap();
        assert!(x.read().iter().all(|&v| v == 2));
        let snap = ex.stats().snapshot();
        assert!(snap.retries >= 1, "retries: {}", snap.retries);
        assert!(snap.faults_injected >= 1);
    }

    #[test]
    fn exhausted_retries_fail_with_structured_error() {
        let ex = Executor::builder(2, 1)
            .retry_policy(RetryPolicy::new(2))
            .build();
        // Every h2d copy faults, forever: two attempts then a hard fail.
        ex.gpu_runtime()
            .set_fault_plan(Some(FaultPlan::seeded(7).fail(FaultSite::H2d, 1.0)));
        let g = Heteroflow::new("exhaust");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 16]);
        g.pull("p", &x);
        let err = ex.run(&g).wait().unwrap_err();
        assert_eq!(err.task(), Some("p"));
        assert!(matches!(
            err.gpu_cause(),
            Some(GpuError::FaultInjected { .. })
        ));
        assert!(ex.stats().snapshot().retries >= 1);
    }

    #[test]
    fn device_loss_fails_over_to_survivor() {
        let ex = Executor::new(2, 2);
        // Device 0 dies at its first op; the lane placed there must be
        // re-placed onto device 1 and replayed.
        ex.gpu_runtime()
            .set_fault_plan(Some(FaultPlan::seeded(1).lose_device(0, 0)));
        let g = Heteroflow::new("failover");
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
    fn device_loss_with_fail_policy_errors() {
        let ex = Executor::builder(2, 1)
            .retry_policy(RetryPolicy::default().on_device_loss(OnDeviceLoss::Fail))
            .build();
        ex.gpu_runtime()
            .set_fault_plan(Some(FaultPlan::seeded(3).lose_device(0, 0)));
        let g = Heteroflow::new("lossfail");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 16]);
        gpu_lane(&g, "lane", &x);
        let err = ex.run(&g).wait().unwrap_err();
        assert!(matches!(err.gpu_cause(), Some(GpuError::DeviceLost(0))));
    }

    #[test]
    fn losing_the_only_device_fails_structured() {
        let ex = Executor::new(2, 1);
        ex.gpu_runtime()
            .set_fault_plan(Some(FaultPlan::seeded(5).lose_device(0, 0)));
        let g = Heteroflow::new("lastgpu");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 16]);
        gpu_lane(&g, "lane", &x);
        // Failover has no survivors: the run must fail (never hang) with
        // a structured error.
        let err = ex.run(&g).wait().unwrap_err();
        assert!(matches!(err, HfError::NoGpus { .. }));
    }
}
