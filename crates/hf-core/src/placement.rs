//! Device placement — Algorithm 1 of the paper.
//!
//! "The key idea is to group each kernel with its source pull tasks and
//! then pack each unique group to a GPU bin with an optimized cost. By
//! default, we minimize the load per GPU bins for maximal concurrency but
//! can expose this strategy to a pluggable interface for custom cost
//! metrics" (§III-C).
//!
//! Grouping uses union-find over the kernel→source-pull relation; packing
//! assigns each group root to a GPU bin. Push tasks inherit the device of
//! their source pull task (their stream "is guaranteed to live in the same
//! GPU context as the source pull task", Listing 6 discussion).

use crate::costmodel::TaskCosts;
use crate::error::HfError;
use crate::graph::{FrozenGraph, TaskKind, Work};
use crate::inspect::GraphInfo;
use hf_gpu::CostModel;
use hf_sync::UnionFind;

/// A placement-relevant view of a graph. Implemented by the executable
/// [`FrozenGraph`] and by the structural [`GraphInfo`] snapshot, so the
/// identical Algorithm 1 runs both inside the executor and inside the
/// `hf-sim` performance model.
pub trait PlacementView {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Task kind of node `i`.
    fn kind_of(&self, i: usize) -> TaskKind;
    /// Source pull tasks of kernel `i` (empty otherwise).
    fn kernel_sources(&self, i: usize) -> Vec<usize>;
    /// Source pull task of push `i`.
    fn push_source(&self, i: usize) -> Option<usize>;
    /// Node name (for error messages).
    fn name_of(&self, i: usize) -> String;
    /// Modeled device-time weight of node `i` for bin packing.
    fn weight_of(&self, i: usize, cost: &CostModel) -> f64;
    /// Bytes node `i` would move (pulls/pushes; 0 otherwise). Feeds the
    /// locality policy's estimate of transfer bytes saved by warm
    /// placement. Views without byte information may keep the default.
    fn bytes_of(&self, i: usize) -> usize {
        let _ = i;
        0
    }
    /// Device currently holding a warm, version-valid copy of pull `i`'s
    /// buffer, if any. The locality policy zeroes that edge's transfer
    /// cost on this device so placement gravitates to where the
    /// transfer-elision layer will actually fire. Structural views with
    /// no runtime residency keep the default (`None`).
    fn warm_device(&self, i: usize) -> Option<u32> {
        let _ = i;
        None
    }
}

impl PlacementView for FrozenGraph {
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn kind_of(&self, i: usize) -> TaskKind {
        self.nodes[i].work.kind()
    }

    fn kernel_sources(&self, i: usize) -> Vec<usize> {
        match &self.nodes[i].work {
            Work::Kernel { sources, .. } => sources.clone(),
            _ => Vec::new(),
        }
    }

    fn push_source(&self, i: usize) -> Option<usize> {
        match &self.nodes[i].work {
            Work::Push { source_pull, .. } => Some(*source_pull),
            _ => None,
        }
    }

    fn name_of(&self, i: usize) -> String {
        self.nodes[i].name.to_string()
    }

    fn weight_of(&self, i: usize, cost: &CostModel) -> f64 {
        node_weight(self, i, cost)
    }

    fn bytes_of(&self, i: usize) -> usize {
        match &self.nodes[i].work {
            Work::Pull { source } => source.byte_len(),
            Work::Push { source_pull, .. } => match &self.nodes[*source_pull].work {
                Work::Pull { source } => source.byte_len(),
                _ => 0,
            },
            _ => 0,
        }
    }

    fn warm_device(&self, i: usize) -> Option<u32> {
        match &self.nodes[i].work {
            Work::Pull { source } => {
                let st = self.nodes[i].pull_state.lock();
                // Warm = a live device buffer holding exactly the
                // source's current version. A mutated host buffer bumps
                // the version, so stale residency never attracts.
                let host_ver = source.version()?;
                if st.resident_version == Some(host_ver) {
                    st.ptr.map(|p| p.device)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

impl PlacementView for GraphInfo {
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn kind_of(&self, i: usize) -> TaskKind {
        self.nodes[i].kind
    }

    fn kernel_sources(&self, i: usize) -> Vec<usize> {
        self.nodes[i].sources.clone()
    }

    fn push_source(&self, i: usize) -> Option<usize> {
        self.nodes[i].source_pull
    }

    fn name_of(&self, i: usize) -> String {
        self.nodes[i].name.clone()
    }

    fn weight_of(&self, i: usize, cost: &CostModel) -> f64 {
        let n = &self.nodes[i];
        match n.kind {
            TaskKind::Pull => cost.h2d(n.bytes).as_nanos() as f64,
            TaskKind::Kernel => cost.kernel(n.effective_work_units()).as_nanos() as f64,
            _ => 0.0,
        }
    }

    fn bytes_of(&self, i: usize) -> usize {
        self.nodes[i].bytes
    }
}

/// Strategy for packing task groups onto GPU bins. `BalancedLoad` is the
/// paper's default; the others exist as ablation baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(Default)]
pub enum PlacementPolicy {
    /// Longest-processing-time greedy: heaviest group to the least-loaded
    /// bin (minimizes the maximum per-GPU load).
    #[default]
    BalancedLoad,
    /// Groups assigned cyclically in discovery order, ignoring weight.
    RoundRobin,
    /// Uniformly random bin per group (deterministic given the seed).
    Random {
        /// PRNG seed.
        seed: u64,
    },
    /// Cost-model-driven, residency-warm packing: groups are weighed in
    /// modeled seconds (analytic costs refined by EWMA feedback when a
    /// [`TaskCosts`] snapshot is supplied), and a device already holding
    /// a warm, version-valid copy of a pull's buffer has that edge's
    /// transfer cost zeroed — resubmissions gravitate to where transfer
    /// elision actually fires instead of chasing queue depth alone.
    Locality,
}


/// Result of device placement for one topology.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Device per node; `None` for host/placeholder tasks.
    pub device_of: Vec<Option<u32>>,
    /// Number of kernel/pull groups found.
    pub num_groups: usize,
    /// Modeled load per GPU bin after packing, including any initial
    /// loads passed to [`device_placement_biased`] (nanoseconds).
    pub loads: Vec<f64>,
    /// Groups the locality policy placed on a device already holding a
    /// warm copy of at least one of their pulls (0 for other policies).
    pub warm_hits: u64,
    /// Transfer bytes the locality policy expects warm placement to save
    /// via elision (0 for other policies).
    pub est_bytes_saved: u64,
}

impl Placement {
    /// Max bin load over *mean* bin load, weighted by modeled cost —
    /// 1.0 is perfectly balanced, `num_bins` is everything on one bin.
    /// Returns 1.0 for an empty placement.
    ///
    /// (The previous max/min ratio reported a misleading 1.0 whenever
    /// any bin was empty — exactly the most imbalanced outcome — because
    /// a zero minimum has no meaningful ratio. Max/mean stays defined
    /// and monotone in the heaviest bin's modeled overload.)
    pub fn imbalance(&self) -> f64 {
        if self.loads.is_empty() {
            return 1.0;
        }
        let max = self.loads.iter().cloned().fold(0.0f64, f64::max);
        let mean = self.loads.iter().sum::<f64>() / self.loads.len() as f64;
        if mean <= 0.0 || !mean.is_finite() {
            1.0
        } else {
            max / mean
        }
    }
}

/// Modeled weight of one node for bin packing, in nanoseconds of device
/// time.
fn node_weight(graph: &FrozenGraph, id: usize, cost: &CostModel) -> f64 {
    let node = &graph.nodes[id];
    match &node.work {
        Work::Pull { source } => cost.h2d(source.byte_len()).as_nanos() as f64,
        Work::Kernel { .. } => {
            let units = node.work_units.max(node.cfg.total_threads() as f64);
            cost.kernel(units).as_nanos() as f64
        }
        _ => 0.0,
    }
}

/// Weight of one node with EWMA refinement: the cost database's observed
/// estimate when one exists, the analytic model otherwise.
fn refined_weight<G: PlacementView + ?Sized>(
    graph: &G,
    id: usize,
    cost: &CostModel,
    refined: Option<&TaskCosts>,
) -> f64 {
    refined
        .and_then(|r| r.get(&graph.name_of(id)))
        .unwrap_or_else(|| graph.weight_of(id, cost))
}

/// Runs Algorithm 1 (*DevicePlacement*) on any [`PlacementView`].
///
/// Returns [`HfError::NoGpus`] if the graph contains GPU tasks but
/// `num_gpus == 0`.
pub fn device_placement<G: PlacementView + ?Sized>(
    graph: &G,
    num_gpus: u32,
    policy: PlacementPolicy,
    cost: &CostModel,
) -> Result<Placement, HfError> {
    device_placement_biased(graph, num_gpus, policy, cost, &[])
}

/// [`device_placement`] with pre-existing per-device load (nanoseconds).
///
/// A live executor runs many topologies; biasing each topology's packing
/// with the load already placed on each GPU keeps devices balanced
/// *across* graphs, not just within one. The executor feeds its
/// cumulative loads here. An empty slice means no initial load.
pub fn device_placement_biased<G: PlacementView + ?Sized>(
    graph: &G,
    num_gpus: u32,
    policy: PlacementPolicy,
    cost: &CostModel,
    initial_loads: &[f64],
) -> Result<Placement, HfError> {
    device_placement_ext(graph, num_gpus, policy, cost, initial_loads, None)
}

/// [`device_placement_biased`] with an optional per-task refined cost
/// snapshot (EWMA feedback from executed epochs, see
/// [`crate::costmodel::CostDb`]). Refined costs replace the analytic
/// weights wherever an estimate exists; the locality policy additionally
/// consults [`PlacementView::warm_device`] to zero transfer costs on
/// devices already holding current data.
pub fn device_placement_ext<G: PlacementView + ?Sized>(
    graph: &G,
    num_gpus: u32,
    policy: PlacementPolicy,
    cost: &CostModel,
    initial_loads: &[f64],
    refined: Option<&TaskCosts>,
) -> Result<Placement, HfError> {
    let n = graph.num_nodes();
    let mut device_of: Vec<Option<u32>> = vec![None; n];
    let mut loads = vec![0.0f64; num_gpus as usize];
    for (l, &init) in loads.iter_mut().zip(initial_loads) {
        *l = init;
    }
    let mut warm_hits = 0u64;
    let mut est_bytes_saved = 0u64;

    // Reject GPU work with no GPUs.
    if num_gpus == 0 {
        if let Some(id) = (0..n).find(|&i| {
            matches!(
                graph.kind_of(i),
                TaskKind::Pull | TaskKind::Push | TaskKind::Kernel
            )
        }) {
            return Err(HfError::NoGpus {
                task: graph.name_of(id),
            });
        }
        return Ok(Placement {
            device_of,
            num_groups: 0,
            loads,
            warm_hits: 0,
            est_bytes_saved: 0,
        });
    }

    // Lines 1-7: union each kernel with its source pull tasks.
    let mut uf = UnionFind::new(n);
    for id in 0..n {
        if graph.kind_of(id) == TaskKind::Kernel {
            for p in graph.kernel_sources(id) {
                uf.union(id, p);
            }
        }
    }

    // Lines 8-14: pack each unique group root onto a GPU bin. Collect
    // groups first so the balanced policy can sort by weight.
    let mut group_weight: std::collections::HashMap<usize, f64> = Default::default();
    let mut group_members: std::collections::HashMap<usize, Vec<usize>> = Default::default();
    for id in 0..n {
        let k = graph.kind_of(id);
        if k == TaskKind::Kernel || k == TaskKind::Pull {
            let root = uf.find(id);
            *group_weight.entry(root).or_insert(0.0) += refined_weight(graph, id, cost, refined);
            group_members.entry(root).or_default().push(id);
        }
    }

    let mut groups: Vec<(usize, f64)> = group_weight.into_iter().collect();
    // Deterministic order regardless of hash iteration.
    groups.sort_by_key(|&(root, _)| root);

    match policy {
        PlacementPolicy::BalancedLoad => {
            // LPT greedy: heaviest first onto the least-loaded bin.
            groups.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights are finite"));
            for (root, w) in groups {
                let bin = loads
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))
                    .map(|(i, _)| i)
                    .expect("num_gpus > 0");
                loads[bin] += w;
                for &m in &group_members[&root] {
                    device_of[m] = Some(bin as u32);
                }
            }
        }
        PlacementPolicy::Locality => {
            // LPT order by residency-blind weight, then pick per group
            // the bin minimizing *effective* cost: current load plus the
            // group's weight minus whatever transfers the bin's warm
            // buffers would elide. A warm device thus strictly wins load
            // ties, and only loses when the load gap exceeds the copy
            // cost it saves.
            groups.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights are finite"));
            for (root, w) in groups {
                let mut save = vec![0.0f64; num_gpus as usize];
                let mut saved_bytes = vec![0u64; num_gpus as usize];
                for &m in &group_members[&root] {
                    if graph.kind_of(m) == TaskKind::Pull {
                        if let Some(d) = graph.warm_device(m) {
                            if let Some(s) = save.get_mut(d as usize) {
                                *s += refined_weight(graph, m, cost, refined);
                                saved_bytes[d as usize] += graph.bytes_of(m) as u64;
                            }
                        }
                    }
                }
                let bin = (0..num_gpus as usize)
                    .min_by(|&a, &b| {
                        (loads[a] + w - save[a])
                            .partial_cmp(&(loads[b] + w - save[b]))
                            .expect("loads are finite")
                    })
                    .expect("num_gpus > 0");
                loads[bin] += (w - save[bin]).max(0.0);
                if save[bin] > 0.0 {
                    warm_hits += 1;
                    est_bytes_saved += saved_bytes[bin];
                }
                for &m in &group_members[&root] {
                    device_of[m] = Some(bin as u32);
                }
            }
        }
        PlacementPolicy::RoundRobin => {
            for (gi, (root, w)) in groups.iter().enumerate() {
                let bin = gi % num_gpus as usize;
                loads[bin] += w;
                for &m in &group_members[root] {
                    device_of[m] = Some(bin as u32);
                }
            }
        }
        PlacementPolicy::Random { seed } => {
            // splitmix64 stream; deterministic and dependency-free.
            let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
            let mut next = move || {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            for (root, w) in &groups {
                let bin = (next() % num_gpus as u64) as usize;
                loads[bin] += w;
                for &m in &group_members[root] {
                    device_of[m] = Some(bin as u32);
                }
            }
        }
    }

    // Push tasks inherit the device of their source pull.
    for id in 0..n {
        if let Some(src) = graph.push_source(id) {
            device_of[id] = device_of[src];
        }
    }

    let num_groups = group_members.len();
    Ok(Placement {
        device_of,
        num_groups,
        loads,
        warm_hits,
        est_bytes_saved,
    })
}

/// Re-placement after device loss: keeps every group whose device is still
/// alive where it is, and LPT-packs the stranded groups (device lost, or
/// never placed when `old_device_of` is empty) onto the surviving bins.
///
/// `old_device_of` is the current `device_of` (may be empty to place
/// everything fresh against the alive set), and `lost[d]` marks device `d`
/// as dead. Returns [`HfError::NoGpus`] if GPU tasks exist but every
/// device is lost.
pub fn failover_placement<G: PlacementView + ?Sized>(
    graph: &G,
    old_device_of: &[Option<u32>],
    lost: &[bool],
    cost: &CostModel,
) -> Result<Placement, HfError> {
    failover_placement_ext(graph, old_device_of, lost, cost, PlacementPolicy::BalancedLoad, None)
}

/// [`failover_placement`] reusing the locality cost model: under
/// [`PlacementPolicy::Locality`], stranded groups are re-packed onto the
/// surviving bins with EWMA-refined weights and warm-residency savings
/// (restricted to alive devices — a lost device's warmth died with its
/// arena). Other policies keep the plain LPT re-pack.
pub fn failover_placement_ext<G: PlacementView + ?Sized>(
    graph: &G,
    old_device_of: &[Option<u32>],
    lost: &[bool],
    cost: &CostModel,
    policy: PlacementPolicy,
    refined: Option<&TaskCosts>,
) -> Result<Placement, HfError> {
    let n = graph.num_nodes();
    let num_gpus = lost.len() as u32;
    let alive: Vec<usize> = (0..lost.len()).filter(|&d| !lost[d]).collect();
    let mut device_of: Vec<Option<u32>> = vec![None; n];
    let mut loads = vec![0.0f64; num_gpus as usize];

    if alive.is_empty() {
        if let Some(id) = (0..n).find(|&i| {
            matches!(
                graph.kind_of(i),
                TaskKind::Pull | TaskKind::Push | TaskKind::Kernel
            )
        }) {
            return Err(HfError::NoGpus {
                task: graph.name_of(id),
            });
        }
        return Ok(Placement {
            device_of,
            num_groups: 0,
            loads,
            warm_hits: 0,
            est_bytes_saved: 0,
        });
    }

    // Same grouping as Algorithm 1: union kernels with their source pulls.
    let mut uf = UnionFind::new(n);
    for id in 0..n {
        if graph.kind_of(id) == TaskKind::Kernel {
            for p in graph.kernel_sources(id) {
                uf.union(id, p);
            }
        }
    }
    let mut group_weight: std::collections::HashMap<usize, f64> = Default::default();
    let mut group_members: std::collections::HashMap<usize, Vec<usize>> = Default::default();
    for id in 0..n {
        let k = graph.kind_of(id);
        if k == TaskKind::Kernel || k == TaskKind::Pull {
            let root = uf.find(id);
            *group_weight.entry(root).or_insert(0.0) += refined_weight(graph, id, cost, refined);
            group_members.entry(root).or_default().push(id);
        }
    }
    let num_groups = group_members.len();
    let mut warm_hits = 0u64;
    let mut est_bytes_saved = 0u64;

    // Partition: groups on an alive device stay put; the rest re-pack.
    let mut stranded: Vec<(usize, f64)> = Vec::new();
    let mut groups: Vec<(usize, f64)> = group_weight.into_iter().collect();
    groups.sort_by_key(|&(root, _)| root);
    for (root, w) in groups {
        let old = group_members[&root]
            .iter()
            .find_map(|&m| old_device_of.get(m).copied().flatten());
        match old {
            Some(d) if !lost.get(d as usize).copied().unwrap_or(true) => {
                loads[d as usize] += w;
                for &m in &group_members[&root] {
                    device_of[m] = Some(d);
                }
            }
            _ => stranded.push((root, w)),
        }
    }

    // LPT greedy over the alive bins only; under the locality policy the
    // bin choice subtracts warm-residency savings on alive devices.
    stranded.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights are finite"));
    let locality = matches!(policy, PlacementPolicy::Locality);
    for (root, w) in stranded {
        let mut save = vec![0.0f64; num_gpus as usize];
        let mut saved_bytes = vec![0u64; num_gpus as usize];
        if locality {
            for &m in &group_members[&root] {
                if graph.kind_of(m) == TaskKind::Pull {
                    if let Some(d) = graph.warm_device(m) {
                        let d = d as usize;
                        if d < save.len() && !lost[d] {
                            save[d] += refined_weight(graph, m, cost, refined);
                            saved_bytes[d] += graph.bytes_of(m) as u64;
                        }
                    }
                }
            }
        }
        let bin = *alive
            .iter()
            .min_by(|&&a, &&b| {
                (loads[a] + w - save[a])
                    .partial_cmp(&(loads[b] + w - save[b]))
                    .expect("loads are finite")
            })
            .expect("alive is non-empty");
        loads[bin] += (w - save[bin]).max(0.0);
        if save[bin] > 0.0 {
            warm_hits += 1;
            est_bytes_saved += saved_bytes[bin];
        }
        for &m in &group_members[&root] {
            device_of[m] = Some(bin as u32);
        }
    }

    // Push tasks inherit the device of their source pull.
    for id in 0..n {
        if let Some(src) = graph.push_source(id) {
            device_of[id] = device_of[src];
        }
    }

    Ok(Placement {
        device_of,
        num_groups,
        loads,
        warm_hits,
        est_bytes_saved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::HostVec;
    use crate::graph::Heteroflow;

    /// Two kernels sharing a pull task must co-locate with it; an
    /// unrelated pull/kernel pair forms a second group.
    #[test]
    fn kernels_group_with_their_pulls() {
        let g = Heteroflow::new("grp");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 1024]);
        let y: HostVec<i32> = HostVec::from_vec(vec![0; 1024]);
        let px = g.pull("px", &x);
        let py = g.pull("py", &y);
        let k1 = g.kernel("k1", &[&px], |_, _| {});
        let k2 = g.kernel("k2", &[&px], |_, _| {});
        let k3 = g.kernel("k3", &[&py], |_, _| {});
        px.precede(&k1).precede(&k2);
        py.precede(&k3);
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 4, PlacementPolicy::BalancedLoad, &CostModel::default())
            .unwrap();
        assert_eq!(p.num_groups, 2);
        let d_px = p.device_of[px.id()].unwrap();
        assert_eq!(p.device_of[k1.id()], Some(d_px));
        assert_eq!(p.device_of[k2.id()], Some(d_px));
        let d_py = p.device_of[py.id()].unwrap();
        assert_eq!(p.device_of[k3.id()], Some(d_py));
        // Two groups on 4 GPUs must use two distinct devices (balanced).
        assert_ne!(d_px, d_py);
    }

    /// A kernel bridging two pulls merges all three into one group.
    #[test]
    fn shared_kernel_merges_groups() {
        let g = Heteroflow::new("merge");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 16]);
        let px = g.pull("px", &x);
        let py = g.pull("py", &x);
        let k = g.kernel("k", &[&px, &py], |_, _| {});
        px.precede(&k);
        py.precede(&k);
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 4, PlacementPolicy::BalancedLoad, &CostModel::default())
            .unwrap();
        assert_eq!(p.num_groups, 1);
        let d = p.device_of[k.id()];
        assert_eq!(p.device_of[px.id()], d);
        assert_eq!(p.device_of[py.id()], d);
    }

    #[test]
    fn push_inherits_pull_device() {
        let g = Heteroflow::new("push");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 16]);
        let px = g.pull("px", &x);
        let s = g.push("push_x", &px, &x);
        px.precede(&s);
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 2, PlacementPolicy::BalancedLoad, &CostModel::default())
            .unwrap();
        assert_eq!(p.device_of[s.id()], p.device_of[px.id()]);
    }

    #[test]
    fn host_tasks_have_no_device() {
        let g = Heteroflow::new("h");
        let h = g.host("h", || {});
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 2, PlacementPolicy::BalancedLoad, &CostModel::default())
            .unwrap();
        assert_eq!(p.device_of[h.id()], None);
        assert_eq!(p.num_groups, 0);
    }

    #[test]
    fn gpu_task_with_zero_gpus_errors() {
        let g = Heteroflow::new("nogpu");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 4]);
        g.pull("px", &x);
        let f = g.freeze().unwrap();
        assert!(matches!(
            device_placement(&*f, 0, PlacementPolicy::BalancedLoad, &CostModel::default()),
            Err(HfError::NoGpus { .. })
        ));
    }

    #[test]
    fn cpu_only_graph_with_zero_gpus_is_fine() {
        let g = Heteroflow::new("cpu");
        g.host("a", || {});
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 0, PlacementPolicy::BalancedLoad, &CostModel::default())
            .unwrap();
        assert!(p.device_of.iter().all(|d| d.is_none()));
    }

    /// Balanced packing of many equal groups spreads them evenly.
    #[test]
    fn balanced_load_is_balanced() {
        let g = Heteroflow::new("bal");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
        for i in 0..12 {
            let p = g.pull(&format!("p{i}"), &x);
            let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
            p.precede(&k);
        }
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 4, PlacementPolicy::BalancedLoad, &CostModel::default())
            .unwrap();
        assert_eq!(p.num_groups, 12);
        assert!(p.imbalance() < 1.01, "imbalance {}", p.imbalance());
        // Every device hosts exactly 3 groups' worth of load.
        let per_dev: Vec<usize> = (0..4)
            .map(|d| {
                p.device_of
                    .iter()
                    .filter(|x| **x == Some(d as u32))
                    .count()
            })
            .collect();
        assert_eq!(per_dev, vec![6, 6, 6, 6]); // 3 groups x (pull + kernel)
    }

    /// Random placement is deterministic for a fixed seed.
    #[test]
    fn random_policy_deterministic() {
        let g = Heteroflow::new("rand");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 64]);
        for i in 0..8 {
            let p = g.pull(&format!("p{i}"), &x);
            let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
            p.precede(&k);
        }
        let f = g.freeze().unwrap();
        let a = device_placement(&*f, 4, PlacementPolicy::Random { seed: 7 }, &CostModel::default())
            .unwrap();
        let b = device_placement(&*f, 4, PlacementPolicy::Random { seed: 7 }, &CostModel::default())
            .unwrap();
        assert_eq!(a.device_of, b.device_of);
    }

    /// Failover keeps alive groups in place and re-packs stranded ones
    /// onto surviving devices only.
    #[test]
    fn failover_repacks_lost_groups_onto_survivors() {
        let g = Heteroflow::new("fo");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024]);
        let mut kernels = Vec::new();
        for i in 0..6 {
            let p = g.pull(&format!("p{i}"), &x);
            let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
            p.precede(&k);
            kernels.push(k);
        }
        let f = g.freeze().unwrap();
        let cost = CostModel::default();
        let orig = device_placement(&*f, 3, PlacementPolicy::BalancedLoad, &cost).unwrap();
        // Lose device 1.
        let lost = vec![false, true, false];
        let fo = failover_placement(&*f, &orig.device_of, &lost, &cost).unwrap();
        assert_eq!(fo.num_groups, 6);
        for (i, (o, n)) in orig.device_of.iter().zip(&fo.device_of).enumerate() {
            let (Some(o), Some(n)) = (o, n) else { continue };
            assert_ne!(*n, 1, "node {i} still on the lost device");
            if *o != 1 {
                assert_eq!(o, n, "node {i} moved though its device survived");
            }
        }
        // Something was actually stranded and re-homed.
        assert!(orig.device_of.contains(&Some(1)));
    }

    /// Empty `old_device_of` places everything fresh on the alive set.
    #[test]
    fn failover_fresh_placement_avoids_lost_devices() {
        let g = Heteroflow::new("fo2");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 256]);
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        let s = g.push("s", &p, &x);
        p.precede(&k);
        k.precede(&s);
        let f = g.freeze().unwrap();
        let fo =
            failover_placement(&*f, &[], &[true, false], &CostModel::default()).unwrap();
        assert_eq!(fo.device_of[p.id()], Some(1));
        assert_eq!(fo.device_of[k.id()], Some(1));
        // Push inherits the pull's (surviving) device.
        assert_eq!(fo.device_of[s.id()], Some(1));
    }

    /// All devices lost with GPU work → structured NoGpus error.
    #[test]
    fn failover_with_no_survivors_errors() {
        let g = Heteroflow::new("fo3");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 16]);
        g.pull("p", &x);
        let f = g.freeze().unwrap();
        assert!(matches!(
            failover_placement(&*f, &[], &[true, true], &CostModel::default()),
            Err(HfError::NoGpus { .. })
        ));
    }

    /// Marks a frozen pull node's device buffer warm: a fake allocation
    /// on `device` holding exactly `version` of the source's bytes.
    fn set_warm(f: &FrozenGraph, id: usize, device: u32, version: u64, bytes: u64) {
        let mut st = f.nodes[id].pull_state.lock();
        st.ptr = Some(hf_gpu::DevicePtr {
            device,
            offset: 0,
            len: bytes,
            capacity: bytes,
        });
        st.resident_version = Some(version);
    }

    /// A warm, version-valid device wins load ties under the locality
    /// policy, and the placement reports the expected savings.
    #[test]
    fn locality_warm_device_wins_ties() {
        let g = Heteroflow::new("warm");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
        let y: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
        let px = g.pull("px", &x);
        let py = g.pull("py", &y);
        let f = g.freeze().unwrap();
        // Residency deliberately opposite to the tie-break order (device
        // 0 first): only warm attraction can produce this placement.
        set_warm(&f, px.id(), 1, x.version(), 4096);
        set_warm(&f, py.id(), 0, y.version(), 4096);
        let p = device_placement(&*f, 2, PlacementPolicy::Locality, &CostModel::default())
            .unwrap();
        assert_eq!(p.device_of[px.id()], Some(1));
        assert_eq!(p.device_of[py.id()], Some(0));
        assert_eq!(p.warm_hits, 2);
        assert_eq!(p.est_bytes_saved, 8192);
        // Warm transfers are elided, so they add no modeled load.
        assert!(p.loads.iter().all(|&l| l == 0.0), "loads {:?}", p.loads);
    }

    /// Stale residency (host buffer mutated since the copy) must not
    /// attract placement: the version no longer matches, so the policy
    /// falls back to plain balanced packing.
    #[test]
    fn locality_stale_residency_does_not_attract() {
        let g = Heteroflow::new("stale");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
        let y: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
        let px = g.pull("px", &x);
        let py = g.pull("py", &y);
        let f = g.freeze().unwrap();
        set_warm(&f, px.id(), 1, x.version(), 4096);
        set_warm(&f, py.id(), 0, y.version(), 4096);
        // Mutate both hosts: residency versions are now stale.
        x.write()[0] = 1;
        y.write()[0] = 1;
        let p = device_placement(&*f, 2, PlacementPolicy::Locality, &CostModel::default())
            .unwrap();
        assert_eq!(p.warm_hits, 0);
        assert_eq!(p.est_bytes_saved, 0);
        // Tie-break order reasserts itself: px (first group) on device 0,
        // not its stale device 1.
        assert_eq!(p.device_of[px.id()], Some(0));
        assert_eq!(p.device_of[py.id()], Some(1));
    }

    /// Warm residency is only worth its transfer cost: a large load gap
    /// still moves the group off the warm device.
    #[test]
    fn locality_load_gap_overrides_warmth() {
        let g = Heteroflow::new("gap");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024]);
        let px = g.pull("px", &x);
        let f = g.freeze().unwrap();
        set_warm(&f, px.id(), 0, x.version(), 1024);
        let cost = CostModel::default();
        let w = cost.h2d(1024).as_nanos() as f64;
        // Device 0 is warm but pre-loaded far beyond the copy saving.
        let bias = [w * 10.0, 0.0];
        let p = device_placement_ext(
            &*f,
            2,
            PlacementPolicy::Locality,
            &cost,
            &bias,
            None,
        )
        .unwrap();
        assert_eq!(p.device_of[px.id()], Some(1));
        assert_eq!(p.warm_hits, 0);
    }

    /// EWMA-refined costs replace analytic weights in the packing.
    #[test]
    fn refined_costs_reweigh_groups() {
        let g = Heteroflow::new("refined");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024]);
        let mut pulls = Vec::new();
        for i in 0..3 {
            pulls.push(g.pull(&format!("p{i}"), &x));
        }
        let f = g.freeze().unwrap();
        let cost = CostModel::default();
        let db = crate::costmodel::CostDb::new();
        // p0 is observed to be 10x heavier than the analytic estimate;
        // LPT must isolate it and pair the two light pulls.
        let analytic = cost.h2d(1024).as_nanos() as f64;
        db.observe("refined", "p0", analytic * 10.0);
        let snap = db.snapshot_for("refined");
        let p = device_placement_ext(
            &*f,
            2,
            PlacementPolicy::BalancedLoad,
            &cost,
            &[],
            Some(&snap),
        )
        .unwrap();
        let d0 = p.device_of[pulls[0].id()].unwrap();
        assert_eq!(p.device_of[pulls[1].id()], p.device_of[pulls[2].id()]);
        assert_ne!(p.device_of[pulls[1].id()], Some(d0));
    }

    /// Failover under the locality policy re-homes a stranded group onto
    /// the alive device already holding its data warm.
    #[test]
    fn failover_locality_prefers_warm_survivor() {
        let g = Heteroflow::new("fw");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 2048]);
        let px = g.pull("px", &x);
        let f = g.freeze().unwrap();
        // Warm on device 2; previously placed on device 0, now lost.
        set_warm(&f, px.id(), 2, x.version(), 2048);
        let old = vec![Some(0)];
        let lost = vec![true, false, false];
        let cost = CostModel::default();
        let balanced =
            failover_placement(&*f, &old, &lost, &cost).unwrap();
        // Plain LPT picks the first alive bin (device 1).
        assert_eq!(balanced.device_of[px.id()], Some(1));
        let locality = failover_placement_ext(
            &*f,
            &old,
            &lost,
            &cost,
            PlacementPolicy::Locality,
            None,
        )
        .unwrap();
        assert_eq!(locality.device_of[px.id()], Some(2));
        assert_eq!(locality.warm_hits, 1);
        assert_eq!(locality.est_bytes_saved, 2048);
    }

    /// The cost-weighted imbalance metric: max over mean, defined even
    /// with empty bins (the old max/min ratio reported a misleading 1.0
    /// whenever a bin was empty).
    #[test]
    fn imbalance_is_max_over_mean() {
        let p = Placement {
            device_of: Vec::new(),
            num_groups: 1,
            loads: vec![2.0, 0.0],
            warm_hits: 0,
            est_bytes_saved: 0,
        };
        assert!((p.imbalance() - 2.0).abs() < 1e-12);
        let empty = Placement {
            device_of: Vec::new(),
            num_groups: 0,
            loads: Vec::new(),
            warm_hits: 0,
            est_bytes_saved: 0,
        };
        assert_eq!(empty.imbalance(), 1.0);
        let balanced = Placement {
            device_of: Vec::new(),
            num_groups: 4,
            loads: vec![3.0, 3.0, 3.0],
            warm_hits: 0,
            est_bytes_saved: 0,
        };
        assert!((balanced.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_robin_cycles() {
        let g = Heteroflow::new("rr");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 64]);
        let mut pulls = Vec::new();
        for i in 0..6 {
            pulls.push(g.pull(&format!("p{i}"), &x));
        }
        let f = g.freeze().unwrap();
        let p =
            device_placement(&*f, 3, PlacementPolicy::RoundRobin, &CostModel::default()).unwrap();
        let devs: Vec<u32> = pulls.iter().map(|t| p.device_of[t.id()].unwrap()).collect();
        assert_eq!(devs, vec![0, 1, 2, 0, 1, 2]);
    }
}
