//! Graph introspection: a closure-free structural snapshot.
//!
//! [`GraphInfo`] captures everything about a graph except the callables:
//! task kinds, names, dependency edges, pull sizes, kernel shapes and
//! sources. The `hf-sim` discrete-event model replays graphs from this
//! form, and it doubles as a stable inspection API for tests and tools.

use crate::error::HfError;
use crate::graph::{Heteroflow, TaskKind, Work};
use hf_gpu::LaunchConfig;

/// Structural description of one task.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Task name.
    pub name: String,
    /// Task category.
    pub kind: TaskKind,
    /// Successor node ids.
    pub successors: Vec<usize>,
    /// Number of dependencies.
    pub num_deps: usize,
    /// Bytes moved (pull: current source size; push: its pull's size;
    /// otherwise 0).
    pub bytes: usize,
    /// Kernel launch configuration (kernels only; default otherwise).
    pub launch: LaunchConfig,
    /// Declared kernel work units (kernels only; 0 = derive from launch).
    pub work_units: f64,
    /// Source pull tasks (kernels only).
    pub sources: Vec<usize>,
    /// Source pull task (push only).
    pub source_pull: Option<usize>,
}

impl NodeInfo {
    /// Effective modeled kernel work: declared units, or the launch's
    /// total thread count when undeclared — matching the executor's rule.
    pub fn effective_work_units(&self) -> f64 {
        if self.work_units > 0.0 {
            self.work_units
        } else {
            self.launch.total_threads() as f64
        }
    }
}

/// Structural snapshot of a whole graph.
#[derive(Debug, Clone)]
pub struct GraphInfo {
    /// Graph name.
    pub name: String,
    /// All tasks, indexed by node id.
    pub nodes: Vec<NodeInfo>,
}

impl GraphInfo {
    /// Node ids with no dependencies.
    pub fn sources(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.num_deps == 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.nodes.len()
    }

    /// Number of tasks of a given kind.
    pub fn count_kind(&self, kind: TaskKind) -> usize {
        self.nodes.iter().filter(|n| n.kind == kind).count()
    }

    /// Total number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.nodes.iter().map(|n| n.successors.len()).sum()
    }

    /// Length (in tasks) of the longest dependency chain — the critical
    /// path that lower-bounds any schedule.
    pub fn critical_path_len(&self) -> usize {
        let n = self.nodes.len();
        let mut depth = vec![0usize; n];
        // Process in topological order via Kahn.
        let mut indeg: Vec<usize> = self.nodes.iter().map(|x| x.num_deps).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut best = 0;
        while let Some(u) = queue.pop() {
            let du = depth[u] + 1;
            best = best.max(du);
            for &v in &self.nodes[u].successors {
                depth[v] = depth[v].max(du);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        best
    }
}

impl Heteroflow {
    /// Extracts a structural snapshot (freezes the graph to validate
    /// acyclicity first).
    pub fn info(&self) -> Result<GraphInfo, HfError> {
        let frozen = self.freeze()?;
        let nodes = frozen
            .nodes
            .iter()
            .map(|n| {
                let (bytes, sources, source_pull) = match &n.work {
                    Work::Pull { source } => (source.byte_len(), Vec::new(), None),
                    Work::Push { source_pull, sink: _ } => {
                        let b = match &frozen.nodes[*source_pull].work {
                            Work::Pull { source } => source.byte_len(),
                            _ => 0,
                        };
                        (b, Vec::new(), Some(*source_pull))
                    }
                    Work::Kernel { sources, .. } => (0, sources.clone(), None),
                    _ => (0, Vec::new(), None),
                };
                NodeInfo {
                    name: n.name.to_string(),
                    kind: n.work.kind(),
                    successors: n.succ.clone(),
                    num_deps: n.num_deps,
                    bytes,
                    launch: n.cfg,
                    work_units: n.work_units,
                    sources,
                    source_pull,
                }
            })
            .collect();
        Ok(GraphInfo {
            name: frozen.name.clone(),
            nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::HostVec;

    fn sample() -> (Heteroflow, GraphInfo) {
        let g = Heteroflow::new("sample");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 100]);
        let h = g.host("h", || {});
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        k.work_units(42.0);
        let s = g.push("s", &p, &x);
        h.precede(&p);
        p.precede(&k);
        k.precede(&s);
        let info = g.info().unwrap();
        (g, info)
    }

    #[test]
    fn info_captures_structure() {
        let (_g, info) = sample();
        assert_eq!(info.num_tasks(), 4);
        assert_eq!(info.num_edges(), 3);
        assert_eq!(info.sources(), vec![0]);
        assert_eq!(info.count_kind(TaskKind::Pull), 1);
        assert_eq!(info.nodes[1].bytes, 400);
        assert_eq!(info.nodes[2].sources, vec![1]);
        assert_eq!(info.nodes[2].work_units, 42.0);
        assert_eq!(info.nodes[3].source_pull, Some(1));
        assert_eq!(info.nodes[3].bytes, 400);
    }

    #[test]
    fn critical_path() {
        let (_g, info) = sample();
        assert_eq!(info.critical_path_len(), 4);
    }

    #[test]
    fn effective_work_units_fallback() {
        let g = Heteroflow::new("wu");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 8]);
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        k.cover(1000, 128);
        p.precede(&k);
        let info = g.info().unwrap();
        assert_eq!(info.nodes[1].effective_work_units(), 1024.0);
    }
}
