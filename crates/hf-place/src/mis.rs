//! Maximal independent set over the cell conflict graph — Blelloch's
//! random-priority algorithm (paper ref [32]), the step DREAMPlace
//! offloads to GPU with a reported 40× speedup (§IV-B).
//!
//! Each round is two data-parallel phases, written here as Heteroflow GPU
//! kernels over CSR adjacency:
//! 1. **select** — an undecided cell enters the set if its priority beats
//!    every undecided neighbor's (ties by id);
//! 2. **commit** — winners become IN and knock their undecided
//!    neighbors OUT, in one pass.
//!
//! With random priorities the number of rounds is O(log n) w.h.p.

use hf_gpu::{KernelArgs, LaunchConfig};

/// Cell state encoding in the device `state` array.
pub const UNDECIDED: u32 = 0;
/// Selected into the independent set.
pub const IN_SET: u32 = 1;
/// Excluded (a neighbor is in the set).
pub const OUT: u32 = 2;
/// Tentatively selected this round (between the two phases).
pub const TENTATIVE: u32 = 3;

/// Phase 1 kernel: mark local priority minima as TENTATIVE.
///
/// Device args: 0 = CSR offsets (u32, n+1), 1 = CSR neighbors (u32),
/// 2 = priorities (u32, n), 3 = states (u32, n). Args 0-2 are read in
/// place; only the states are written.
pub fn select_kernel() -> impl Fn(&LaunchConfig, &mut KernelArgs<'_, '_>) + Send + Sync {
    |cfg, args| {
        let ([offsets, neighbors, priorities], states) = args
            .split::<u32, u32, 3>([0, 1, 2], 3)
            .expect("CSR and priority buffers disjoint from the states");
        let n = priorities.len();
        for v in cfg.threads() {
            if v >= n || states[v] != UNDECIDED {
                continue;
            }
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            let mut wins = true;
            for &u in &neighbors[s..e] {
                let u = u as usize;
                // Only undecided neighbors compete.
                if states[u] == UNDECIDED || states[u] == TENTATIVE {
                    let beat = (priorities[v], v) < (priorities[u], u);
                    if !beat {
                        wins = false;
                        break;
                    }
                }
            }
            if wins {
                states[v] = TENTATIVE;
            }
        }
    }
}

/// Phase 2 kernel, one pass: each TENTATIVE cell becomes IN_SET and
/// knocks out its UNDECIDED neighbors. Device args as for
/// [`select_kernel`] (2 = priorities unused but kept for a uniform
/// signature).
///
/// This reaches the same states as promoting every winner first and then
/// knocking out the neighbors of every IN_SET cell: two TENTATIVE cells
/// are never adjacent (priorities are strict, ties broken by id), so no
/// knock-out hits a winner of this round; and a cell that joined the set
/// in an earlier round already knocked out its neighbors then, and states
/// never return to UNDECIDED.
pub fn commit_kernel() -> impl Fn(&LaunchConfig, &mut KernelArgs<'_, '_>) + Send + Sync {
    |cfg, args| {
        let ([offsets, neighbors], states) = args
            .split::<u32, u32, 2>([0, 1], 3)
            .expect("CSR buffers disjoint from the states");
        let n = states.len();
        for v in cfg.threads() {
            if v >= n || states[v] != TENTATIVE {
                continue;
            }
            states[v] = IN_SET;
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            for &u in &neighbors[s..e] {
                let u = u as usize;
                if states[u] == UNDECIDED {
                    states[u] = OUT;
                }
            }
        }
    }
}

/// CPU reference: runs select/commit rounds to a fixed point and returns
/// the final states. Identical semantics to the kernels.
pub fn mis_cpu(offsets: &[u32], neighbors: &[u32], priorities: &[u32]) -> Vec<u32> {
    let n = priorities.len();
    let mut states = vec![UNDECIDED; n];
    loop {
        let mut changed = false;
        // Select.
        let snapshot = states.clone();
        for v in 0..n {
            if snapshot[v] != UNDECIDED {
                continue;
            }
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            let wins = neighbors[s..e].iter().all(|&u| {
                let u = u as usize;
                snapshot[u] != UNDECIDED || (priorities[v], v) < (priorities[u], u)
            });
            if wins {
                states[v] = TENTATIVE;
                changed = true;
            }
        }
        // Commit.
        #[allow(clippy::needless_range_loop)] // mirrors the kernel's thread loop
        for v in 0..n {
            if states[v] == TENTATIVE {
                states[v] = IN_SET;
            }
        }
        for v in 0..n {
            if states[v] != IN_SET {
                continue;
            }
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            for &u in &neighbors[s..e] {
                if states[u as usize] == UNDECIDED {
                    states[u as usize] = OUT;
                }
            }
        }
        if !changed {
            break;
        }
        if states.iter().all(|&s| s != UNDECIDED) {
            break;
        }
    }
    states
}

/// Verifies independence (no two IN_SET cells adjacent) and maximality
/// (every non-member has an IN_SET neighbor). Movable-cell masks are the
/// caller's concern; this checks the pure graph property.
pub fn verify_mis(offsets: &[u32], neighbors: &[u32], states: &[u32]) -> Result<(), String> {
    let n = states.len();
    for v in 0..n {
        let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
        match states[v] {
            IN_SET => {
                for &u in &neighbors[s..e] {
                    if states[u as usize] == IN_SET {
                        return Err(format!("adjacent members {v} and {u}"));
                    }
                }
            }
            OUT => {
                let ok = neighbors[s..e]
                    .iter()
                    .any(|&u| states[u as usize] == IN_SET);
                if !ok {
                    return Err(format!("cell {v} excluded without a member neighbor"));
                }
            }
            UNDECIDED | TENTATIVE => {
                return Err(format!("cell {v} left undecided"));
            }
            other => return Err(format!("cell {v} in invalid state {other}")),
        }
    }
    Ok(())
}

/// Deterministic per-cell priorities: a seeded splitmix64 stream.
pub fn make_priorities(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{PlacementConfig, PlacementDb};

    fn path_graph(n: usize) -> (Vec<u32>, Vec<u32>) {
        // 0-1-2-...-n-1
        let mut offsets = vec![0u32];
        let mut neighbors = Vec::new();
        for v in 0..n {
            if v > 0 {
                neighbors.push((v - 1) as u32);
            }
            if v + 1 < n {
                neighbors.push((v + 1) as u32);
            }
            offsets.push(neighbors.len() as u32);
        }
        (offsets, neighbors)
    }

    #[test]
    fn cpu_mis_on_path_is_valid() {
        let (off, nbr) = path_graph(20);
        let pri = make_priorities(20, 42);
        let st = mis_cpu(&off, &nbr, &pri);
        verify_mis(&off, &nbr, &st).unwrap();
        let members = st.iter().filter(|&&s| s == IN_SET).count();
        // A path of 20 has MIS size between 7 (floor 20/3) and 10.
        assert!((7..=10).contains(&members), "size {members}");
    }

    #[test]
    fn empty_graph_all_in() {
        let off = vec![0u32; 6];
        let st = mis_cpu(&off, &[], &make_priorities(5, 1));
        assert!(st.iter().all(|&s| s == IN_SET));
    }

    #[test]
    fn mis_on_conflict_graph_is_valid() {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: 800,
            num_nets: 1000,
            ..Default::default()
        });
        let (off, nbr) = db.conflict_adjacency();
        let pri = make_priorities(db.num_cells(), 7);
        let st = mis_cpu(&off, &nbr, &pri);
        verify_mis(&off, &nbr, &st).unwrap();
        let members = st.iter().filter(|&&s| s == IN_SET).count();
        assert!(members > 0);
    }

    /// The two-phase kernels, run to fixed point on a software device,
    /// agree exactly with the CPU reference.
    #[test]
    fn kernels_match_cpu_reference() {
        use hf_core::data::HostVec;
        use hf_core::{Executor, Heteroflow};

        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: 300,
            num_nets: 400,
            ..Default::default()
        });
        let (off, nbr) = db.conflict_adjacency();
        let pri = make_priorities(db.num_cells(), 99);
        let expect = mis_cpu(&off, &nbr, &pri);
        let rounds = 32; // generous upper bound for n=300

        let ex = Executor::new(2, 1);
        let g = Heteroflow::new("mis");
        let h_off: HostVec<u32> = HostVec::from_vec(off.clone());
        let h_nbr: HostVec<u32> = HostVec::from_vec(if nbr.is_empty() {
            vec![u32::MAX] // avoid zero-byte pull
        } else {
            nbr.clone()
        });
        let h_pri: HostVec<u32> = HostVec::from_vec(pri.clone());
        let h_st: HostVec<u32> = HostVec::from_vec(vec![UNDECIDED; db.num_cells()]);

        let p_off = g.pull("off", &h_off);
        let p_nbr = g.pull("nbr", &h_nbr);
        let p_pri = g.pull("pri", &h_pri);
        let p_st = g.pull("st", &h_st);
        let n = db.num_cells();
        let mut prev: Option<hf_core::KernelTask> = None;
        for r in 0..rounds {
            let sel = g.kernel(
                &format!("sel{r}"),
                &[&p_off, &p_nbr, &p_pri, &p_st],
                select_kernel(),
            );
            sel.cover(n, 128);
            let com = g.kernel(
                &format!("com{r}"),
                &[&p_off, &p_nbr, &p_pri, &p_st],
                commit_kernel(),
            );
            com.cover(n, 128);
            match &prev {
                None => {
                    sel.succeed_all(&[&p_off, &p_nbr, &p_pri, &p_st]);
                }
                Some(p) => {
                    sel.succeed(p);
                }
            }
            sel.precede(&com);
            prev = Some(com);
        }
        let push = g.push("push_st", &p_st, &h_st);
        push.succeed(prev.as_ref().unwrap());
        ex.run(&g).wait().unwrap();

        let got = h_st.to_vec();
        assert_eq!(got, expect, "kernel fixed point differs from CPU");
        verify_mis(&off, &nbr, &got).unwrap();
    }
}
