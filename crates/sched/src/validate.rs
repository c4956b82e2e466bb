//! Schedule validation: every invariant a correct modulo schedule must obey.
//!
//! Used by the test-suite (including the property tests) and available to
//! users who want to double-check scheduler output.
//!
//! The register-requirement figures checked here (`max_live_*`) are produced
//! at finalize time by the batch [`crate::pressure::pressure`] walk — the
//! same function that serves as the correctness oracle for the incremental
//! [`crate::pressure::PressureTracker`] the scheduler consults while
//! placing nodes, so a tracker bug cannot leak an over-capacity schedule
//! past validation.

use crate::store::PlacementStore;
use crate::types::ScheduleResult;
use crate::workgraph::WorkGraph;
use hcrf_ir::{Ddg, DepKind, OpKind, OpLatencies, ResourceClass};
use hcrf_machine::{MachineConfig, RfOrganization};

/// Validate the internal consistency of a live [`PlacementStore`] mid- or
/// post-attempt: the [`crate::store::SlotIndex`] membership must equal a
/// from-scratch scan of the placements, and the MRT row counts must equal a
/// table rebuilt by replaying every placement (the index is the ground the
/// MRT counts are derivable from). Returns a human-readable description of
/// the first divergence, if any.
///
/// Every scheduler mutation must go through the store's transactional API
/// (`place` / `eject` / `remove_chain_members`); a mutation path that
/// bypasses it leaves the index or the MRT stale, which this check — called
/// after every step of the randomized place/eject property test — catches.
pub fn validate_store(
    store: &PlacementStore,
    w: &WorkGraph,
    lat: &OpLatencies,
) -> Result<(), String> {
    match store.check_consistency(w, lat) {
        None => Ok(()),
        Some(diff) => Err(diff),
    }
}

/// Validate a schedule against the original loop and the machine it was
/// produced for. Returns a human-readable description of the first violated
/// invariant, if any.
///
/// Checks performed:
/// 1. the achieved II is at least the MII;
/// 2. every dependence of the final graph is respected
///    (`start(dst) >= start(src) + delay - II * distance`);
/// 3. no resource class is over-subscribed in any row of the kernel
///    (FUs and memory ports per cluster, buses, LoadR/StoreR ports);
/// 4. the register requirement of every bank fits its capacity;
/// 5. every original memory operation is still present (none lost);
/// 6. bank consistency for hierarchical organizations: cluster operations
///    only consume values produced in their own cluster bank or brought
///    there by a `LoadR`, and memory/`LoadR` operations only consume
///    shared-bank values.
pub fn validate_schedule(
    original: &Ddg,
    machine: &MachineConfig,
    result: &ScheduleResult,
) -> Result<(), String> {
    if result.failed {
        return Err("schedule marked as failed".to_string());
    }
    if result.ii < result.mii {
        return Err(format!("II {} below MII {}", result.ii, result.mii));
    }
    let (Some(graph), Some(placements)) = (&result.final_graph, &result.placements) else {
        // Without the detailed schedule only the summary checks are possible.
        return Ok(());
    };
    if graph.num_nodes() != placements.len() {
        return Err("placement vector length mismatch".to_string());
    }
    let ii = result.ii.max(1);
    let lat = &machine.latencies;

    // 2. Dependences.
    for (_, e) in graph.edges() {
        let src = &placements[e.src.index()];
        let dst = &placements[e.dst.index()];
        let delay = match e.kind {
            DepKind::Flow => lat.of(graph.node(e.src).kind) as i64,
            DepKind::Anti => 0,
            DepKind::Output | DepKind::Mem => 1,
        };
        // Binding prefetching schedules some loads with a longer latency than
        // the hit latency; the hit-latency constraint is therefore the weakest
        // one every schedule must satisfy.
        let lhs = src.cycle as i64 + delay - (ii as i64) * e.distance as i64;
        if lhs > dst.cycle as i64 {
            return Err(format!(
                "dependence {} -> {} violated: {} + {} - {}*{} > {}",
                e.src, e.dst, src.cycle, delay, ii, e.distance, dst.cycle
            ));
        }
    }

    // 3. Resources.
    let clusters = machine.clusters() as usize;
    let hierarchical = machine.rf.is_hierarchical();
    let clustered_only = matches!(machine.rf, RfOrganization::Clustered { .. });
    let mut fu = vec![vec![0u32; clusters]; ii as usize];
    let mut mem_cluster = vec![vec![0u32; clusters]; ii as usize];
    let mut mem_shared = vec![0u32; ii as usize];
    let mut bus = vec![0u32; ii as usize];
    let mut lp = vec![vec![0u32; clusters]; ii as usize];
    let mut sp = vec![vec![0u32; clusters]; ii as usize];
    for (id, node) in graph.nodes() {
        let p = &placements[id.index()];
        let row = (p.cycle % ii) as usize;
        let cl = (p.cluster as usize).min(clusters - 1);
        match node.kind.resource_class() {
            ResourceClass::Fu => {
                let occ = lat.occupancy(node.kind).min(ii);
                let total_occ = lat.occupancy(node.kind);
                for k in 0..occ {
                    let copies = ((total_occ / ii) + u32::from(k < total_occ % ii)).max(1);
                    fu[(row + k as usize) % ii as usize][cl] += copies;
                }
            }
            ResourceClass::MemPort => {
                if hierarchical || !clustered_only {
                    mem_shared[row] += 1;
                } else {
                    mem_cluster[row][cl] += 1;
                }
            }
            ResourceClass::Bus => bus[row] += 1,
            ResourceClass::SharedReadPort => lp[row][cl] += 1,
            ResourceClass::SharedWritePort => sp[row][cl] += 1,
        }
    }
    let fus_per_cluster = machine.fu_count / machine.clusters();
    let mem_per_cluster = if clustered_only {
        machine.mem_ports / machine.clusters()
    } else {
        0
    };
    for row in 0..ii as usize {
        for c in 0..clusters {
            if fu[row][c] > fus_per_cluster {
                return Err(format!(
                    "FU over-subscription: row {row} cluster {c}: {} > {}",
                    fu[row][c], fus_per_cluster
                ));
            }
            if clustered_only && mem_cluster[row][c] > mem_per_cluster {
                return Err(format!(
                    "memory port over-subscription: row {row} cluster {c}"
                ));
            }
            if machine.lp != u32::MAX && lp[row][c] > machine.lp {
                return Err(format!(
                    "LoadR port over-subscription: row {row} cluster {c}"
                ));
            }
            if machine.sp != u32::MAX && sp[row][c] > machine.sp {
                return Err(format!(
                    "StoreR port over-subscription: row {row} cluster {c}"
                ));
            }
        }
        if mem_shared[row] > machine.mem_ports {
            return Err(format!("memory port over-subscription: row {row}"));
        }
        let buses = if machine.buses == 0 {
            machine.clusters()
        } else {
            machine.buses
        };
        if clustered_only && machine.buses != u32::MAX && bus[row] > buses {
            return Err(format!("bus over-subscription: row {row}"));
        }
    }

    // 4. Register capacity.
    let cluster_cap = machine.cluster_regs();
    for (c, live) in result.max_live_cluster.iter().enumerate() {
        if *live > cluster_cap {
            return Err(format!(
                "cluster bank {c} requires {live} registers but only {cluster_cap} available"
            ));
        }
    }
    if let Some(shared_cap) = machine.shared_regs() {
        if result.max_live_shared > shared_cap {
            return Err(format!(
                "shared bank requires {} registers but only {} available",
                result.max_live_shared, shared_cap
            ));
        }
    }

    // 5. No original memory operation lost.
    let orig_mem = original.memory_ops();
    let final_mem: usize = graph.memory_ops();
    if final_mem < orig_mem {
        return Err(format!(
            "memory operations lost: {final_mem} in schedule vs {orig_mem} in loop"
        ));
    }

    // 6. Bank consistency for hierarchical organizations.
    if hierarchical {
        for (_, e) in graph.edges() {
            if e.kind != DepKind::Flow {
                continue;
            }
            let src_kind = graph.node(e.src).kind;
            let dst_kind = graph.node(e.dst).kind;
            let produced_in_shared = matches!(src_kind, OpKind::Load | OpKind::StoreR);
            let consumed_from_shared = matches!(dst_kind, OpKind::Store | OpKind::LoadR);
            match (produced_in_shared, consumed_from_shared) {
                (true, true) => {}
                (false, false) => {
                    let pc = placements[e.src.index()].cluster;
                    let cc = placements[e.dst.index()].cluster;
                    if pc != cc {
                        return Err(format!(
                            "cluster operations {} (cluster {pc}) -> {} (cluster {cc}) communicate without going through the shared bank",
                            e.src, e.dst
                        ));
                    }
                }
                (true, false) => {
                    return Err(format!(
                        "{} produces a shared-bank value consumed directly by cluster operation {}",
                        e.src, e.dst
                    ));
                }
                (false, true) => {
                    return Err(format!(
                        "{} produces a cluster-bank value consumed directly by shared-bank reader {}",
                        e.src, e.dst
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::schedule_loop;
    use crate::types::SchedulerParams;
    use hcrf_ir::DdgBuilder;

    fn simple() -> Ddg {
        let mut b = DdgBuilder::new("v");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1, 8);
        b.flow(l, a, 0).flow(a, s, 0);
        b.build()
    }

    #[test]
    fn valid_schedule_passes() {
        let g = simple();
        let m = MachineConfig::paper_baseline(RfOrganization::monolithic(64));
        let r = schedule_loop(&g, &m, &SchedulerParams::default());
        assert!(validate_schedule(&g, &m, &r).is_ok());
    }

    #[test]
    fn tampered_ii_fails() {
        let g = simple();
        let m = MachineConfig::paper_baseline(RfOrganization::monolithic(64));
        let mut r = schedule_loop(&g, &m, &SchedulerParams::default());
        r.ii = 0;
        assert!(validate_schedule(&g, &m, &r).is_err());
    }

    #[test]
    fn tampered_placement_fails() {
        let g = simple();
        let m = MachineConfig::paper_baseline(RfOrganization::monolithic(64));
        let mut r = schedule_loop(&g, &m, &SchedulerParams::default());
        if let Some(p) = r.placements.as_mut() {
            // Move the store before the add: the flow dependence breaks.
            p[2].cycle = 0;
            p[1].cycle = 50;
        }
        assert!(validate_schedule(&g, &m, &r).is_err());
    }

    #[test]
    fn failed_schedule_rejected() {
        let g = simple();
        let m = MachineConfig::paper_baseline(RfOrganization::monolithic(64));
        let mut r = schedule_loop(&g, &m, &SchedulerParams::default());
        r.failed = true;
        assert!(validate_schedule(&g, &m, &r).is_err());
    }

    #[test]
    fn store_validation_accepts_consistent_and_catches_drift() {
        use crate::mrt::ResourceCaps;
        use crate::order::priority_order;
        use hcrf_ir::{NodeId, OpLatencies};

        let g = simple();
        let m = MachineConfig::paper_baseline(RfOrganization::monolithic(64));
        let lat = OpLatencies::paper_baseline();
        let w = WorkGraph::new(&g, &m);
        let caps = ResourceCaps::from_machine(&m);
        let order = priority_order(&w, &lat, 4);
        let mut store = PlacementStore::new(4, caps, g.num_nodes(), order, true);
        store.place(&w, NodeId(0), 0, 0, &lat);
        store.place(&w, NodeId(1), 2, 0, &lat);
        assert!(validate_store(&store, &w, &lat).is_ok());
        // A mutation that bypasses the store (here: desynchronising the
        // index by removing an entry directly) must be caught.
        let mut broken = store.clone();
        broken.desync_index_for_test(&w, NodeId(1), &lat);
        assert!(validate_store(&broken, &w, &lat).is_err());
    }
}
