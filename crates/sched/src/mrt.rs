//! Modulo reservation table.
//!
//! Resource accounting is done per *resource class* and cluster with
//! slot-count semantics: every row of the table (one per cycle of the II) has
//! a capacity per resource, and a non-pipelined operation of occupancy `o`
//! reserves one slot in each of the `o` consecutive rows (modulo the II)
//! starting at its issue row. This aggregates units of the same class rather
//! than binding operations to individual units, which is the usual
//! abstraction for modulo-scheduling resource models and matches the ResMII
//! bound of [`hcrf_ir::res_mii`].
//!
//! On top of the row counts the table maintains a **row-availability
//! summary**: per (resource class, cluster — global classes such as buses
//! and shared memory ports keep a single cluster-agnostic mask) a packed
//! `u64` bitmask over the II rows whose bit is set iff the row has residual
//! capacity for one unit-occupancy reservation. Every [`Mrt::place`] /
//! [`Mrt::remove`] keeps the masks consistent with the counts (enforced by
//! [`Mrt::check_masks`], which `validate_store` runs after every step of the
//! randomized property tests), and [`Mrt::first_free_row_in`] answers the
//! scheduler's slot-window searches as wrapped find-first/last-set over
//! words instead of the per-row [`Mrt::can_place`] walk they replace —
//! multi-row operations (non-pipelined divides and square roots) test the
//! shifted mask bits across their occupancy span, falling back to a
//! `can_place` confirmation only when the occupancy exceeds the II (the one
//! case where a row needs more than one unit copy).

use hcrf_ir::{OpKind, OpLatencies, ResourceClass};
use hcrf_machine::MachineConfig;
use serde::{Deserialize, Serialize};

/// Capacity of every resource class, per cluster where applicable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceCaps {
    /// Functional units per cluster.
    pub fus_per_cluster: u32,
    /// Memory ports per cluster (0 for hierarchical organizations).
    pub mem_ports_per_cluster: u32,
    /// Memory ports shared by all clusters (hierarchical organizations and
    /// monolithic machines route all memory traffic here).
    pub shared_mem_ports: u32,
    /// Inter-cluster buses (purely clustered organizations).
    pub buses: u32,
    /// LoadR ports per cluster (reads from the shared bank).
    pub lp: u32,
    /// StoreR ports per cluster (writes into the shared bank).
    pub sp: u32,
    /// Number of clusters.
    pub clusters: u32,
}

impl ResourceCaps {
    /// Derive the capacities from a machine configuration.
    pub fn from_machine(m: &MachineConfig) -> Self {
        let clusters = m.clusters();
        let hierarchical = m.rf.is_hierarchical();
        ResourceCaps {
            fus_per_cluster: m.fu_count / clusters,
            mem_ports_per_cluster: if hierarchical {
                0
            } else {
                m.mem_ports / clusters
            },
            shared_mem_ports: if hierarchical || clusters == 1 {
                m.mem_ports
            } else {
                0
            },
            buses: if m.rf.is_clustered() && !hierarchical {
                if m.buses == 0 {
                    clusters
                } else {
                    m.buses
                }
            } else {
                0
            },
            lp: m.lp,
            sp: m.sp,
            clusters,
        }
    }

    /// Whether memory operations are accounted against the shared port pool
    /// (monolithic and hierarchical organizations) instead of per cluster.
    pub fn memory_is_shared(&self) -> bool {
        self.shared_mem_ports > 0
    }
}

/// The modulo reservation table itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mrt {
    ii: u32,
    caps: ResourceCaps,
    /// `fu[row * clusters + cluster]` (FU unit counts)
    fu: Vec<u16>,
    /// `mem[row * clusters + cluster]` (per-cluster memory ports)
    mem: Vec<u16>,
    /// `shared_mem[row]`
    shared_mem: Vec<u16>,
    /// `bus[row]`
    bus: Vec<u16>,
    /// `lp[row * clusters + cluster]`
    lp: Vec<u16>,
    /// `sp[row * clusters + cluster]`
    sp: Vec<u16>,
    /// Free FU slots per cluster across the whole table, maintained
    /// incrementally by [`Mrt::adjust`] so the cluster-selection heuristic's
    /// [`Mrt::free_fu_slots`] costs O(1) instead of O(II) — it is called
    /// once per cluster per scheduling attempt, which dominated
    /// ejection-churn-heavy loops.
    fu_free: Vec<u32>,
    /// Row-availability masks, one bit per row, bit set iff the row can take
    /// one more unit-occupancy reservation of the class. Cluster-local
    /// classes store `clusters` masks of `words()` words each; global masks
    /// store one. Maintained by [`Mrt::adjust`].
    fu_avail: Vec<u64>,
    mem_avail: Vec<u64>,
    bus_avail: Vec<u64>,
    lp_avail: Vec<u64>,
    sp_avail: Vec<u64>,
}

/// Every resource class with an availability mask.
const ALL_CLASSES: [ResourceClass; 5] = [
    ResourceClass::Fu,
    ResourceClass::MemPort,
    ResourceClass::Bus,
    ResourceClass::SharedReadPort,
    ResourceClass::SharedWritePort,
];

/// The single row-availability predicate behind every bit of the summary
/// masks: a row can take one more unit-occupancy reservation iff its count
/// is below the class capacity (`u32::MAX` encodes unbounded bandwidth).
/// Every writer and checker of the masks — the `adjust` arms, mask
/// initialization and [`Mrt::check_masks`] — goes through here.
#[inline]
fn row_avail(count: u16, cap: u32) -> bool {
    cap == u32::MAX || (count as u32) < cap
}

/// Set or clear one row bit in a packed availability mask.
#[inline]
fn write_bit(words: &mut [u64], row: usize, avail: bool) {
    let (w, b) = (row / 64, row % 64);
    if avail {
        words[w] |= 1u64 << b;
    } else {
        words[w] &= !(1u64 << b);
    }
}

/// Read one row bit of a packed availability mask.
#[inline]
fn read_bit(words: &[u64], row: usize) -> bool {
    words[row / 64] & (1u64 << (row % 64)) != 0
}

/// Smallest row in `[a, b)` whose bit is set, scanning word-at-a-time.
fn first_set_in_range(words: &[u64], a: u32, b: u32) -> Option<u32> {
    if a >= b {
        return None;
    }
    let last = ((b - 1) / 64) as usize;
    let mut wi = (a / 64) as usize;
    let mut word = words[wi] & (!0u64 << (a % 64));
    loop {
        if wi == last {
            let hi = b - wi as u32 * 64;
            if hi < 64 {
                word &= (1u64 << hi) - 1;
            }
        }
        if word != 0 {
            return Some(wi as u32 * 64 + word.trailing_zeros());
        }
        if wi == last {
            return None;
        }
        wi += 1;
        word = words[wi];
    }
}

/// Largest row in `[a, b)` whose bit is set, scanning word-at-a-time.
fn last_set_in_range(words: &[u64], a: u32, b: u32) -> Option<u32> {
    if a >= b {
        return None;
    }
    let first = (a / 64) as usize;
    let mut wi = ((b - 1) / 64) as usize;
    let mut word = words[wi];
    let hi = b - wi as u32 * 64;
    if hi < 64 {
        word &= (1u64 << hi) - 1;
    }
    loop {
        if wi == first {
            word &= !0u64 << (a % 64);
        }
        if word != 0 {
            return Some(wi as u32 * 64 + 63 - word.leading_zeros());
        }
        if wi == first {
            return None;
        }
        wi -= 1;
        word = words[wi];
    }
}

impl Mrt {
    /// Create an empty table for the given II.
    pub fn new(ii: u32, caps: ResourceCaps) -> Self {
        let ii = ii.max(1);
        let rows = ii as usize;
        let c = caps.clusters as usize;
        let words = rows.div_ceil(64);
        let mem_blocks = if caps.memory_is_shared() { 1 } else { c };
        let mut mrt = Mrt {
            ii,
            caps,
            fu: vec![0; rows * c],
            mem: vec![0; rows * c],
            shared_mem: vec![0; rows],
            bus: vec![0; rows],
            lp: vec![0; rows * c],
            sp: vec![0; rows * c],
            fu_free: vec![ii * caps.fus_per_cluster; c],
            fu_avail: vec![0; words * c],
            mem_avail: vec![0; words * mem_blocks],
            bus_avail: vec![0; words],
            lp_avail: vec![0; words * c],
            sp_avail: vec![0; words * c],
        };
        mrt.init_masks();
        mrt
    }

    /// Initialize every availability mask from the shared predicate on zero
    /// counts (rows past the II stay clear so the word scans never report
    /// ghost rows). Counts must be all-zero when this runs.
    fn init_masks(&mut self) {
        let rows = self.ii as usize;
        let c = self.caps.clusters as usize;
        for class in ALL_CLASSES {
            let cap = self.unit_cap(class);
            let blocks = if self.class_is_global(class) { 1 } else { c };
            let avail = row_avail(0, cap);
            for block in 0..blocks {
                let mask = self.avail_words_mut(class, block as u32);
                for w in mask.iter_mut() {
                    *w = 0;
                }
                if avail {
                    for row in 0..rows {
                        write_bit(mask, row, true);
                    }
                }
            }
        }
    }

    /// Re-shape the table for a new II, clearing every row count and
    /// re-deriving the availability masks — equivalent to [`Mrt::new`] with
    /// the same capacities but reusing the allocations. The attempt arena
    /// calls this once per II restart instead of rebuilding the table.
    pub fn reset_for_ii(&mut self, ii: u32) {
        let ii = ii.max(1);
        self.ii = ii;
        let rows = ii as usize;
        let c = self.caps.clusters as usize;
        let words = rows.div_ceil(64);
        let mem_blocks = if self.caps.memory_is_shared() { 1 } else { c };
        fn refill<T: Copy>(v: &mut Vec<T>, len: usize, val: T) {
            v.clear();
            v.resize(len, val);
        }
        refill(&mut self.fu, rows * c, 0);
        refill(&mut self.mem, rows * c, 0);
        refill(&mut self.shared_mem, rows, 0);
        refill(&mut self.bus, rows, 0);
        refill(&mut self.lp, rows * c, 0);
        refill(&mut self.sp, rows * c, 0);
        refill(&mut self.fu_free, c, ii * self.caps.fus_per_cluster);
        refill(&mut self.fu_avail, words * c, 0);
        refill(&mut self.mem_avail, words * mem_blocks, 0);
        refill(&mut self.bus_avail, words, 0);
        refill(&mut self.lp_avail, words * c, 0);
        refill(&mut self.sp_avail, words * c, 0);
        self.init_masks();
    }

    /// Re-target the table at a new machine's capacities and clear it for an
    /// attempt at `ii` — equivalent to [`Mrt::new`] but reusing every row
    /// vector and availability-mask allocation. The pooled attempt arena
    /// calls this when re-binding its store to a new (loop, machine) pair.
    pub fn rebind(&mut self, ii: u32, caps: ResourceCaps) {
        self.caps = caps;
        self.reset_for_ii(ii);
    }

    /// The II of the table.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The resource capacities.
    pub fn caps(&self) -> &ResourceCaps {
        &self.caps
    }

    fn row_of(&self, cycle: i64) -> usize {
        (cycle.rem_euclid(self.ii as i64)) as usize
    }

    /// Words per availability mask.
    fn words(&self) -> usize {
        (self.ii as usize).div_ceil(64)
    }

    /// Capacity one unit-occupancy reservation of the class is checked
    /// against (`u32::MAX` encodes unbounded bandwidth).
    fn unit_cap(&self, class: ResourceClass) -> u32 {
        match class {
            ResourceClass::Fu => self.caps.fus_per_cluster,
            ResourceClass::MemPort => {
                if self.caps.memory_is_shared() {
                    self.caps.shared_mem_ports
                } else {
                    self.caps.mem_ports_per_cluster
                }
            }
            ResourceClass::Bus => self.caps.buses,
            ResourceClass::SharedReadPort => self.caps.lp,
            ResourceClass::SharedWritePort => self.caps.sp,
        }
    }

    /// Whether the class conflicts regardless of cluster (one global mask).
    fn class_is_global(&self, class: ResourceClass) -> bool {
        match class {
            ResourceClass::Bus => true,
            ResourceClass::MemPort => self.caps.memory_is_shared(),
            _ => false,
        }
    }

    /// The availability mask of one (class, cluster).
    fn avail_words(&self, class: ResourceClass, cluster: u32) -> &[u64] {
        let w = self.words();
        let block = if self.class_is_global(class) {
            0
        } else {
            cluster as usize
        };
        let m = match class {
            ResourceClass::Fu => &self.fu_avail,
            ResourceClass::MemPort => &self.mem_avail,
            ResourceClass::Bus => &self.bus_avail,
            ResourceClass::SharedReadPort => &self.lp_avail,
            ResourceClass::SharedWritePort => &self.sp_avail,
        };
        &m[block * w..][..w]
    }

    /// Mutable counterpart of [`Mrt::avail_words`].
    fn avail_words_mut(&mut self, class: ResourceClass, cluster: u32) -> &mut [u64] {
        let w = self.words();
        let block = if self.class_is_global(class) {
            0
        } else {
            cluster as usize
        };
        let m = match class {
            ResourceClass::Fu => &mut self.fu_avail,
            ResourceClass::MemPort => &mut self.mem_avail,
            ResourceClass::Bus => &mut self.bus_avail,
            ResourceClass::SharedReadPort => &mut self.lp_avail,
            ResourceClass::SharedWritePort => &mut self.sp_avail,
        };
        &mut m[block * w..][..w]
    }

    fn idx(&self, cycle: i64, cluster: u32) -> usize {
        self.row_of(cycle) * self.caps.clusters as usize + cluster as usize
    }

    /// Number of rows (cycles) an operation of the given kind occupies.
    fn occupancy(kind: OpKind, lat: &OpLatencies) -> u32 {
        lat.occupancy(kind)
    }

    /// Number of FU-slot copies an operation with total occupancy `occ`
    /// needs in relative row `k` of the table (it keeps a unit busy in every
    /// row for `ceil(occ / ii)` overlapped iterations when `occ >= ii`).
    pub(crate) fn fu_copies(&self, occ: u32, k: u32) -> u16 {
        let copies = (occ / self.ii) + u32::from(k < occ % self.ii);
        copies.max(1).min(occ) as u16
    }

    /// Check whether `kind` can be issued at `cycle` on `cluster`.
    pub fn can_place(&self, kind: OpKind, cycle: i64, cluster: u32, lat: &OpLatencies) -> bool {
        match kind.resource_class() {
            ResourceClass::Fu => {
                let occ = Self::occupancy(kind, lat);
                let span = occ.min(self.ii);
                for k in 0..span {
                    let needed = self.fu_copies(occ, k);
                    if self.fu[self.idx(cycle + k as i64, cluster)] + needed
                        > self.caps.fus_per_cluster as u16
                    {
                        return false;
                    }
                }
                true
            }
            ResourceClass::MemPort => {
                if self.caps.memory_is_shared() {
                    self.shared_mem[self.row_of(cycle)] < self.caps.shared_mem_ports as u16
                } else {
                    self.mem[self.idx(cycle, cluster)] < self.caps.mem_ports_per_cluster as u16
                }
            }
            ResourceClass::Bus => {
                self.caps.buses == u32::MAX || self.bus[self.row_of(cycle)] < self.caps.buses as u16
            }
            ResourceClass::SharedReadPort => {
                self.caps.lp == u32::MAX || self.lp[self.idx(cycle, cluster)] < self.caps.lp as u16
            }
            ResourceClass::SharedWritePort => {
                self.caps.sp == u32::MAX || self.sp[self.idx(cycle, cluster)] < self.caps.sp as u16
            }
        }
    }

    /// First cycle inside the inclusive `window` of flat cycles at which
    /// `kind` can be issued on `cluster`, scanning upward (`upward`) or
    /// downward from the window's far end. Bit-identical to
    /// [`Mrt::first_free_row_linear`] — the per-row `can_place` walk it
    /// replaces — but answered as a wrapped find-first/last-set over the
    /// availability-mask words: windows of a full II cost O(words) instead
    /// of O(II · occupancy). Multi-row operations test the shifted mask bits
    /// across their occupancy span; only when the occupancy exceeds the II
    /// (a row then needs more than one unit copy, which one availability bit
    /// cannot express) is a candidate confirmed with `can_place`.
    pub fn first_free_row_in(
        &self,
        kind: OpKind,
        cluster: u32,
        window: (i64, i64),
        upward: bool,
        lat: &OpLatencies,
    ) -> Option<i64> {
        let (mut start, mut end) = window;
        if start > end {
            return None;
        }
        let ii = self.ii as i64;
        // Row availability is II-periodic: a window longer than one II
        // repeats rows, so clamp it to the II cycles nearest the scan origin
        // (the linear walk would find its answer inside them too).
        if end - start + 1 > ii {
            if upward {
                end = start + ii - 1;
            } else {
                start = end - ii + 1;
            }
        }
        let class = kind.resource_class();
        let occ = Self::occupancy(kind, lat);
        let span = occ.min(self.ii);
        let words = self.avail_words(class, cluster);
        // Fast path for unit-occupancy operations: the scan's very first
        // probe row is free on sparsely occupied tables, and one bit test
        // answers it without the word machinery.
        if occ <= 1 {
            let probe = if upward { start } else { end };
            if read_bit(words, self.row_of(probe)) {
                return Some(probe);
            }
        }
        let len = (end - start + 1) as u32;
        let base = self.row_of(start) as u32;
        // The wrapped row range [base, base + len) splits into at most two
        // linear ranges of the mask.
        let seg1 = len.min(self.ii - base);
        let mut from = 0u32; // offset bounds still to scan, [from, to)
        let mut to = len;
        loop {
            let o = if upward {
                let lo = if from < seg1 {
                    first_set_in_range(words, base + from, base + seg1).map(|r| r - base)
                } else {
                    None
                };
                lo.or_else(|| {
                    let a = from.max(seg1);
                    first_set_in_range(words, a - seg1, to - seg1).map(|r| r + seg1)
                })
            } else {
                let hi = if to > seg1 {
                    last_set_in_range(words, from.max(seg1) - seg1, to - seg1).map(|r| r + seg1)
                } else {
                    None
                };
                hi.or_else(|| {
                    last_set_in_range(words, base + from, base + to.min(seg1)).map(|r| r - base)
                })
            }?;
            let t = start + o as i64;
            let fits = if occ <= self.ii {
                // Unit copies in every span row: the shifted bits are exact
                // (single-row operations need no further test at all).
                let row = self.row_of(t) as u32;
                (1..span).all(|k| read_bit(words, ((row + k) % self.ii) as usize))
            } else {
                // `occ > II`: rows need several unit copies, which the
                // one-bit summary cannot express — confirm with the counts.
                self.can_place(kind, t, cluster, lat)
            };
            if fits {
                return Some(t);
            }
            if upward {
                from = o + 1;
            } else {
                to = o;
            }
            if from >= to {
                return None;
            }
        }
    }

    /// The per-row `can_place` walk [`Mrt::first_free_row_in`] replaced,
    /// kept as the equivalence oracle (`tests/slot_equivalence.rs`, the
    /// randomized property tests and `benches/ejection.rs` compare against
    /// it; the scheduler selects it via
    /// [`crate::IterativeScheduler::with_linear_slot_scan`]).
    pub fn first_free_row_linear(
        &self,
        kind: OpKind,
        cluster: u32,
        window: (i64, i64),
        upward: bool,
        lat: &OpLatencies,
    ) -> Option<i64> {
        let (start, end) = window;
        if upward {
            (start..=end).find(|&t| self.can_place(kind, t, cluster, lat))
        } else {
            (start..=end)
                .rev()
                .find(|&t| self.can_place(kind, t, cluster, lat))
        }
    }

    /// Whether `kind` could be issued on a completely empty table — `false`
    /// means the conflict is *structurally unsatisfiable*: no sequence of
    /// ejections can ever free the resource (the canonical case is a
    /// non-pipelined operation whose occupancy needs more unit copies per
    /// row than the class owns, e.g. a 17-cycle divide at II 4 on a 2-FU
    /// cluster). The forced-placement path consults this before starting an
    /// ejection cascade and abandons the attempt immediately instead
    /// (counted in [`crate::SchedulerStats::infeasible_cutoffs`]).
    pub fn placeable_on_empty(&self, kind: OpKind, lat: &OpLatencies) -> bool {
        let class = kind.resource_class();
        let cap = self.unit_cap(class);
        if cap == u32::MAX {
            return true;
        }
        match class {
            ResourceClass::Fu => {
                let occ = Self::occupancy(kind, lat);
                // Peak unit copies any row of the span needs (see
                // `fu_copies`): `ceil(occ / II)`.
                occ.div_ceil(self.ii).min(occ).max(1) <= cap
            }
            _ => cap > 0,
        }
    }

    /// Cross-check every availability bit against the row counts it
    /// summarizes, and each cluster's incremental FU free-slot total against
    /// a recount of its rows; returns a description of the first stale
    /// entry, if any. Run by `validate_store` after every step of the
    /// randomized property tests — a mutation path that touches counts
    /// without going through [`Mrt::adjust`] shows up here.
    pub fn check_masks(&self) -> Option<String> {
        for class in ALL_CLASSES {
            let cap = self.unit_cap(class);
            let blocks = if self.class_is_global(class) {
                1
            } else {
                self.caps.clusters
            };
            for cluster in 0..blocks {
                let words = self.avail_words(class, cluster);
                for row in 0..self.ii {
                    let count = match class {
                        ResourceClass::Fu => {
                            self.fu[row as usize * self.caps.clusters as usize + cluster as usize]
                        }
                        ResourceClass::MemPort => {
                            if self.caps.memory_is_shared() {
                                self.shared_mem[row as usize]
                            } else {
                                self.mem
                                    [row as usize * self.caps.clusters as usize + cluster as usize]
                            }
                        }
                        ResourceClass::Bus => self.bus[row as usize],
                        ResourceClass::SharedReadPort => {
                            self.lp[row as usize * self.caps.clusters as usize + cluster as usize]
                        }
                        ResourceClass::SharedWritePort => {
                            self.sp[row as usize * self.caps.clusters as usize + cluster as usize]
                        }
                    };
                    let expect = row_avail(count, cap);
                    if read_bit(words, row as usize) != expect {
                        return Some(format!(
                            "{class:?} availability bit stale: row {row} cluster {cluster} \
                             (count {count}, capacity {cap})"
                        ));
                    }
                }
                // Rows past the II must stay clear or the word scans would
                // report ghost rows.
                for row in self.ii as usize..self.words() * 64 {
                    if read_bit(words, row) {
                        return Some(format!(
                            "{class:?} ghost availability bit past the II: row {row} cluster {cluster}"
                        ));
                    }
                }
            }
        }
        // The incrementally maintained free-slot totals must match an O(II)
        // recount of the FU rows.
        let cap = self.caps.fus_per_cluster;
        let c = self.caps.clusters as usize;
        for cluster in 0..self.caps.clusters {
            let free: u64 = (0..self.ii as usize)
                .map(|row| cap.saturating_sub(self.fu[row * c + cluster as usize] as u32) as u64)
                .sum();
            if free != self.fu_free[cluster as usize] as u64 {
                return Some(format!(
                    "FU free-slot total drifted from the row counts: cluster {cluster} \
                     (tracked {}, recounted {free})",
                    self.fu_free[cluster as usize]
                ));
            }
        }
        None
    }

    /// Reserve the resources for `kind` issued at `cycle` on `cluster`.
    /// Call only after [`Mrt::can_place`] (or when deliberately forcing an
    /// over-subscription that will be repaired by ejection).
    pub fn place(&mut self, kind: OpKind, cycle: i64, cluster: u32, lat: &OpLatencies) {
        self.adjust(kind, cycle, cluster, lat, 1);
    }

    /// Release the resources previously reserved for an operation.
    pub fn remove(&mut self, kind: OpKind, cycle: i64, cluster: u32, lat: &OpLatencies) {
        self.adjust(kind, cycle, cluster, lat, -1);
    }

    fn adjust(&mut self, kind: OpKind, cycle: i64, cluster: u32, lat: &OpLatencies, delta: i32) {
        match kind.resource_class() {
            ResourceClass::Fu => {
                let occ = Self::occupancy(kind, lat);
                let start = self.row_of(cycle) as u32;
                for k in 0..occ.min(self.ii) {
                    let copies = self.fu_copies(occ, k);
                    self.fu_adjust_row((start + k) % self.ii, copies, cluster, delta);
                }
            }
            class => self.adjust_single(class, cycle, cluster, delta),
        }
    }

    /// One row of an FU reservation: the row count, the incremental
    /// free-slot total and the availability bit all move together. `copies`
    /// is the per-row unit-copy count ([`Mrt::fu_copies`]). Exposed so the
    /// store's reservation walk can interleave these updates with the
    /// slot-index row lists in one pass over the occupancy span.
    pub(crate) fn fu_adjust_row(&mut self, row: u32, copies: u16, cluster: u32, delta: i32) {
        let words = self.words();
        let cap = self.caps.fus_per_cluster as i64;
        let i = row as usize * self.caps.clusters as usize + cluster as usize;
        let old = self.fu[i];
        let new = (old as i32 + delta * copies as i32).max(0) as u16;
        self.fu[i] = new;
        // Free slots clamp at 0 on (transient) over-subscription, mirroring
        // what the O(II) recount would see.
        let free_delta = (cap - new as i64).max(0) - (cap - old as i64).max(0);
        let free = &mut self.fu_free[cluster as usize];
        *free = (*free as i64 + free_delta).max(0) as u32;
        let avail = row_avail(new, self.caps.fus_per_cluster);
        let base = cluster as usize * words;
        write_bit(&mut self.fu_avail[base..][..words], row as usize, avail);
    }

    /// Single-row count+mask adjustment for the non-FU classes (their
    /// reservations pin the class resource only in the issue row; the slot
    /// index still lists the node across its whole occupancy span). The
    /// other half of the fused-transaction surface next to
    /// [`Mrt::fu_adjust_row`].
    pub(crate) fn adjust_single(
        &mut self,
        class: ResourceClass,
        cycle: i64,
        cluster: u32,
        delta: i32,
    ) {
        let apply = |v: &mut u16| {
            let nv = (*v as i32 + delta).max(0);
            *v = nv as u16;
        };
        let words = self.words();
        let block = |cluster: u32| cluster as usize * words;
        match class {
            ResourceClass::Fu => unreachable!("FU reservations go through fu_adjust_row"),
            ResourceClass::MemPort => {
                if self.caps.memory_is_shared() {
                    let r = self.row_of(cycle);
                    apply(&mut self.shared_mem[r]);
                    let avail = row_avail(self.shared_mem[r], self.caps.shared_mem_ports);
                    write_bit(&mut self.mem_avail[..words], r, avail);
                } else {
                    let r = self.row_of(cycle);
                    let i = r * self.caps.clusters as usize + cluster as usize;
                    apply(&mut self.mem[i]);
                    let avail = row_avail(self.mem[i], self.caps.mem_ports_per_cluster);
                    write_bit(&mut self.mem_avail[block(cluster)..][..words], r, avail);
                }
            }
            ResourceClass::Bus => {
                let r = self.row_of(cycle);
                apply(&mut self.bus[r]);
                let avail = row_avail(self.bus[r], self.caps.buses);
                write_bit(&mut self.bus_avail[..words], r, avail);
            }
            ResourceClass::SharedReadPort => {
                let r = self.row_of(cycle);
                let i = r * self.caps.clusters as usize + cluster as usize;
                apply(&mut self.lp[i]);
                let avail = row_avail(self.lp[i], self.caps.lp);
                write_bit(&mut self.lp_avail[block(cluster)..][..words], r, avail);
            }
            ResourceClass::SharedWritePort => {
                let r = self.row_of(cycle);
                let i = r * self.caps.clusters as usize + cluster as usize;
                apply(&mut self.sp[i]);
                let avail = row_avail(self.sp[i], self.caps.sp);
                write_bit(&mut self.sp_avail[block(cluster)..][..words], r, avail);
            }
        }
    }

    /// Number of free FU slots in a cluster across the whole table
    /// (used by the cluster-selection heuristic to balance load).
    /// O(1): maintained incrementally by every place/remove.
    pub fn free_fu_slots(&self, cluster: u32) -> u32 {
        self.fu_free[cluster as usize]
    }

    /// Number of LoadR issues in the given cluster and row (Figure 4 port
    /// profiling measures the peak over rows).
    pub fn loadr_in_row(&self, row: u32, cluster: u32) -> u16 {
        self.lp[row as usize * self.caps.clusters as usize + cluster as usize]
    }

    /// Number of StoreR issues in the given cluster and row.
    pub fn storer_in_row(&self, row: u32, cluster: u32) -> u16 {
        self.sp[row as usize * self.caps.clusters as usize + cluster as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_machine::RfOrganization;

    fn caps(cfg: &str) -> ResourceCaps {
        let m = MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap());
        ResourceCaps::from_machine(&m)
    }

    #[test]
    fn caps_monolithic() {
        let c = caps("S128");
        assert_eq!(c.fus_per_cluster, 8);
        assert_eq!(c.shared_mem_ports, 4);
        assert_eq!(c.clusters, 1);
        assert!(c.memory_is_shared());
    }

    #[test]
    fn caps_clustered() {
        let c = caps("4C32");
        assert_eq!(c.fus_per_cluster, 2);
        assert_eq!(c.mem_ports_per_cluster, 1);
        assert_eq!(c.shared_mem_ports, 0);
        assert_eq!(c.buses, 4);
        assert!(!c.memory_is_shared());
    }

    #[test]
    fn caps_hierarchical() {
        let c = caps("4C16S64");
        assert_eq!(c.fus_per_cluster, 2);
        assert_eq!(c.mem_ports_per_cluster, 0);
        assert_eq!(c.shared_mem_ports, 4);
        assert_eq!(c.lp, 2);
        assert_eq!(c.sp, 1);
        assert!(c.memory_is_shared());
    }

    #[test]
    fn fu_slots_fill_up() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(1, caps("S128"));
        for _ in 0..8 {
            assert!(mrt.can_place(OpKind::FAdd, 0, 0, &lat));
            mrt.place(OpKind::FAdd, 0, 0, &lat);
        }
        assert!(!mrt.can_place(OpKind::FAdd, 0, 0, &lat));
        mrt.remove(OpKind::FAdd, 0, 0, &lat);
        assert!(mrt.can_place(OpKind::FAdd, 0, 0, &lat));
    }

    #[test]
    fn mem_ports_shared_pool() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(1, caps("S128"));
        for _ in 0..4 {
            assert!(mrt.can_place(OpKind::Load, 5, 0, &lat));
            mrt.place(OpKind::Load, 5, 0, &lat);
        }
        assert!(!mrt.can_place(OpKind::Store, 5, 0, &lat));
        // A different row of a larger II is unaffected.
        let mut mrt2 = Mrt::new(2, caps("S128"));
        mrt2.place(OpKind::Load, 0, 0, &lat);
        assert!(mrt2.can_place(OpKind::Load, 1, 0, &lat));
    }

    #[test]
    fn per_cluster_memory_ports_for_clustered_rf() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(1, caps("4C32"));
        assert!(mrt.can_place(OpKind::Load, 0, 0, &lat));
        mrt.place(OpKind::Load, 0, 0, &lat);
        // Cluster 0's single port is now busy, but cluster 1 is free.
        assert!(!mrt.can_place(OpKind::Load, 0, 0, &lat));
        assert!(mrt.can_place(OpKind::Load, 0, 1, &lat));
    }

    #[test]
    fn non_pipelined_div_blocks_multiple_rows() {
        let lat = OpLatencies::paper_baseline();
        // 1 FU per cluster (8C16S16): a 17-cycle divide needs II >= 17 to fit
        // on a single unit; at II = 17 it saturates the cluster's FU.
        let mut small = Mrt::new(4, caps("8C16S16"));
        assert!(
            !small.can_place(OpKind::FDiv, 0, 3, &lat),
            "a 17-cycle divide cannot recur every 4 cycles on one FU"
        );
        let mut mrt = Mrt::new(17, caps("8C16S16"));
        assert!(mrt.can_place(OpKind::FDiv, 0, 3, &lat));
        mrt.place(OpKind::FDiv, 0, 3, &lat);
        for row in 0..17 {
            assert!(!mrt.can_place(OpKind::FAdd, row, 3, &lat), "row {row}");
        }
        // Another cluster is unaffected.
        assert!(mrt.can_place(OpKind::FAdd, 0, 2, &lat));
        let _ = &mut small;
    }

    #[test]
    fn lp_sp_ports_per_cluster() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(1, caps("8C16S16")); // lp = sp = 1
        mrt.place(OpKind::LoadR, 0, 0, &lat);
        assert!(!mrt.can_place(OpKind::LoadR, 0, 0, &lat));
        assert!(mrt.can_place(OpKind::LoadR, 0, 1, &lat));
        mrt.place(OpKind::StoreR, 0, 0, &lat);
        assert!(!mrt.can_place(OpKind::StoreR, 0, 0, &lat));
    }

    #[test]
    fn buses_are_global() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(1, caps("2C64")); // 2 buses
        mrt.place(OpKind::Move, 0, 0, &lat);
        mrt.place(OpKind::Move, 0, 1, &lat);
        assert!(!mrt.can_place(OpKind::Move, 0, 0, &lat));
    }

    #[test]
    fn unbounded_bandwidth() {
        let lat = OpLatencies::paper_baseline();
        let m = MachineConfig::paper_baseline(RfOrganization::parse("4C16S64").unwrap())
            .with_unbounded_bandwidth();
        let mut mrt = Mrt::new(1, ResourceCaps::from_machine(&m));
        for _ in 0..100 {
            assert!(mrt.can_place(OpKind::LoadR, 0, 0, &lat));
            mrt.place(OpKind::LoadR, 0, 0, &lat);
        }
    }

    #[test]
    fn negative_cycles_wrap_correctly() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(4, caps("S128"));
        mrt.place(OpKind::Load, -1, 0, &lat); // row 3
        assert_eq!(mrt.row_of(-1), 3);
        mrt.remove(OpKind::Load, -1, 0, &lat);
        // fully released
        for _ in 0..4 {
            assert!(mrt.can_place(OpKind::Load, 3, 0, &lat));
            mrt.place(OpKind::Load, 3, 0, &lat);
        }
    }

    #[test]
    fn masks_track_place_and_remove() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(3, caps("S128"));
        assert_eq!(mrt.check_masks(), None);
        for _ in 0..8 {
            mrt.place(OpKind::FAdd, 1, 0, &lat);
            assert_eq!(mrt.check_masks(), None);
        }
        // Row 1 is full: the window search must skip it.
        assert_eq!(
            mrt.first_free_row_in(OpKind::FAdd, 0, (1, 5), true, &lat),
            Some(2)
        );
        mrt.remove(OpKind::FAdd, 1, 0, &lat);
        assert_eq!(mrt.check_masks(), None);
        assert_eq!(
            mrt.first_free_row_in(OpKind::FAdd, 0, (1, 5), true, &lat),
            Some(1)
        );
    }

    #[test]
    fn window_search_matches_linear_walk_on_crowded_table() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(70, caps("S128")); // two mask words, 4 shared ports
                                                  // Fill the first 40 rows' memory ports and a stripe near the wrap.
        for row in 0..40 {
            for _ in 0..4 {
                mrt.place(OpKind::Load, row, 0, &lat);
            }
        }
        for row in 66..70 {
            for _ in 0..4 {
                mrt.place(OpKind::Store, row, 0, &lat);
            }
        }
        assert_eq!(mrt.check_masks(), None);
        for window in [(0i64, 69i64), (-10, 45), (35, 104), (60, 80), (68, 68)] {
            for upward in [true, false] {
                assert_eq!(
                    mrt.first_free_row_in(OpKind::Load, 0, window, upward, &lat),
                    mrt.first_free_row_linear(OpKind::Load, 0, window, upward, &lat),
                    "window {window:?} upward {upward}"
                );
            }
        }
        // The upward scan lands on the first non-full row, 40 probes in.
        assert_eq!(
            mrt.first_free_row_in(OpKind::Load, 0, (0, 69), true, &lat),
            Some(40)
        );
        // The downward scan from inside the full wrap stripe walks back.
        assert_eq!(
            mrt.first_free_row_in(OpKind::Load, 0, (0, 68), false, &lat),
            Some(65)
        );
    }

    #[test]
    fn window_search_handles_multi_row_spans() {
        let lat = OpLatencies::paper_baseline();
        // 2 FUs per cluster (4C16S64): a 17-cycle divide at II 20 needs 17
        // consecutive rows with a free unit.
        let mut mrt = Mrt::new(20, caps("4C16S64"));
        mrt.place(OpKind::FDiv, 0, 1, &lat); // rows 0..=16 hold one unit each
        mrt.place(OpKind::FAdd, 0, 1, &lat); // row 0 full
        mrt.place(OpKind::FAdd, 18, 1, &lat);
        mrt.place(OpKind::FAdd, 18, 1, &lat); // row 18 full
        assert_eq!(mrt.check_masks(), None);
        for window in [(0i64, 19i64), (5, 30), (-20, -1)] {
            for upward in [true, false] {
                assert_eq!(
                    mrt.first_free_row_in(OpKind::FDiv, 1, window, upward, &lat),
                    mrt.first_free_row_linear(OpKind::FDiv, 1, window, upward, &lat),
                    "window {window:?} upward {upward}"
                );
            }
        }
        // A second divide needs 17 consecutive rows with a free unit. Row 0
        // and row 18 are full, so the only feasible issue row is 1 (span
        // 1..=17) — starts 2..=17 cross row 18, start 19 wraps onto row 0 —
        // in both scan directions.
        assert_eq!(
            mrt.first_free_row_in(OpKind::FDiv, 1, (0, 19), true, &lat),
            Some(1)
        );
        assert_eq!(
            mrt.first_free_row_in(OpKind::FDiv, 1, (0, 19), false, &lat),
            Some(1)
        );
    }

    #[test]
    fn infeasible_conflicts_detected_on_empty_table() {
        let lat = OpLatencies::paper_baseline();
        // 1 FU per cluster (8C16S16): a 17-cycle divide cannot recur at any
        // II below 17, no matter what is ejected.
        let small = Mrt::new(4, caps("8C16S16"));
        assert!(!small.placeable_on_empty(OpKind::FDiv, &lat));
        assert!(small.placeable_on_empty(OpKind::FAdd, &lat));
        assert!(small.placeable_on_empty(OpKind::Load, &lat));
        let fits = Mrt::new(17, caps("8C16S16"));
        assert!(fits.placeable_on_empty(OpKind::FDiv, &lat));
        // 2 FUs per cluster (4C16S64): two overlapped copies fit at II 9.
        let two = Mrt::new(9, caps("4C16S64"));
        assert!(two.placeable_on_empty(OpKind::FDiv, &lat));
        let one_short = Mrt::new(8, caps("4C16S64"));
        assert!(!one_short.placeable_on_empty(OpKind::FDiv, &lat));
    }

    #[test]
    fn unbounded_classes_always_available() {
        let lat = OpLatencies::paper_baseline();
        let m = MachineConfig::paper_baseline(RfOrganization::parse("4C16S64").unwrap())
            .with_unbounded_bandwidth();
        let mut mrt = Mrt::new(2, ResourceCaps::from_machine(&m));
        for _ in 0..100 {
            mrt.place(OpKind::LoadR, 0, 0, &lat);
        }
        assert_eq!(mrt.check_masks(), None);
        assert_eq!(
            mrt.first_free_row_in(OpKind::LoadR, 0, (0, 1), true, &lat),
            Some(0)
        );
        assert!(mrt.placeable_on_empty(OpKind::LoadR, &lat));
    }

    #[test]
    fn free_fu_slots_counts() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(2, caps("4C32"));
        assert_eq!(mrt.free_fu_slots(0), 4); // 2 FUs x 2 rows
        mrt.place(OpKind::FAdd, 0, 0, &lat);
        assert_eq!(mrt.free_fu_slots(0), 3);
        assert_eq!(mrt.free_fu_slots(1), 4);
    }
}
