//! Modulo scheduling for clustered and hierarchical VLIW register files.
//!
//! This crate implements the scheduling technology of the paper:
//!
//! * **MIRS** — modulo scheduling with integrated register spilling for a
//!   monolithic register file (the authors' LCPC'01 scheduler), obtained by
//!   running the iterative scheduler on a single-cluster machine;
//! * **MIRS for clustered RFs** — the MICRO-34 extension with cluster
//!   selection and inter-cluster `Move` operations over buses;
//! * **MIRS_HC** — this paper's scheduler for hierarchical-clustered
//!   register files, which simultaneously performs instruction scheduling,
//!   cluster selection, insertion of `LoadR`/`StoreR` communication
//!   operations, register allocation in both levels of the hierarchy and
//!   spilling (cluster bank → shared bank → memory);
//! * **Baseline36** — a non-iterative (no backtracking) scheduler for
//!   hierarchical non-clustered register files in the spirit of the authors'
//!   MICRO-33 work, used as the comparison point of Table 4.
//!
//! All of them share the same iterative engine ([`scheduler::IterativeScheduler`])
//! configured through [`SchedulerParams`]; the engine follows the skeleton of
//! Figure 5 of the paper (priority list, `Select_Cluster`, communication
//! insertion, `Force_and_Eject` backtracking and a `Budget` that triggers an
//! II increase when exhausted).
//!
//! # Example
//!
//! ```
//! use hcrf_ir::{DdgBuilder, OpKind};
//! use hcrf_machine::{MachineConfig, RfOrganization};
//! use hcrf_sched::schedule_loop;
//!
//! let mut b = DdgBuilder::new("axpy");
//! let lx = b.load(0, 8);
//! let ly = b.load(1, 8);
//! let m = b.op_invariant(OpKind::FMul);
//! let a = b.op(OpKind::FAdd);
//! let s = b.store(2, 8);
//! b.flow(lx, m, 0).flow(m, a, 0).flow(ly, a, 0).flow(a, s, 0);
//! let ddg = b.build();
//!
//! let machine = MachineConfig::paper_baseline(RfOrganization::parse("4C16S64").unwrap());
//! let result = schedule_loop(&ddg, &machine, &Default::default());
//! assert!(!result.failed);
//! assert!(result.ii >= result.mii);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod cluster;
pub mod mrt;
pub mod order;
pub mod port_profile;
pub mod pressure;
pub mod scheduler;
pub mod store;
pub mod types;
pub mod validate;
pub mod workgraph;

pub use arena::{ArenaPool, AttemptArena};
pub use port_profile::{port_requirements, PortRequirement};
pub use pressure::{Pressure, PressureQuery, PressureTracker, ValueLifetime};
pub use scheduler::{
    schedule_loop, schedule_loop_baseline36, IterativeScheduler, PhaseTimings, EJECTION_GUARD_LIMIT,
};
pub use store::{PlacementStore, SlotIndex};
pub use types::{BankAssignment, Placement, ScheduleResult, SchedulerParams, SchedulerStats};
pub use validate::{validate_schedule, validate_store};
