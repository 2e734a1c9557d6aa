//! Class-aware scheduling: the paper's §5.2 evaluation (Figures 4–5,
//! Table 4).
//!
//! The experiments place nine jobs — three SPECseis96 (CPU), three PostMark
//! (I/O), three NetPIPE (network) — on three virtual machines, three jobs
//! each. There are exactly ten distinct schedules; a class-blind scheduler
//! picks one at random, while the class-aware scheduler uses the
//! application DB's class knowledge to co-locate *different* classes on
//! every machine (schedule 10, `{(SPN),(SPN),(SPN)}`), which the paper
//! measures at 22.11% higher system throughput than the average schedule.
//!
//! * [`schedule`] — job types, machine mixes, and the enumeration of the
//!   ten schedules of Figure 4.
//! * [`contention`] — an analytic throughput predictor over class mixes
//!   (what a scheduler can evaluate without running anything).
//! * [`policy`] — scheduling policies: random (class-blind), class-aware
//!   (max-diversity), and an oracle that simulates every schedule.
//! * [`experiments`] — the drivers that regenerate Figure 4, Figure 5 and
//!   Table 4 as typed rows.
//! * [`dynamic`] — beyond the paper: class-aware placement of a *stream*
//!   of arriving jobs, the setting §4.3's application database exists for.

#![warn(missing_docs)]

pub mod contention;
pub mod dynamic;
pub mod experiments;
pub mod policy;
pub mod schedule;

pub use experiments::{figure4, figure5, table4, Fig4Row, Fig5Row, Table4Result};
pub use policy::{ClassAwarePolicy, OraclePolicy, RandomPolicy, SchedulingPolicy};
pub use schedule::{all_schedules, enumerate_schedules, JobType, MachineMix, Schedule};
