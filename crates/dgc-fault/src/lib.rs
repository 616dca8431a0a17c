//! Fault injection for ensemble execution.
//!
//! The paper's ensemble loader packs `NI` application instances into one
//! kernel — which also packs `NI` failure domains into one launch: a trap,
//! a device OOM or a hung team takes the whole ensemble's result quality
//! with it. This crate makes those failures **first-class and
//! deterministic**:
//!
//! * [`FaultPlan`] — a seeded, JSON-serializable description of what to
//!   break: per-team traps, forced device OOM above a concurrency
//!   threshold (the §4.3 Page-Rank memory wall, reproducible on demand),
//!   hung instances, failed or corrupted RPC round trips, whole devices
//!   dying. The same plan against the same workload replays bit-for-bit;
//!   an *empty* plan is pure bookkeeping and perturbs nothing.
//!
//! Recovery lives in `dgc-sched`'s round loop: a plan reaches it as a
//! `dgc_sched::FaultSource` in a `RunPlan`, next to the
//! `dgc_sched::RecoveryPolicy` that retries failed instances with
//! backoff, halves the batch on device OOM, reaps hung instances and
//! re-shards a dead device's instances onto the survivors.

mod plan;

pub use plan::{DeviceDeath, FaultKind, FaultPlan, FaultSpec};
