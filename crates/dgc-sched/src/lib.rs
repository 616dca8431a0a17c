//! Ensemble scheduling (`dgc-sched`): the one driver every run goes
//! through, and the placement and cost model it consults.
//!
//! The paper runs every instance of an ensemble in one kernel launch on
//! one device and tops out when that device's SMs, DRAM bandwidth or
//! memory saturate (§4.3). Batching past the memory wall, retrying
//! failed instances and sharding across **M simulated devices** each
//! only decide which instances go into the next launch, so they are all
//! values of one [`RunPlan`] over one round loop:
//!
//! * [`run_ensemble_plan`] — the round loop: place the pending instances
//!   over the live devices, run each device's shard as capacity-capped
//!   chunks (one thread per device), merge, then retry / split / back
//!   off / fail fast. Results merge into one [`dgc_core::EnsembleResult`]
//!   whose completion time is the **makespan**.
//! * [`RunPlan`], [`RecoveryPolicy`], [`FaultSource`] — what a run asks
//!   for: batch bound, placement, faults (implemented by `dgc-fault`'s
//!   `FaultPlan`), recovery policy, memory-aware packing, progress hook.
//! * [`Placement`] — how instances map to devices: `round-robin` (the
//!   naive baseline), `greedy` (bin-pack by predicted instance time) and
//!   `lpt` (longest-processing-time-first, the classic 4/3-approximation
//!   of makespan scheduling).
//! * [`InstanceCosts`] — the cost model behind the informed policies and
//!   memory-aware packing: per-distinct-argument pilot runs classified
//!   through the `dgc-prof` roofline, scaled to each device by the
//!   resource its bound class actually consumes.

mod cost;
mod place;
mod plan;
mod round;

pub use cost::{mem_cap_take, wave_take, InstanceCost, InstanceCosts};
pub use place::{Placement, PlacementParseError};
pub use plan::{splitmix64, FaultSource, RecoveryPolicy, RecoveryStats, RunPlan};
pub use round::{run_ensemble_plan, run_ensemble_sharded_mem_aware, RunResult};
