//! Trace-driven SIMT GPU performance simulator.
//!
//! The simulator runs a kernel in two phases:
//!
//! 1. **Functional execution** — every team (thread block) runs its body as
//!    real Rust code against simulated device memory through a [`TeamCtx`].
//!    OpenMP-style `parallel_for` regions are executed with a static,
//!    chunk-1 schedule over the team's threads; each warp's memory accesses
//!    are coalesced into 32-byte sector transactions and folded, together
//!    with instruction counts, into a compact *segment trace* (one segment
//!    per warp per parallel phase).
//! 2. **Timing simulation** — the segment traces replay through a fluid-rate
//!    event simulation of the device: per-SM issue slots and device-wide
//!    DRAM bandwidth are shared max-min fairly among resident warps, each
//!    warp additionally capped by its memory-level-parallelism window.
//!    Blocks are placed on SMs wave-by-wave according to the occupancy
//!    calculation; intra-team barriers separate phases.
//!
//! The fidelity target is the one that matters for the ensemble-execution
//! paper: *relative* kernel times as the number of concurrent teams, the
//! thread limit, and the memory behaviour vary. See `DESIGN.md` §4 for the
//! model derivation and its mapping to the paper's observations.

mod ctx;
mod fleet;
mod kernel;
mod replay;
mod report;
mod timing;
mod trace;

pub use ctx::{HostCallHook, KernelError, LaneCtx, SharedBuf, TeamCtx};
pub use fleet::DeviceFleet;
pub use kernel::{
    Gpu, InjectedTeamFault, KernelSpec, LaunchResult, SimError, TeamOutcome, TeamSummary,
};
pub use replay::{Relabel, TeamReplay};
pub use report::SimReport;
pub use timing::{
    simulate_timing, BlockSchedule, PhaseSpan, ScheduleDetail, StallAttribution, StallBuckets,
    TimingInputs, TimingParams, TimingResult, UtilizationSample, UtilizationTimeline,
};
pub use trace::{BlockTrace, MixedSeg, Phase, TeamTrace};
