//! What one ensemble run asks of the round loop: the [`RunPlan`], its
//! recovery policy and the fault source it injects from.

use crate::place::Placement;
use dgc_core::PlanError;
use gpu_sim::InjectedTeamFault;
use host_rpc::RpcFaultHook;

/// Deterministic faults for the round loop to inject. `dgc-fault`'s
/// `FaultPlan` is the implementation; the trait lives here so the loop
/// does not depend on the plan's file format.
pub trait FaultSource: Sync {
    /// Team-level fault for global `instance` on recovery round
    /// `attempt`, given that `concurrent` instances share the kernel.
    fn fault_for(&self, instance: u32, attempt: u32, concurrent: u32) -> Option<InjectedTeamFault>;

    /// Server-side RPC interceptor for one launch of round `attempt`,
    /// where local instance `l` is global instance `globals[l]`. `None`
    /// keeps the launch on the exact no-interceptor path.
    fn rpc_hook(&self, attempt: u32, globals: &[u32]) -> Option<RpcFaultHook>;

    /// Whether `device` dies during round `attempt`: its placed
    /// instances fail that round and re-shard onto the survivors.
    fn device_dies_at(&self, device: u32, attempt: u32) -> bool;

    /// Whether `device` died in a round before `attempt` (and is
    /// therefore out of the placement draw).
    fn device_dead_before(&self, device: u32, attempt: u32) -> bool;
}

/// splitmix64 — tiny, dependency-free, full-period generator. Drives the
/// recovery policy's backoff jitter and `dgc-fault`'s scattered fault
/// plans, so one seed scheme covers both.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How hard to try before giving up on an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Launch attempts per instance (≥ 1; 1 disables retries).
    pub max_attempts: u32,
    /// Simulated wait before the first retry round, seconds.
    pub backoff_base_s: f64,
    /// Exponential growth of the wait per further retry round.
    pub backoff_factor: f64,
    /// Ceiling on a single backoff wait, seconds. The exponential
    /// `base * factor^(attempt-1)` overflows to `inf` within a few dozen
    /// rounds under a large `max_attempts`; the clamp keeps `backoff_s`
    /// and `total_time_s` finite no matter the policy.
    pub backoff_max_s: f64,
    /// Halve the concurrent batch after a round with device OOMs.
    pub oom_split: bool,
    /// Watchdog: per-instance cycle budget for every launch.
    pub instance_cycle_budget: Option<f64>,
    /// Abort all remaining work once one instance exhausts its attempts.
    pub fail_fast: bool,
    /// Opt-in deterministic backoff jitter: `Some(seed)` de-synchronizes
    /// retry storms by scaling each instance's wait with a splitmix64
    /// hash of seed × instance × attempt (factor in `[0.5, 1.0)`). The
    /// default `None` keeps every existing golden bit-identical.
    pub jitter_seed: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_s: 1e-3,
            backoff_factor: 2.0,
            backoff_max_s: 10.0,
            oom_split: true,
            instance_cycle_budget: None,
            fail_fast: false,
            jitter_seed: None,
        }
    }
}

impl RecoveryPolicy {
    /// No recovery at all: one attempt, no OOM split, no watchdog — the
    /// policy of the plain, batched and sharded presets.
    pub fn single_attempt() -> Self {
        Self {
            max_attempts: 1,
            oom_split: false,
            ..Self::default()
        }
    }

    /// Simulated wait before retry round `attempt` (≥ 1):
    /// `base * factor^(attempt-1)`, saturating at
    /// [`RecoveryPolicy::backoff_max_s`]. A non-finite intermediate
    /// (overflowed exponential) also lands on the ceiling, so the wait is
    /// always finite.
    pub fn backoff_wait_s(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(i32::MAX as u32) as i32;
        let raw = self.backoff_base_s * self.backoff_factor.powi(exp);
        if raw.is_finite() {
            raw.min(self.backoff_max_s)
        } else {
            self.backoff_max_s
        }
    }

    /// `instance`'s wait before retry round `attempt` under the opt-in
    /// jitter: the clamped exponential scaled by a deterministic factor
    /// in `[0.5, 1.0)` drawn from splitmix64 over
    /// `jitter_seed × instance × attempt`. Identical policies replay
    /// identical waits; instances sharing a round spread out instead of
    /// retrying in lockstep. With [`RecoveryPolicy::jitter_seed`] unset
    /// this is exactly [`RecoveryPolicy::backoff_wait_s`].
    pub fn backoff_wait_jittered_s(&self, attempt: u32, instance: u32) -> f64 {
        let base = self.backoff_wait_s(attempt);
        let Some(seed) = self.jitter_seed else {
            return base;
        };
        let mut state = seed
            .wrapping_add(u64::from(instance).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        // 53 high-quality bits → uniform in [0, 1).
        let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        base * (0.5 + 0.5 * unit)
    }

    /// The wait before retry round `attempt` of `pending`. Under the
    /// opt-in jitter each pending instance runs its own de-synchronized
    /// timer and the shared retry kernel launches when the last of them
    /// fires, so the round waits for the max — never more than the
    /// un-jittered wait, since jitter factors are < 1.
    pub fn round_wait_s(&self, attempt: u32, pending: &[u32]) -> f64 {
        if self.jitter_seed.is_none() {
            return self.backoff_wait_s(attempt);
        }
        pending
            .iter()
            .map(|&g| self.backoff_wait_jittered_s(attempt, g))
            .fold(0.0, f64::max)
    }
}

/// What recovery did, for the metrics rollup and exit-status decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Recovery rounds executed (1 = no retries were needed).
    pub attempts: u32,
    /// Distinct instances re-launched at least once.
    pub retried: u32,
    /// Instances that failed at least once but ultimately succeeded.
    pub recovered: u32,
    /// Instances still failed (or skipped) at the end.
    pub unrecovered: u32,
    /// Instances never launched or re-launched because of `fail_fast`
    /// (subset of `unrecovered`).
    pub skipped: u32,
    /// Cumulative failed instance-attempts across all rounds.
    pub failures: u32,
    /// Cumulative device-OOM instance-attempts.
    pub oom_failures: u32,
    /// Cumulative watchdog kills.
    pub timeouts: u32,
    /// Times the concurrent batch was halved.
    pub oom_splits: u32,
    /// Concurrent batch size in effect at the end.
    pub final_batch: u32,
    /// Total simulated backoff wait, seconds (part of `total_time_s`).
    pub backoff_s: f64,
}

/// One ensemble run for the round loop ([`crate::run_ensemble_plan`]).
///
/// The paper's single launch and every extension of it are values of
/// this one type:
///
/// | Preset | Fleet | `faults` | `recovery` |
/// |---|---|---|---|
/// | plain | 1 device | `None` | [`RecoveryPolicy::single_attempt`] |
/// | batched | 1 device | `None` | single attempt, `batch: Some(b)` |
/// | resilient | 1 device | any | any policy |
/// | sharded | M devices | `None` | single attempt |
/// | sharded-resilient | M devices | any | any policy |
///
/// [`RunPlan::default`] is the plain preset.
pub struct RunPlan<'a> {
    /// Concurrent instances per kernel launch; `None` launches every
    /// pending instance of a device at once.
    pub batch: Option<u32>,
    /// How each round spreads its pending instances over the live
    /// devices. Irrelevant on a one-device fleet.
    pub placement: Placement,
    /// Faults to inject; `None` injects nothing.
    pub faults: Option<&'a dyn FaultSource>,
    pub recovery: RecoveryPolicy,
    /// Memory-aware packing: per-team free-list heaps, pilot-measured
    /// peak footprints capping placement and every launch at device
    /// capacity. Off keeps the legacy first-fit, OOM-then-halve paths.
    pub mem_aware: bool,
    /// Called after every launch with (instances whose outcome is
    /// final, total instances) — the CLI's `--progress` ETA line.
    pub progress: Option<&'a mut dyn FnMut(u32, u32)>,
}

impl Default for RunPlan<'_> {
    fn default() -> Self {
        Self {
            batch: None,
            placement: Placement::RoundRobin,
            faults: None,
            recovery: RecoveryPolicy::single_attempt(),
            mem_aware: false,
            progress: None,
        }
    }
}

impl RunPlan<'_> {
    /// Reject a plan the loop cannot execute, before anything runs.
    pub(crate) fn validate(&self, instances: u32, devices: usize) -> Result<(), PlanError> {
        if instances == 0 {
            return Err(PlanError::NoInstances);
        }
        if devices == 0 {
            return Err(PlanError::NoDevices);
        }
        if self.batch == Some(0) {
            return Err(PlanError::ZeroBatch);
        }
        if self.recovery.max_attempts == 0 {
            return Err(PlanError::NoAttempts);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_each_unrunnable_field() {
        let ok = RunPlan::default();
        assert_eq!(ok.validate(1, 1), Ok(()));
        assert_eq!(ok.validate(0, 1), Err(PlanError::NoInstances));
        assert_eq!(ok.validate(4, 0), Err(PlanError::NoDevices));
        let zero_batch = RunPlan {
            batch: Some(0),
            ..RunPlan::default()
        };
        assert_eq!(zero_batch.validate(4, 1), Err(PlanError::ZeroBatch));
        let no_attempts = RunPlan {
            recovery: RecoveryPolicy {
                max_attempts: 0,
                ..RecoveryPolicy::default()
            },
            ..RunPlan::default()
        };
        assert_eq!(no_attempts.validate(4, 2), Err(PlanError::NoAttempts));
    }

    #[test]
    fn backoff_grows_exponentially_below_the_clamp() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_wait_s(1), 1e-3);
        assert_eq!(p.backoff_wait_s(2), 2e-3);
        assert_eq!(p.backoff_wait_s(3), 4e-3);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RecoveryPolicy {
            max_attempts: u32::MAX,
            ..RecoveryPolicy::default()
        };
        // factor^(attempt-1) overflows f64 far before u32::MAX rounds;
        // the wait must clamp to the ceiling, never inf or NaN.
        for attempt in [64, 1100, 100_000, u32::MAX] {
            let w = p.backoff_wait_s(attempt);
            assert!(w.is_finite(), "attempt {attempt}: {w}");
            assert_eq!(w, p.backoff_max_s, "attempt {attempt}");
        }
        // A cumulative sum over many rounds stays finite too.
        let total: f64 = (1..10_000).map(|a| p.backoff_wait_s(a)).sum();
        assert!(total.is_finite());
    }

    #[test]
    fn jitter_off_is_the_plain_wait() {
        let p = RecoveryPolicy::default();
        for attempt in 1..6 {
            for instance in [0, 3, 77] {
                assert_eq!(
                    p.backoff_wait_jittered_s(attempt, instance),
                    p.backoff_wait_s(attempt)
                );
            }
            assert_eq!(p.round_wait_s(attempt, &[0, 3]), p.backoff_wait_s(attempt));
        }
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_spread() {
        let p = RecoveryPolicy {
            jitter_seed: Some(42),
            ..RecoveryPolicy::default()
        };
        let q = RecoveryPolicy {
            jitter_seed: Some(42),
            ..RecoveryPolicy::default()
        };
        let mut waits = Vec::new();
        for instance in 0..32 {
            let w = p.backoff_wait_jittered_s(2, instance);
            // Same seed replays the same wait.
            assert_eq!(w, q.backoff_wait_jittered_s(2, instance));
            // Scaled into [base/2, base).
            let base = p.backoff_wait_s(2);
            assert!(w >= base * 0.5 && w < base, "instance {instance}: {w}");
            waits.push(w.to_bits());
        }
        // The whole point: instances do not retry in lockstep.
        waits.sort_unstable();
        waits.dedup();
        assert!(waits.len() > 16, "only {} distinct waits", waits.len());
        // A different seed draws a different schedule.
        let r = RecoveryPolicy {
            jitter_seed: Some(43),
            ..RecoveryPolicy::default()
        };
        assert_ne!(
            p.backoff_wait_jittered_s(2, 5),
            r.backoff_wait_jittered_s(2, 5)
        );
    }

    #[test]
    fn backoff_clamp_is_configurable() {
        let p = RecoveryPolicy {
            backoff_max_s: 3e-3,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff_wait_s(1), 1e-3);
        assert_eq!(p.backoff_wait_s(2), 2e-3);
        assert_eq!(p.backoff_wait_s(3), 3e-3);
        assert_eq!(p.backoff_wait_s(30), 3e-3);
    }
}
