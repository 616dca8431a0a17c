//! Memoized team replay: execute one team per replay class, replay its
//! effects for the identical siblings.
//!
//! Teams of one class run the same program on the same inputs (under
//! ensemble execution: the same argument line). The first team of a class
//! with siblings executes in full and records an ordered [`EffectLog`]:
//! every heap allocation, reservation and free, and every host call with
//! its reply. A later sibling whose preconditions hold performs that log
//! for real under its own tag — against the live heap and the live host
//! hook, so heap statistics, region ids, free-list hits and host-side
//! state come out exactly as if it had executed — and takes the leader's
//! trace with the leader's tag and region bases translated to its own.
//! Why that trace is the one the sibling would have produced is set out
//! in `DESIGN.md` §4.10.

use crate::ctx::TeamRun;
use crate::kernel::TeamOutcome;
use crate::trace::TeamTrace;
use gpu_mem::{Backing, DeviceMemory, DevicePtr, HeapStats};

/// Relabels a recorded host-call payload issued under tag `from` for
/// the team with tag `to`: `relabel(payload, from, to)`.
pub type Relabel<'a> = dyn Fn(&[u8], u32, u32) -> Option<Vec<u8>> + 'a;

/// Replay classes of a launch (see [`crate::KernelSpec::replay`]).
pub struct TeamReplay<'a> {
    /// Replay class of every team, indexed by team id. Teams of one class
    /// must run the same program on the same inputs; only their identity
    /// (team id, tag) and the bases of their own allocations may differ.
    pub class_of_team: &'a [u32],
    /// `None` from it marks a request that cannot be replayed: its reply
    /// depends on host state earlier calls changed.
    pub relabel: &'a Relabel<'a>,
}

/// One recorded side effect of a leader team.
#[derive(Debug)]
enum Effect {
    Alloc {
        len: u64,
        backing: Backing,
        /// The leader's region start.
        start: u64,
        /// Served from the team's free-list ring.
        fast: bool,
    },
    /// Free of the region the `alloc`-th allocation returned.
    Free { alloc: usize },
    HostCall {
        service: u32,
        payload: Vec<u8>,
        reply: Result<Vec<u8>, String>,
    },
}

/// The ordered effect log a leader records while it executes, plus the
/// first reason (if any) the log cannot be replayed.
#[derive(Debug, Default)]
pub(crate) struct EffectLog {
    effects: Vec<Effect>,
    /// Start of each allocation, in allocation order.
    starts: Vec<u64>,
    /// Sum of the aligned lengths of every allocation.
    aligned_bytes: u64,
    /// A free has been logged.
    freed: bool,
    spoiled: Option<&'static str>,
}

impl EffectLog {
    pub(crate) fn spoil(&mut self, why: &'static str) {
        self.spoiled.get_or_insert(why);
    }

    /// Log an allocation of `len` bytes that returned `start`, `aligned`
    /// bytes long.
    pub(crate) fn allocated(
        &mut self,
        free_lists: bool,
        len: u64,
        backing: Backing,
        start: u64,
        aligned: u64,
        fast: bool,
    ) {
        // Without free lists a freed block returns to the global first-fit
        // list, and where a later allocation lands then depends on the
        // heap around the team, which differs between siblings.
        if self.freed && !free_lists {
            self.spoil("allocation after a free without free lists");
        }
        self.aligned_bytes += aligned;
        self.starts.push(start);
        self.effects.push(Effect::Alloc {
            len,
            backing,
            start,
            fast,
        });
    }

    /// Log a successful free of the region at `start`.
    pub(crate) fn freed(&mut self, start: u64) {
        self.freed = true;
        // The latest allocation at `start` is the live one.
        match self.starts.iter().rposition(|&s| s == start) {
            Some(alloc) => self.effects.push(Effect::Free { alloc }),
            None => self.spoil("free of a region the team did not allocate"),
        }
    }

    pub(crate) fn host_call(
        &mut self,
        service: u32,
        payload: &[u8],
        reply: &Result<Vec<u8>, String>,
    ) {
        self.effects.push(Effect::HostCall {
            service,
            payload: payload.to_vec(),
            reply: reply.clone(),
        });
    }
}

/// What a leader's checks need from the moment it started.
pub(crate) struct LeaderStart {
    pub tag: u32,
    /// The launch's foreign-write count.
    pub foreign_writes: u64,
    pub stats: HeapStats,
}

/// A leader's replayable execution: its trace, its outcome and its log.
pub(crate) struct Recording {
    trace: TeamTrace,
    pub code: i32,
    pub shared_bytes: u64,
    tag: u32,
    effects: Vec<Effect>,
    /// Sum of the log's aligned allocation lengths: a heap whose largest
    /// hole holds this much serves every replayed allocation.
    aligned_bytes: u64,
    foreign_writes_at_start: u64,
}

impl Recording {
    /// Accept a finished leader, or say why its execution cannot be
    /// replayed. Every check on the leader runs here, before any sibling
    /// effect; `stats` is the heap's after the leader ran.
    pub fn accept(
        start: LeaderStart,
        outcome: &TeamOutcome,
        run: &mut TeamRun,
        stats: HeapStats,
        relabel: &Relabel<'_>,
    ) -> Result<Recording, &'static str> {
        let TeamOutcome::Return(code) = *outcome else {
            return Err("the leader trapped");
        };
        if run.identity_read {
            return Err("the leader read its identity");
        }
        if run.foreign_writes > 0 {
            return Err("the leader wrote another tag's region");
        }
        if stats.failed_allocations != start.stats.failed_allocations
            || stats.cache_flushes != start.stats.cache_flushes
        {
            return Err("an allocation failed or flushed the free-list rings");
        }
        let log = run.log.take().expect("a leader records");
        if let Some(why) = log.spoiled {
            return Err(why);
        }
        let relabelable = log.effects.iter().all(|e| match e {
            Effect::HostCall { payload, .. } => relabel(payload, start.tag, start.tag).is_some(),
            _ => true,
        });
        if !relabelable {
            return Err("a host call whose reply depends on host state");
        }
        Ok(Recording {
            trace: run.trace.clone(),
            code,
            shared_bytes: run.shared_bytes,
            tag: start.tag,
            effects: log.effects,
            aligned_bytes: log.aligned_bytes,
            foreign_writes_at_start: start.foreign_writes,
        })
    }

    /// Whether the team with `tag` may replay this recording now: nothing
    /// it depends on changed since the leader started, its tag is vacant
    /// like the leader's was, and every allocation will find room.
    pub fn admits(&self, mem: &DeviceMemory, tag: u32, foreign_writes: u64) -> bool {
        foreign_writes == self.foreign_writes_at_start
            && mem.tag_is_vacant(tag)
            && mem.largest_free_block() >= self.aligned_bytes
    }

    /// Perform the log for real as the team with `tag` and return the
    /// leader's trace translated to that team. The caller has checked the
    /// sibling's preconditions; a divergence here is a broken invariant.
    pub fn replay(
        &self,
        mem: &mut DeviceMemory,
        mut host_call: Option<&mut crate::HostCallHook<'_>>,
        tag: u32,
        relabel: &Relabel<'_>,
    ) -> TeamTrace {
        // (leader start, sibling start) of every allocation.
        let mut bases: Vec<(u64, u64)> = Vec::new();
        for effect in &self.effects {
            match effect {
                Effect::Alloc {
                    len,
                    backing,
                    start,
                    fast,
                } => {
                    let recycled = mem.stats().recycled_allocations;
                    let p = mem
                        .alloc_tagged(*len, *backing, tag)
                        .expect("the largest free block holds every replayed allocation");
                    assert_eq!(
                        mem.stats().recycled_allocations > recycled,
                        *fast,
                        "replayed allocation of {len} B changed its free-list class"
                    );
                    bases.push((*start, p.0));
                }
                Effect::Free { alloc } => mem
                    .free(DevicePtr(bases[*alloc].1))
                    .expect("a replayed free targets a replayed allocation"),
                Effect::HostCall {
                    service,
                    payload,
                    reply,
                } => {
                    let payload = relabel(payload, self.tag, tag)
                        .expect("host calls were checked relabelable");
                    let hook = host_call
                        .as_deref_mut()
                        .expect("a recorded host call implies a host hook");
                    let got = hook(*service, &payload);
                    assert_eq!(
                        &got, reply,
                        "replayed host call on service {service} got a different reply"
                    );
                }
            }
        }
        bases.sort_unstable();
        bases.dedup();
        assert!(
            bases.windows(2).all(|w| w[0].0 != w[1].0),
            "a reused leader region mapped to two sibling regions"
        );
        self.translated(tag, &bases)
    }

    /// The leader's trace with its tag replaced by `tag` and its region
    /// starts moved to `bases`, every set re-sorted.
    fn translated(&self, tag: u32, bases: &[(u64, u64)]) -> TeamTrace {
        let mut trace = self.trace.clone();
        for seg in trace.phases.iter_mut().flat_map(|p| &mut p.warps) {
            if seg.region_tags.contains(&self.tag) {
                for t in &mut seg.region_tags {
                    if *t == self.tag {
                        *t = tag;
                    }
                }
                seg.region_tags.sort_unstable();
            }
            let mut moved = false;
            for (start, _) in &mut seg.region_footprints {
                if let Ok(i) = bases.binary_search_by_key(start, |&(from, _)| from) {
                    *start = bases[i].1;
                    moved = true;
                }
            }
            if moved {
                seg.region_footprints.sort_unstable();
            }
        }
        trace
    }
}
