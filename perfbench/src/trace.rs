//! The benchmark's own tracing: host wall-clock spans around its calls
//! into each layer, and a monitor sink that stamps team completions from
//! inside functional execution. Everything stays in memory until the run
//! ends.

use crate::stats;
use dgc_obs::MonitorSink;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One host wall-clock span, in seconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
    /// Device thread for per-device spans, 0 otherwise.
    pub lane: u32,
}

/// Spans of one traced run.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: f64,
        end: f64,
        lane: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
            lane,
        });
        self.spans.len() - 1
    }

    /// Wall time per span name that spans of that name cover with none
    /// of their children. Spans of one name that run at once (one per
    /// device thread) count once, so the values partition wall time.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut own: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            own.entry(s.name)
                .or_default()
                .extend(stats::uncovered((s.start, s.end), kids));
        }
        own.into_iter()
            .map(|(name, iv)| (name, stats::covered(&iv)))
            .collect()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                    s.name,
                    s.lane,
                    s.start * 1e6,
                    (s.end - s.start) * 1e6
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// A [`MonitorSink`] that stamps every `team_done` with the host clock and
/// counts RPC round trips. Shared by the device threads of a sharded
/// launch, which the driver tells apart by the `device` argument.
pub struct StampSink {
    epoch: Instant,
    stamps: Mutex<Vec<(u32, f64)>>,
    rpc_calls: AtomicU64,
    rpc_failures: AtomicU64,
}

impl StampSink {
    pub fn new(epoch: Instant) -> StampSink {
        StampSink {
            epoch,
            stamps: Mutex::new(Vec::new()),
            rpc_calls: AtomicU64::new(0),
            rpc_failures: AtomicU64::new(0),
        }
    }

    /// Team completions since the last call, as `(device, seconds)`.
    pub fn take_stamps(&self) -> Vec<(u32, f64)> {
        std::mem::take(&mut *self.stamps.lock().expect("no stamp holder panics"))
    }

    /// `(calls, failures)` so far.
    pub fn rpc(&self) -> (u64, u64) {
        (
            self.rpc_calls.load(Ordering::Relaxed),
            self.rpc_failures.load(Ordering::Relaxed),
        )
    }
}

impl MonitorSink for StampSink {
    fn team_done(&self, device: u32, _done: u32, _total: u32) {
        let t = self.epoch.elapsed().as_secs_f64();
        self.stamps
            .lock()
            .expect("no stamp holder panics")
            .push((device, t));
    }

    fn rpc_activity(&self, calls: u64, failures: u64) {
        self.rpc_calls.fetch_add(calls, Ordering::Relaxed);
        self.rpc_failures.fetch_add(failures, Ordering::Relaxed);
    }
}
