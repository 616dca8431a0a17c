//! `serve_open_loop`: a `dgc_serve::Daemon` in-process on a fresh journal,
//! pumped from one thread the way the `dgc-serve` binary pumps it: apply
//! every job that is due, then run one pending wave. Single-instance jobs
//! arrive as an open-loop Poisson stream at a fixed rate, mixing the four
//! applications over a small pool of argument lines each, so the pilot
//! cache and wave batching both engage.
//!
//! It is the only workload with writes (an fsync per admission and per
//! wave commit) and with queueing, so users see latency rather than
//! throughput. It runs many small waves through the resilient driver: a
//! change that speeds up big batches but adds per-launch cost shows here.

use crate::check::{checksum_matches, reference_checksum};
use crate::hostref::HostRef;
use crate::inputs::{arg_pool, poisson_arrivals, Deck, Rng, APPS};
use crate::layers::Probe;
use crate::{Phase, Workload, MIN_REQUESTS};
use dgc_core::{EnsembleOptions, Loader};
use dgc_sched::InstanceCosts;
use dgc_serve::{Applied, Daemon, JobSpec, ServeConfig, StreamOp};
use gpu_arch::GpuSpec;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Arrival rate of the open loop, well below the daemon's capacity.
pub const RATE_PER_S: f64 = 20.0;
/// p90 latency limit: a job counts toward `within_slo_ratio` when it is
/// committed correctly within this time of falling due.
pub const SLO_S: f64 = 0.25;
/// Argument lines per application.
const LINES_PER_APP: u64 = 3;
/// Size-flag range per application (`APPS` order): around the smoke sizes.
const SIZES: [(u64, u64); 4] = [(60, 72), (60, 72), (4, 10), (500, 530)];

/// What the pump needs from the daemon; the tests substitute a fake.
pub trait Service {
    /// Admit job `job`; `false` when it is refused.
    fn admit(&mut self, job: usize) -> Result<bool, String>;
    /// Form and run one wave; the jobs whose results it committed.
    fn step(&mut self) -> Result<Vec<usize>, String>;
}

/// Seconds since the schedule started.
pub trait Clock {
    fn now(&self) -> f64;
    fn sleep_until(&self, t: f64);
}

/// An idle gap at least this long gets a host-speed reference sample
/// before the sleep: about five nominal samples, so even a slow sample
/// ends well before the next job falls due.
const IDLE_SAMPLE_S: f64 = 5.0 * crate::hostref::NOMINAL_S;

struct WallClock<'a> {
    start: Instant,
    href: RefCell<&'a mut HostRef>,
}

impl Clock for WallClock<'_> {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        if t - self.now() >= IDLE_SAMPLE_S {
            self.href.borrow_mut().sample();
        }
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
}

/// What the pump saw, in clock seconds.
#[derive(Debug, Default)]
pub struct PumpLog {
    /// Per job: when its wave started and when its result was committed.
    pub wave_start: Vec<Option<f64>>,
    pub done: Vec<Option<f64>>,
    pub refused: Vec<bool>,
    /// `(start, end)` of every admission.
    pub admits: Vec<(f64, f64)>,
    /// `(start, end, jobs)` of every wave.
    pub waves: Vec<(f64, f64, usize)>,
    /// How late the generator woke for a job it was idle-waiting on.
    pub lag: Vec<f64>,
    pub end: f64,
}

impl PumpLog {
    /// Latency of every committed job, counted from when it fell due, so a
    /// stalled wave also delays every job queued behind it.
    pub fn latencies(&self, due: &[f64]) -> Vec<(usize, f64)> {
        self.done
            .iter()
            .enumerate()
            .filter_map(|(j, d)| d.map(|d| (j, d - due[j])))
            .collect()
    }

    pub fn busy_s(&self) -> f64 {
        let admit: f64 = self.admits.iter().map(|(a, b)| b - a).sum();
        let waves: f64 = self.waves.iter().map(|(a, b, _)| b - a).sum();
        admit + waves
    }
}

/// Drive `svc` through the schedule `due` (sorted) until every admitted
/// job is committed.
pub fn pump(due: &[f64], svc: &mut impl Service, clock: &impl Clock) -> Result<PumpLog, String> {
    let n = due.len();
    let mut log = PumpLog {
        wave_start: vec![None; n],
        done: vec![None; n],
        refused: vec![false; n],
        ..PumpLog::default()
    };
    let mut next = 0;
    let mut outstanding = 0usize;
    loop {
        while next < n && due[next] <= clock.now() {
            let a0 = clock.now();
            if svc.admit(next)? {
                outstanding += 1;
            } else {
                log.refused[next] = true;
            }
            log.admits.push((a0, clock.now()));
            next += 1;
        }
        if outstanding > 0 {
            let w0 = clock.now();
            let done = svc.step()?;
            let w1 = clock.now();
            if done.is_empty() {
                return Err(format!("{outstanding} job(s) pending but no wave ran"));
            }
            for &j in &done {
                log.wave_start[j] = Some(w0);
                log.done[j] = Some(w1);
            }
            outstanding -= done.len();
            log.waves.push((w0, w1, done.len()));
        } else if next < n {
            clock.sleep_until(due[next]);
            log.lag.push(clock.now() - due[next]);
        } else {
            break;
        }
    }
    log.end = clock.now();
    Ok(log)
}

/// The real daemon behind the pump. Job `i` has id `j<i>`.
struct DaemonService<'a> {
    daemon: Daemon,
    jobs: &'a [JobSpec],
}

impl Service for DaemonService<'_> {
    fn admit(&mut self, job: usize) -> Result<bool, String> {
        let applied = self
            .daemon
            .apply(&StreamOp::Submit(self.jobs[job].clone()))
            .map_err(|e| e.to_string())?;
        Ok(applied == Applied::Admitted)
    }

    fn step(&mut self) -> Result<Vec<usize>, String> {
        if !self.daemon.run_pending_step().map_err(|e| e.to_string())? {
            return Ok(Vec::new());
        }
        let wave = self.daemon.state().waves.last().expect("a wave just ran");
        Ok(wave
            .jobs
            .iter()
            .map(|id| id[1..].parse().expect("job ids are j<index>"))
            .collect())
    }
}

struct Line {
    app: &'static str,
    args: Vec<String>,
    reference: f64,
}

pub struct Serve {
    seed: u64,
    lines: Vec<Line>,
    scratch: PathBuf,
    phases: u64,
    compile_s: f64,
}

impl Workload for Serve {
    fn setup(seed: u64, scratch: &Path) -> Result<Serve, String> {
        let loader = Loader::default();
        let mut compile_s = 0.0;
        for app in APPS {
            let host_app = dgc_apps::app_by_name(app).ok_or(format!("unknown app {app}"))?;
            let t = Instant::now();
            loader
                .compile_app(&host_app)
                .map_err(|e| format!("{app}: {e}"))?;
            compile_s += t.elapsed().as_secs_f64();
        }
        let lines = pool(seed)
            .into_iter()
            .map(|(app, args)| Line {
                app,
                reference: reference_checksum(app, &args),
                args,
            })
            .collect();
        let serve = Serve {
            seed,
            lines,
            scratch: scratch.to_path_buf(),
            phases: 0,
            compile_s,
        };
        // Warm-up on a throwaway daemon: one job per application, so the
        // measured daemon still starts with a cold pilot cache.
        let warm: Vec<JobSpec> = (0..APPS.len())
            .map(|a| serve.job(a, a * LINES_PER_APP as usize))
            .collect();
        let path = serve.scratch.join("warm-up.wal");
        let mut daemon =
            Daemon::create(&path, ServeConfig::default()).map_err(|e| e.to_string())?;
        for job in &warm {
            daemon
                .apply(&StreamOp::Submit(job.clone()))
                .map_err(|e| e.to_string())?;
        }
        daemon.run_to_completion().map_err(|e| e.to_string())?;
        for (a, job) in warm.iter().enumerate() {
            let line = &serve.lines[a * LINES_PER_APP as usize];
            let ok = daemon
                .state()
                .result(&job.id)
                .is_some_and(|d| d.succeeded() && checksum_matches(&d.stdout, line.reference));
            if !ok {
                return Err(format!("warm-up job {} failed", job.id));
            }
        }
        std::fs::remove_file(&path).map_err(|e| e.to_string())?;
        Ok(serve)
    }

    fn compile_s(&self) -> f64 {
        self.compile_s
    }

    fn run(
        &mut self,
        seconds: f64,
        probe: Option<&mut Probe>,
        href: &mut HostRef,
    ) -> Result<Phase, String> {
        let stream = 1000 * (self.phases + 1);
        self.phases += 1;
        // Long enough for 100 jobs, so p90 has ten samples beyond it.
        let window = seconds.max(MIN_REQUESTS as f64 / RATE_PER_S);
        let (due, picks) = schedule(self.seed, stream, window, self.lines.len());
        let jobs: Vec<JobSpec> = picks
            .iter()
            .enumerate()
            .map(|(i, &l)| self.job(i, l))
            .collect();

        let path = self.scratch.join(format!("serve-{stream}.wal"));
        let daemon = Daemon::create(&path, ServeConfig::default()).map_err(|e| e.to_string())?;
        let mut svc = DaemonService {
            daemon,
            jobs: &jobs,
        };
        let offset = probe.as_deref().map_or(0.0, |p| p.now());
        let clock = WallClock {
            start: Instant::now(),
            href: RefCell::new(href),
        };
        let log = pump(&due, &mut svc, &clock)?;

        let mut phase = Phase {
            requests: jobs.len() as u64,
            attempted: jobs.len() as u64,
            wall_s: log.end,
            open_loop: true,
            busy_s: log.busy_s(),
            ..Phase::default()
        };
        let latency: Vec<(usize, f64)> = log.latencies(&due);
        let state = svc.daemon.state();
        for (j, l) in &latency {
            let ok = state.result(&jobs[*j].id).is_some_and(|d| {
                d.succeeded()
                    && d.exit == Some(0)
                    && checksum_matches(&d.stdout, self.lines[picks[*j]].reference)
            });
            if ok {
                phase.verified += 1;
                if *l <= SLO_S {
                    phase.within_slo += 1;
                }
            } else {
                phase.fail(
                    1,
                    format!("job {} failed or printed a wrong checksum", jobs[*j].id),
                );
            }
            phase.latency_s.push(*l);
        }
        let refused = log.refused.iter().filter(|r| **r).count() as u64;
        if refused > 0 {
            phase.fail(refused, format!("{refused} job(s) refused"));
        }
        phase.notes.push(format!(
            "{} jobs at {RATE_PER_S}/s over {window} s in {} waves; simulated times depend on wave membership, so only exit codes and checksums are checked",
            jobs.len(),
            log.waves.len()
        ));

        if let Some(p) = probe {
            let l = &mut p.layers;
            l.admit_s = log.admits.iter().map(|(a, b)| b - a).collect();
            l.wave_s = log.waves.iter().map(|(a, b, _)| b - a).collect();
            l.wave_jobs = log.waves.iter().map(|w| w.2 as f64).collect();
            l.busy_ratio = log.busy_s() / log.end;
            l.queue_wait_s = (0..jobs.len())
                .filter_map(|j| log.wave_start[j].map(|w| w - due[j]))
                .collect();
            l.lag_s = log.lag.clone();
            l.journal_bytes = svc.daemon.journal_bytes();
            for &(a, b) in &log.admits {
                p.tracer
                    .span("serve.admit", None, offset + a, offset + b, 0);
            }
            for &(a, b, _) in &log.waves {
                p.tracer.span("serve.wave", None, offset + a, offset + b, 0);
            }
            // The daemon caches one pilot per distinct line and offers no
            // hook to time it, so time the same pilots from outside.
            let opts = EnsembleOptions {
                num_instances: 1,
                thread_limit: ServeConfig::default().thread_limit,
                ..EnsembleOptions::default()
            };
            let t = Instant::now();
            for line in &self.lines {
                let app = dgc_apps::app_by_name(line.app).expect("pool apps resolve");
                InstanceCosts::estimate(
                    &app,
                    std::slice::from_ref(&line.args),
                    &opts,
                    &GpuSpec::a100_40gb(),
                )
                .map_err(|e| format!("pilot probe: {e}"))?;
            }
            l.pilot_s = t.elapsed().as_secs_f64();
            l.pilots = self.lines.len() as u64;
        }
        drop(svc);
        std::fs::remove_file(&path).map_err(|e| e.to_string())?;
        Ok(phase)
    }
}

/// The seeded pool of job lines: `LINES_PER_APP` per application.
fn pool(seed: u64) -> Vec<(&'static str, Vec<String>)> {
    let mut lines = Vec::new();
    for (a, (&app, &(lo, hi))) in APPS.iter().zip(&SIZES).enumerate() {
        let mut rng = Rng::new(seed, 300 + a as u64);
        lines.extend(
            arg_pool(app, lo, hi, LINES_PER_APP, &mut rng)
                .into_iter()
                .map(|l| (app, l)),
        );
    }
    lines
}

/// The seeded open-loop schedule of one phase (`stream`): each job's due
/// time and the pool line it runs. The mix deals every line equally often.
fn schedule(seed: u64, stream: u64, seconds: f64, lines: usize) -> (Vec<f64>, Vec<usize>) {
    let due = poisson_arrivals(RATE_PER_S, seconds, &mut Rng::new(seed, stream));
    let mut mix = Deck::new(lines, Rng::new(seed, stream + 1));
    let picks = due.iter().map(|_| mix.deal()).collect();
    (due, picks)
}

impl Serve {
    fn job(&self, i: usize, line: usize) -> JobSpec {
        let l = &self.lines[line];
        JobSpec {
            id: format!("j{i}"),
            app: l.app.to_string(),
            args: l.args.clone(),
            deadline_s: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that moves only when told to.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    /// Runs every admitted job in one wave that takes the next listed
    /// duration.
    struct FakeService<'a> {
        clock: &'a FakeClock,
        wave_s: Vec<f64>,
        queued: Vec<usize>,
    }

    impl Service for FakeService<'_> {
        fn admit(&mut self, job: usize) -> Result<bool, String> {
            self.queued.push(job);
            Ok(true)
        }
        fn step(&mut self) -> Result<Vec<usize>, String> {
            let d = self.wave_s.remove(0);
            self.clock.0.set(self.clock.now() + d);
            Ok(std::mem::take(&mut self.queued))
        }
    }

    #[test]
    fn the_seed_alone_fixes_lines_and_schedule() {
        assert_eq!(pool(5), pool(5));
        assert_ne!(pool(5), pool(6));
        let n = pool(5).len();
        assert_eq!(schedule(5, 1000, 4.0, n), schedule(5, 1000, 4.0, n));
        assert_ne!(schedule(5, 1000, 4.0, n), schedule(6, 1000, 4.0, n));
    }

    #[test]
    fn a_stalled_wave_inflates_the_jobs_queued_behind_it() {
        let clock = FakeClock(Cell::new(0.0));
        let mut svc = FakeService {
            clock: &clock,
            wave_s: vec![1.0, 0.01, 0.01],
            queued: Vec::new(),
        };
        let due = [0.0, 0.1, 0.2, 0.3, 2.0];
        let log = pump(&due, &mut svc, &clock).unwrap();
        let lat: Vec<f64> = log.latencies(&due).into_iter().map(|(_, l)| l).collect();
        // Job 0 runs alone in the 1 s stall; jobs 1-3 fell due during it
        // and are admitted only afterwards, yet their latency counts from
        // when they were due, not from admission.
        let want = [1.0, 0.91, 0.81, 0.71, 0.01];
        for (got, want) in lat.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{lat:?}");
        }
        assert_eq!(log.waves.len(), 3);
        // The pump idled once, for job 4, and woke on time.
        assert_eq!(log.lag, vec![0.0]);
        // Queue wait: job 3 waited from 0.3 to the second wave at 1.0.
        assert!((log.wave_start[3].unwrap() - 1.0).abs() < 1e-12);
    }
}
