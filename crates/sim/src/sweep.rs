//! The sweep dispatcher: runs a batch of fully seeded, independent
//! simulations once each and returns their summaries **in input order**.
//!
//! Every experiment in this repo is a bag of deterministic runs, so a sweep
//! is embarrassingly parallel and its output is a function of the specs
//! alone: [`SweepPool::run_supervised`] with any worker count returns
//! exactly `specs.iter().map(experiment::run)`, slot for slot.
//!
//! With `jobs <= 1` a batch runs inline on the calling thread. Otherwise
//! each call spawns `jobs` scoped workers (plain `std::thread`, no external
//! dependencies) that claim slots from one [`AtomicUsize`] and send
//! `(slot, verdict)` back over a channel; the caller settles each verdict
//! as it arrives, so completions are journalled on one thread and no
//! thread outlives the call.
//!
//! ## Supervision
//!
//! A run that panics, or overruns its watchdog deadline, does **not**
//! abort the sweep: it becomes a structured [`SweepFailure`] (spec plus
//! message) and every other run still completes. Each run is attempted
//! exactly once — runs are deterministic, so a second attempt would fail
//! the same way.
//!
//! The watchdog is a deadline, not a thread: each attempt under a
//! [`SupervisionPolicy::watchdog`] budget gets a
//! [`CancelFlag`] holding `start + budget`, and
//! the engine's event loop checks it between events, so cancellation
//! always lands on a clean event boundary.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::engine::CancelFlag;
use crate::experiment::{run_with_hooks, RunSpec, RunStatus, RunSummary};

/// The number of workers to use when the caller has no preference: the
/// available hardware parallelism, or 1 if that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How [`SweepPool::run_supervised`] bounds each run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SupervisionPolicy {
    /// Wall-clock budget per run. When set, a run still going when its
    /// budget expires is cancelled at the next event boundary and becomes a
    /// `watchdog:` failure. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
}

impl SupervisionPolicy {
    /// The same as [`SupervisionPolicy::default`]: no watchdog. Kept for
    /// the benchmark harness, which names it.
    pub fn fail_fast() -> Self {
        SupervisionPolicy::default()
    }
}

/// A run that failed: it panicked or overran its watchdog deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// The spec that failed.
    pub spec: RunSpec,
    /// `panic: …` with the panic message, or `watchdog: …`.
    pub message: String,
}

/// The outcome of a supervised sweep: per-slot summaries (`None` where the
/// run failed) and the structured failures.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One slot per input spec, in input order; `None` marks a failed run.
    pub summaries: Vec<Option<RunSummary>>,
    /// Failures in input-slot order (deterministic regardless of worker
    /// interleaving).
    pub failures: Vec<SweepFailure>,
}

/// How one run ended: its summary (boxed: a summary is a few hundred bytes
/// and rides a channel), or the failure message.
type Verdict = Result<Box<RunSummary>, String>;

/// Runs one spec under the policy's deadline, catching panics.
fn attempt(spec: &RunSpec, policy: &SupervisionPolicy) -> Verdict {
    let cancel = policy.watchdog.map_or_else(CancelFlag::default, |budget| {
        CancelFlag::at(Instant::now() + budget)
    });
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_with_hooks(spec, cancel))) {
        Ok(RunStatus::Completed(summary)) => Ok(summary),
        Ok(RunStatus::Cancelled { events }) => Err(format!(
            "watchdog: cancelled after {events} events (budget {:.3}s)",
            policy.watchdog.unwrap_or_default().as_secs_f64()
        )),
        Err(payload) => Err(format!("panic: {}", panic_message(payload.as_ref()))),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The sweep dispatcher: a worker count. Each
/// [`run_supervised`](SweepPool::run_supervised) call spawns and joins its
/// own scoped workers, so a pool holds no threads between calls.
#[derive(Debug, Clone, Copy)]
pub struct SweepPool {
    jobs: usize,
}

impl SweepPool {
    /// A dispatcher with the given worker count (`0` is treated as 1; one
    /// worker means inline execution on the calling thread).
    pub fn new(jobs: usize) -> Self {
        SweepPool { jobs: jobs.max(1) }
    }

    /// Runs every spec once and returns the summaries in input order
    /// (`None` for failed slots) with the failures in slot order. Never
    /// panics on a failing run.
    ///
    /// `on_completed(slot, summary)` is called on this thread for every run
    /// that completes, before its summary is stored into its slot — so a
    /// journal write there strictly precedes the sweep returning.
    pub fn run_supervised(
        &self,
        specs: &[RunSpec],
        policy: &SupervisionPolicy,
        on_completed: &mut dyn FnMut(usize, &RunSummary),
    ) -> SweepOutcome {
        let mut summaries: Vec<Option<RunSummary>> = vec![None; specs.len()];
        let mut messages: Vec<Option<String>> = vec![None; specs.len()];
        let mut settle = |slot: usize, verdict: Verdict| match verdict {
            Ok(summary) => {
                on_completed(slot, &summary);
                summaries[slot] = Some(*summary);
            }
            Err(message) => messages[slot] = Some(message),
        };
        let workers = self.jobs.min(specs.len());
        if workers <= 1 {
            for (slot, spec) in specs.iter().enumerate() {
                settle(slot, attempt(spec, policy));
            }
        } else {
            let next = AtomicUsize::new(0);
            let (verdict_tx, verdict_rx) = mpsc::channel::<(usize, Verdict)>();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let verdict_tx = verdict_tx.clone();
                    let next = &next;
                    scope.spawn(move || loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(slot) else { break };
                        // A send error means the caller is unwinding; stop.
                        if verdict_tx.send((slot, attempt(spec, policy))).is_err() {
                            break;
                        }
                    });
                }
                // The receive loop ends once every worker has dropped its
                // sender, i.e. once every claimed slot has been settled.
                drop(verdict_tx);
                for (slot, verdict) in verdict_rx {
                    settle(slot, verdict);
                }
            });
        }
        let failures = messages
            .into_iter()
            .zip(specs)
            .filter_map(|(message, &spec)| {
                Some(SweepFailure {
                    spec,
                    message: message?,
                })
            })
            .collect();
        SweepOutcome {
            summaries,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run, AdversaryKind, StrategyKind};
    use crate::init::Shape;

    /// A small but non-trivial spec matrix: two robot counts, three seeds,
    /// two shapes — twelve runs, each short enough for a debug-mode test.
    fn spec_matrix() -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for &n in &[3usize, 4] {
            for seed in 1..=3u64 {
                for &shape in &[Shape::Circle, Shape::Clusters] {
                    specs.push(RunSpec {
                        shape,
                        adversary: AdversaryKind::RoundRobin,
                        strategy: StrategyKind::Paper,
                        max_events: 20_000,
                        ..RunSpec::new(n, seed)
                    });
                }
            }
        }
        specs
    }

    /// A spec that deterministically panics inside the engine (n = 0).
    fn panicking_spec() -> RunSpec {
        RunSpec {
            max_events: 10,
            ..RunSpec::new(0, 1)
        }
    }

    /// The completed summaries of a failure-free sweep.
    fn completed(outcome: SweepOutcome) -> Vec<RunSummary> {
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        outcome
            .summaries
            .into_iter()
            .map(|slot| slot.expect("a failure-free sweep fills every slot"))
            .collect()
    }

    #[test]
    fn every_worker_count_matches_serial_runs_in_input_order() {
        // The sweep's whole contract: summaries element-equal to the
        // serial runs, in input order, for every worker count — including
        // 0 (treated as 1), an empty batch, and more workers than specs.
        let specs = spec_matrix();
        let serial: Vec<RunSummary> = specs.iter().map(run).collect();
        for jobs in [0, 1, 2, 4, 16] {
            let pool = SweepPool::new(jobs);
            let policy = SupervisionPolicy::default();
            let summaries = completed(pool.run_supervised(&specs, &policy, &mut |_, _| {}));
            assert_eq!(summaries, serial, "jobs={jobs}");
            let few = completed(pool.run_supervised(&specs[..2], &policy, &mut |_, _| {}));
            assert_eq!(few, serial[..2], "jobs={jobs}, two specs");
            let none = pool.run_supervised(&[], &policy, &mut |_, _| {});
            assert!(none.summaries.is_empty() && none.failures.is_empty());
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    thread_local! {
        /// Panics raised on this thread since the counting hook went in.
        static PANICS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Installs (once per process) a panic hook that counts panics per
    /// thread before delegating to the previous hook.
    fn count_panics() {
        static INSTALL: std::sync::Once = std::sync::Once::new();
        INSTALL.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                PANICS.with(|count| count.set(count.get() + 1));
                previous(info);
            }));
        });
    }

    #[test]
    fn a_panicking_run_fails_once_and_fails_again_when_resubmitted() {
        // A panicking run (n = 0) becomes one failure row per slot while
        // its healthy neighbour completes. Nothing remembers the failure:
        // resubmitting the batch runs it again, and it fails the same way.
        let good = spec_matrix()[0];
        let specs = vec![panicking_spec(), good, panicking_spec()];
        let policy = SupervisionPolicy::default();
        count_panics();
        for jobs in [1, 2] {
            let pool = SweepPool::new(jobs);
            let panics_before = PANICS.with(std::cell::Cell::get);
            let outcome = pool.run_supervised(&specs, &policy, &mut |_, _| {});
            if jobs == 1 {
                // Inline runs panic on this thread: one panic per failing
                // slot, i.e. each failing run was attempted exactly once.
                assert_eq!(PANICS.with(std::cell::Cell::get) - panics_before, 2);
            }
            assert!(outcome.summaries[0].is_none(), "jobs={jobs}");
            assert!(outcome.summaries[2].is_none(), "jobs={jobs}");
            assert_eq!(outcome.summaries[1], Some(run(&good)), "jobs={jobs}");
            assert_eq!(outcome.failures.len(), 2, "jobs={jobs}");
            for failure in &outcome.failures {
                assert_eq!(failure.spec, panicking_spec());
                assert!(failure.message.starts_with("panic:"), "{}", failure.message);
            }
            let again = pool.run_supervised(&specs, &policy, &mut |_, _| {});
            assert_eq!(
                again, outcome,
                "jobs={jobs}: resubmission fails the same way"
            );
        }
    }

    #[test]
    fn watchdog_cancels_a_long_run() {
        // A run with an enormous event budget under the maximally
        // obstructive adversary takes far longer than the 10 ms budget, so
        // its deadline must cancel it and the sweep must turn the
        // cancellation into a failure row. Two copies keep both workers of
        // the jobs = 2 dispatcher busy.
        let hung = RunSpec {
            adversary: AdversaryKind::StopHappy,
            max_events: 50_000_000,
            ..RunSpec::new(10, 1)
        };
        let policy = SupervisionPolicy {
            watchdog: Some(Duration::from_millis(10)),
        };
        for jobs in [1, 2] {
            let outcome =
                SweepPool::new(jobs).run_supervised(&[hung, hung], &policy, &mut |_, _| {});
            assert_eq!(outcome.summaries, [None, None], "jobs={jobs}");
            assert_eq!(outcome.failures.len(), 2, "jobs={jobs}");
            for failure in &outcome.failures {
                assert!(
                    failure.message.starts_with("watchdog:"),
                    "jobs={jobs}: {}",
                    failure.message
                );
            }
        }
    }

    #[test]
    fn completion_callback_sees_every_completed_slot() {
        // Inline and threaded: the callback fires once per completed run
        // with that run's summary, and never for a failed one.
        let specs = vec![spec_matrix()[0], panicking_spec(), spec_matrix()[1]];
        for jobs in [1, 2] {
            let mut completed: Vec<(usize, RunSummary)> = Vec::new();
            let outcome = SweepPool::new(jobs).run_supervised(
                &specs,
                &SupervisionPolicy::default(),
                &mut |slot, summary| completed.push((slot, summary.clone())),
            );
            completed.sort_by_key(|&(slot, _)| slot);
            let expected: Vec<(usize, RunSummary)> = outcome
                .summaries
                .into_iter()
                .enumerate()
                .filter_map(|(slot, summary)| Some((slot, summary?)))
                .collect();
            assert_eq!(expected.len(), 2, "jobs={jobs}");
            assert_eq!(completed, expected, "jobs={jobs}");
        }
    }
}
