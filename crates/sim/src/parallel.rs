//! Deterministic intra-run parallelism: commutation batching and
//! speculative Compute.
//!
//! The paper's schedule is event-serial, and the engine's equivalence
//! suite pins the event stream bit-for-bit — so a parallel executor may
//! only change *where* work runs, never what is computed. Two mechanisms
//! obey that contract:
//!
//! * **Commutation batching.** The planner pulls directives ahead of time
//!   (against a predicted phase/target snapshot, so the adversary sees
//!   exactly the states it would see serially) and groups consecutive
//!   events that provably commute: Looks whose recompute plans
//!   ([`World::look_plan`]) share no pair — since a robot's plan only ever
//!   contains its own pairs, two batched Looks can conflict only through
//!   the single pair joining them — plus Compute events whose decision is
//!   already known at plan time (a decision-cache hit, or a completed
//!   speculation), dispatches, and terminated-robot no-ops. No robot moves
//!   inside a batch, so the batched Looks' pair kernels run read-only on a
//!   shared [`World`] across worker threads ([`compute_pair_answers`]);
//!   the commit then replays every event **in the original order**,
//!   injecting the precomputed answers ([`World::visible_of_into_with`])
//!   so all bookkeeping — generations, registrations, view versions,
//!   telemetry — lands exactly as a serial run would have left it.
//! * **Speculative Compute.** When a Look stamps a view version the
//!   decision cache does not cover, the snapshot is cloned to a persistent
//!   worker pool ([`SpecPool`]) which pre-runs `Strategy::decide_with`.
//!   The robot's next Compute validates the result against the snapshot's
//!   version stamp (the PR 5 contract: version-stable ⇒ bit-identical
//!   view) and replays it as a decision-cache miss — same decision, same
//!   counters, same cache write as the serial pipeline; a mismatch is
//!   discarded and the decision recomputed inline. Speculation is only
//!   fired for strategies that declare [`Strategy::memoizable`] — a pure
//!   function of the view, so the worker's answer is the answer.
//!
//! Batches end at the first event that does not commute — a Move (it
//! mutates geometry), a Compute whose decision is unknown, a conflicting
//! Look — and that *carry* directive is applied serially right after the
//! batch commits. With `SimConfig::threads <= 1` none of this machinery is
//! engaged and the engine runs its unchanged serial path.
//!
//! [`compute_pair_answers`] also serves the world itself: a sparse row
//! refresh with enough pairs to recompute and no injected answers fans its
//! kernels out over the host's cores and commits them through the same
//! injection path. A batch commit injects its own answers, so the two
//! never nest.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use fatrobots_core::{ComputeScratch, Decision, Strategy};
use fatrobots_geometry::Point;
use fatrobots_model::{LocalView, Phase};

use crate::world::{PairAnswers, PairProbe, World};

/// Below this many planned pair recomputes a batch's kernels run inline on
/// the calling thread: spawning scoped workers costs more than the work.
const PAR_FANOUT_MIN: usize = 16;

/// Upper bound on events per batch, so the planner's per-batch buffers stay
/// bounded even on schedules where thousands of events commute.
pub(crate) const MAX_BATCH_EVENTS: usize = 1024;

/// Computes the answers for `pairs` against a frozen `world`, fanning the
/// kernels out over up to `threads` threads (calling thread included) and
/// leaving the results in `out`. The per-pair computation is
/// [`World::compute_pair_answer`] — read-only and thread-independent — so
/// the result set is identical for every thread count; tiny task lists run
/// inline. Used by the engine's batch commit, by a sparse [`World`]'s own
/// refresh of a large row ([`World::visible_of_into_with`] without injected
/// answers), and by the `scale_smoke` example's batched Look loop.
pub fn compute_pair_answers(
    world: &World,
    pairs: &[(usize, usize)],
    threads: usize,
    out: &mut PairAnswers,
) {
    out.clear();
    if pairs.is_empty() {
        return;
    }
    let workers = threads.clamp(1, pairs.len());
    if workers == 1 || pairs.len() < PAR_FANOUT_MIN {
        let mut probe = PairProbe::default();
        for &(a, b) in pairs {
            out.insert(world.compute_pair_answer(a, b, &mut probe));
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<crate::world::PairAnswer>> =
        pairs.iter().map(|_| OnceLock::new()).collect();
    let worker = || {
        let mut probe = PairProbe::default();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= pairs.len() {
                break;
            }
            let (a, b) = pairs[k];
            let _ = slots[k].set(world.compute_pair_answer(a, b, &mut probe));
        }
    };
    std::thread::scope(|scope| {
        let worker = &worker;
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });
    for slot in slots {
        out.insert(
            slot.into_inner()
                .expect("every claimed task stores its answer"),
        );
    }
}

/// One speculation job: pre-decide `view` (a clone of the robot's Look
/// snapshot) under the shared strategy.
struct SpecJob {
    robot: usize,
    /// The snapshot's version stamp at fire time; the consume validates
    /// against the stamp the Compute event reads.
    version: u64,
    view: LocalView,
    strategy: Arc<dyn Strategy>,
}

/// A finished speculation: robot, fire-time version, and the decision (or
/// the worker's panic payload, re-raised on the main thread at consume).
type SpecOutcome = (usize, u64, std::thread::Result<Decision>);

/// Persistent worker pool for speculative Compute (same channel fan-out as
/// `sweep::SweepPool`): jobs are owned (`'static`), so speculations launched
/// at one event can complete while the engine commits many others.
struct SpecPool {
    /// `Some` while accepting jobs; dropped first so workers drain and exit.
    task_tx: Option<Sender<SpecJob>>,
    result_rx: Receiver<SpecOutcome>,
    workers: Vec<JoinHandle<()>>,
}

impl SpecPool {
    /// Spawns `workers` decision workers, each with its own scratch arena.
    fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (task_tx, task_rx) = mpsc::channel::<SpecJob>();
        let (result_tx, result_rx) = mpsc::channel::<SpecOutcome>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let workers = (0..workers)
            .map(|_| {
                let task_rx = Arc::clone(&task_rx);
                let result_tx = result_tx.clone();
                std::thread::spawn(move || {
                    let mut scratch = ComputeScratch::default();
                    loop {
                        let job = {
                            let rx = task_rx.lock().expect("spec task lock");
                            rx.recv()
                        };
                        let Ok(job) = job else { break };
                        let decision = catch_unwind(AssertUnwindSafe(|| {
                            job.strategy.decide_with(&job.view, &mut scratch)
                        }));
                        if result_tx.send((job.robot, job.version, decision)).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        SpecPool {
            task_tx: Some(task_tx),
            result_rx,
            workers,
        }
    }
}

impl Drop for SpecPool {
    fn drop(&mut self) {
        self.task_tx = None; // close the channel: workers drain and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Where a batched Compute event's decision came from at plan time. The
/// commit replays the same counter and cache bookkeeping the serial arm
/// would have performed for that source.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ComputeSource {
    /// Decision-cache hit (memoized decision at the current version).
    CacheHit(Decision),
    /// Completed speculation validated against this version stamp; the
    /// commit stores it into the decision cache exactly like a serial miss.
    Spec(u64, Decision),
}

/// One event admitted into the current batch, committed in pull order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Planned {
    /// A Look; its recompute plan's pairs are part of the batch's pooled
    /// `plan_pairs`, and the commit looks answers up by pair key.
    Look { robot: usize },
    /// A Compute whose decision was already known when planned.
    Compute { robot: usize, source: ComputeSource },
    /// A dispatch (Compute-phase event): deterministic from the pending
    /// decision, no geometry touched.
    Dispatch { robot: usize },
    /// A directive for a terminated robot: the serial no-op `Stop`.
    Idle { robot: usize },
}

/// The parallel executor's state, owned by the simulator: planner buffers
/// (reused across batches), the speculation pool and slots, and telemetry.
/// A simulator running serially (`threads <= 1`) never engages any of it.
#[derive(Default)]
pub(crate) struct ParState {
    /// Worker-thread budget (calling thread included); `0` until the
    /// parallel run initializes it.
    pub(crate) threads: usize,
    /// Speculation pool, spawned lazily on the first parallel run of a
    /// memoizable strategy.
    pool: Option<SpecPool>,
    /// Version stamp of the speculation in flight per robot (at most one:
    /// a robot Looks again only after consuming its Compute).
    inflight: Vec<Option<u64>>,
    /// Arrived speculations awaiting their robot's Compute.
    ready: Vec<Option<(u64, std::thread::Result<Decision>)>>,
    /// The current batch, in pull order.
    pub(crate) batch: Vec<Planned>,
    /// Flat storage for the batched Looks' recompute plans.
    pub(crate) plan_pairs: Vec<(usize, usize)>,
    /// Predicted phases/targets the adversary is shown during planning:
    /// refreshed from the real arrays at each batch start, updated as
    /// events are admitted, so every directive pull sees exactly the
    /// serial-time snapshot.
    pub(crate) planned_phases: Vec<Phase>,
    pub(crate) planned_targets: Vec<Option<Point>>,
    /// Per-robot batch membership (one event per robot per batch).
    pub(crate) in_batch: Vec<bool>,
    /// Robots whose *Look* is batched — the conflict test's other side.
    pub(crate) look_in_batch: Vec<bool>,
    /// Reused answer set for the batch commits.
    pub(crate) answers: PairAnswers,
    /// Telemetry: committed batches, events committed in multi-event
    /// batches, and speculation consume outcomes.
    pub(crate) batches: u64,
    pub(crate) batched_events: u64,
    pub(crate) spec_hits: u64,
    pub(crate) spec_aborts: u64,
}

impl ParState {
    /// Sizes the per-robot slots and spawns the speculation pool when the
    /// run can use it (`threads > 1` and a memoizable strategy).
    pub(crate) fn prepare(&mut self, n: usize, threads: usize, memoize: bool) {
        self.threads = threads.max(1);
        self.in_batch.resize(n, false);
        self.look_in_batch.resize(n, false);
        self.inflight.resize_with(n, || None);
        self.ready.resize_with(n, || None);
        if memoize && self.threads > 1 && self.pool.is_none() {
            self.pool = Some(SpecPool::new(self.threads - 1));
        }
    }

    /// `true` when speculation is live (pool spawned).
    pub(crate) fn speculating(&self) -> bool {
        self.pool.is_some()
    }

    /// Fires a speculation for `robot` (snapshot `view`, stamped `version`)
    /// unless one is already in flight. No-op without a pool.
    pub(crate) fn fire_spec(
        &mut self,
        robot: usize,
        version: u64,
        view: &LocalView,
        strategy: &Arc<dyn Strategy>,
    ) {
        let Some(pool) = &self.pool else { return };
        debug_assert!(
            self.inflight[robot].is_none(),
            "a robot Looks again only after its Compute consumed the previous speculation"
        );
        if self.inflight[robot].is_some() {
            return;
        }
        let job = SpecJob {
            robot,
            version,
            view: view.clone(),
            strategy: Arc::clone(strategy),
        };
        let tx = pool
            .task_tx
            .as_ref()
            .expect("pool accepts jobs while alive");
        if tx.send(job).is_ok() {
            self.inflight[robot] = Some(version);
        }
    }

    /// Moves every already-arrived speculation result into its ready slot
    /// without blocking.
    pub(crate) fn poll_specs(&mut self) {
        let Some(pool) = &self.pool else { return };
        while let Ok((robot, version, decision)) = pool.result_rx.try_recv() {
            self.inflight[robot] = None;
            self.ready[robot] = Some((version, decision));
        }
    }

    /// Takes `robot`'s speculation if its fire-time stamp matches
    /// `version`, waiting for an in-flight one to arrive. Returns `None`
    /// (counting an abort if a result existed) on a stale stamp, or when
    /// nothing was ever fired. A worker panic resurfaces here.
    pub(crate) fn take_spec(&mut self, robot: usize, version: u64) -> Option<Decision> {
        self.pool.as_ref()?;
        self.poll_specs();
        while self.inflight[robot].is_some() {
            let pool = self.pool.as_ref().expect("pool checked above");
            let (r, v, decision) = pool
                .result_rx
                .recv()
                .expect("speculation workers outlive the run");
            self.inflight[r] = None;
            self.ready[r] = Some((v, decision));
        }
        self.consume_ready(robot, version)
    }

    /// [`Self::take_spec`] without blocking: `None` also when the
    /// speculation has not arrived yet (the caller falls back to the
    /// serial path, which will wait).
    pub(crate) fn try_take_spec(&mut self, robot: usize, version: u64) -> Option<Decision> {
        self.pool.as_ref()?;
        self.poll_specs();
        if self.inflight[robot].is_some() {
            return None;
        }
        self.consume_ready(robot, version)
    }

    /// Validates and consumes the ready slot (one-shot).
    fn consume_ready(&mut self, robot: usize, version: u64) -> Option<Decision> {
        let (v, decision) = self.ready[robot].take()?;
        let decision = match decision {
            Ok(decision) => decision,
            Err(payload) => resume_unwind(payload),
        };
        if v == version {
            self.spec_hits += 1;
            Some(decision)
        } else {
            // Defensive: with the engine's Look→Compute phase machine a
            // stamp can never change between fire and consume, but a stale
            // result must be discarded, not replayed.
            self.spec_aborts += 1;
            None
        }
    }
}
