//! The discrete-event execution engine.
//!
//! The engine owns the ground-truth robot configuration and applies one
//! event per [`Simulator::step`]: the adversary chooses which robot acts and
//! how far it may travel; the engine realises the corresponding event of the
//! paper's model (`Look`, `Compute`, `Done`, `Move`, `Stop`, `Collide`,
//! `Arrive`), enforcing
//!
//! * the Look–Compute–Move cycle of Figure 1 (phase transitions are checked
//!   by the model layer),
//! * the liveness conditions (minimum δ-progress per move),
//! * physical validity (motion stops at first contact; discs never overlap).

use std::time::Instant;

use fatrobots_core::{ComputeScratch, Decision, Strategy};
use fatrobots_geometry::{Point, UNIT_RADIUS};
use fatrobots_model::{config, LocalView, Phase, RobotId};
use fatrobots_scheduler::{Adversary, Directive, Event, Liveness, MotionControl, SystemSnapshot};

use crate::metrics::Metrics;
use crate::world::{World, WorldMode};

/// Tolerance for "the robot reached its target" and for contact detection.
const ARRIVAL_TOL: f64 = 1e-9;

/// A cooperative cancellation deadline for [`Simulator::run`] /
/// [`Simulator::run_observed`].
///
/// The default flag has no deadline and never fires; the event loop then
/// never reads the clock. A flag built with [`CancelFlag::at`] — by the
/// sweep's watchdog, say — is checked between events, and once its
/// deadline has passed the loop stops at the next event boundary, returning
/// a [`RunOutcome`] with [`cancelled`](RunOutcome::cancelled) set.
/// Cancellation never tears an event in half: the world state stays valid,
/// exactly as if the event budget had run out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CancelFlag(Option<Instant>);

impl CancelFlag {
    /// A flag that fires once `deadline` has passed.
    pub fn at(deadline: Instant) -> Self {
        CancelFlag(Some(deadline))
    }

    /// Whether the deadline has passed. Always `false` (and clock-free)
    /// without one.
    pub fn is_cancelled(&self) -> bool {
        self.0.is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Event budget: the run stops (unsuccessfully) after this many events.
    pub max_events: usize,
    /// The liveness parameters (δ).
    pub liveness: Liveness,
    /// Record a configuration-level sample every this many events
    /// (0 disables sampling).
    pub sample_every: usize,
    /// How the engine maintains the derived world state: incrementally (the
    /// default [`WorldMode::Sparse`] — cached sparse visibility store,
    /// lazily recomputed hull and predicates) or from scratch on every
    /// query. Both modes produce the identical event stream; scratch mode
    /// exists as the reference behaviour for the determinism suite.
    pub world_mode: WorldMode,
    /// Memoize decisions per robot, keyed on the world's view version (the
    /// default): a Compute event whose robot provably has the same view as
    /// at its previous decision replays that decision in O(1) instead of
    /// running `Strategy::decide_with`. Semantics-preserving for any
    /// [`Strategy`] that reports [`memoizable`](Strategy::memoizable) (the
    /// strategy is a deterministic function of the view; the equivalence
    /// suite pins the event streams). `false` forces every Compute through
    /// the full pipeline — the reference behaviour for those pins.
    pub decision_cache: bool,
    /// Ignored; kept because perfbench names it. Every run goes through
    /// the one serial event loop; the only in-run parallelism is a sparse
    /// world's fan-out of a large row refresh across the host's cores,
    /// which needs no setting and matches the serial refresh exactly.
    pub threads: usize,
    /// Cooperative cancellation deadline checked between events by
    /// [`Simulator::run`] / [`Simulator::run_observed`]. The default has
    /// none and never fires; the sweep's watchdog sets one per run so a
    /// hung run stops at a clean event boundary.
    pub cancel: CancelFlag,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_events: 200_000,
            liveness: Liveness::default(),
            sample_every: 50,
            world_mode: WorldMode::Sparse,
            decision_cache: true,
            threads: 1,
            cancel: CancelFlag::default(),
        }
    }
}

/// Result of a completed (or aborted) run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// `true` when every robot terminated — or, under fault injection, when
    /// every robot either terminated or was permanently crashed by the
    /// adversary ([`Simulator::effectively_terminated`]).
    pub terminated: bool,
    /// `true` when the run terminated *and* the final configuration is
    /// connected and fully visible — the postcondition of Theorem 26. Under
    /// fault injection the criterion is restricted to the live robots
    /// ([`Simulator::is_gathered_live`]).
    pub gathered: bool,
    /// Number of events applied.
    pub events: usize,
    /// `true` when the run was stopped early by its [`CancelFlag`] (the
    /// sweep watchdog, for instance) rather than by termination or the
    /// event budget. A cancelled run is never `terminated` or `gathered`.
    pub cancelled: bool,
    /// The collected metrics.
    pub metrics: Metrics,
}

/// The simulator: ground-truth state plus the pluggable strategy and
/// adversary.
pub struct Simulator {
    strategy: Box<dyn Strategy>,
    adversary: Box<dyn Adversary>,
    config: SimConfig,
    world: World,
    phases: Vec<Phase>,
    /// One snapshot per robot, refilled in place on every Look event (the
    /// contents are only meaningful between a robot's Look and Compute).
    views: Vec<LocalView>,
    decisions: Vec<Option<Decision>>,
    targets: Vec<Option<Point>>,
    metrics: Metrics,
    /// Reusable buffer for the motion integrator's contact candidates.
    contact_buf: Vec<usize>,
    /// Reusable buffer for the Look snapshots' visible-index sets.
    visible_buf: Vec<usize>,
    /// The Compute arena, reused across every decision of the run.
    scratch: ComputeScratch,
    /// `true` when decisions are memoized: the config asked for it and the
    /// strategy declared itself a pure function of the view.
    memoize: bool,
    /// Per-robot memoized decision: the view version it was decided at,
    /// and the decision itself. Replayed on Compute while the robot's view
    /// version is unchanged.
    decision_cache: Vec<Option<(u64, Decision)>>,
    /// Decision-cache telemetry: Compute events answered by replaying the
    /// memoized decision vs. running the Compute pipeline.
    decision_hits: u64,
    decision_misses: u64,
}

impl Simulator {
    /// Creates a simulator for the given initial centers.
    ///
    /// # Panics
    /// Panics if the initial configuration is invalid (two discs overlap) or
    /// empty.
    pub fn new(
        centers: Vec<Point>,
        strategy: Box<dyn Strategy>,
        adversary: Box<dyn Adversary>,
        config: SimConfig,
    ) -> Self {
        assert!(!centers.is_empty(), "a simulation needs at least one robot");
        let n = centers.len();
        let mut world = World::new(centers, config.world_mode);
        assert!(
            world.is_valid(),
            "the initial configuration must not contain overlapping robots"
        );
        let views = (0..n)
            .map(|i| LocalView::new(world.center(i), Vec::new(), n))
            .collect();
        let memoize = config.decision_cache && strategy.memoizable();
        let mut sim = Simulator {
            strategy,
            adversary,
            config,
            world,
            phases: vec![Phase::Wait; n],
            views,
            decisions: vec![None; n],
            targets: vec![None; n],
            metrics: Metrics::default(),
            contact_buf: Vec::new(),
            visible_buf: Vec::new(),
            scratch: ComputeScratch::default(),
            memoize,
            decision_cache: vec![None; n],
            decision_hits: 0,
            decision_misses: 0,
        };
        if sim.config.sample_every > 0 {
            let predicates = sim.world.sample_predicates();
            sim.metrics.record_sample_predicates(predicates);
        }
        sim
    }

    /// Number of robots.
    pub fn len(&self) -> usize {
        self.world.len()
    }

    /// `true` when the simulation has no robots (never constructed so).
    pub fn is_empty(&self) -> bool {
        self.world.is_empty()
    }

    /// Current robot centers.
    pub fn centers(&self) -> &[Point] {
        self.world.centers()
    }

    /// The incremental world state (centers plus cached derived state).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Visibility-cache telemetry: `(hits, misses)` of the world's pairwise
    /// visibility cache over the run so far ([`World::cache_stats`]): a miss
    /// is one pair recompute; a hit is a clean pair found at a row's first
    /// refresh or by a direct probe. A re-Look's reused clean pairs are not
    /// counted, so hits + misses is not the pairs Looked at.
    pub fn visibility_cache_stats(&self) -> (u64, u64) {
        self.world.cache_stats()
    }

    /// Decision-cache telemetry: `(hits, misses)` — Compute events answered
    /// by replaying the memoized decision vs. running the Compute pipeline.
    /// Both are 0 with the cache disabled.
    pub fn decision_cache_stats(&self) -> (u64, u64) {
        (self.decision_hits, self.decision_misses)
    }

    /// Hull-cache telemetry: `(repairs, rebuilds)` of the world's lazily
    /// maintained hull. `repairs` is always 0 (every stale hull is rebuilt)
    /// and kept only because the benchmark harness reads this pair.
    pub fn hull_repair_stats(&self) -> (u64, u64) {
        self.world.hull_repair_stats()
    }

    /// Pair-store telemetry: `(entries, 0)` of the world's visibility pair
    /// store — materialized pair entries, and a slot that is always 0 and
    /// kept only because the benchmark harness reads this pair (see
    /// [`World::pair_store_stats`]).
    pub fn pair_store_stats(&self) -> (u64, u64) {
        self.world.pair_store_stats()
    }

    /// Current robot phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Robot `i`'s most recent Look snapshot. Meaningful from the robot's
    /// Look event until its next Look (the buffer is refilled in place);
    /// in particular it is exactly the view its pending decision was
    /// computed from while that decision is still pending.
    pub fn view_of(&self, i: usize) -> &LocalView {
        &self.views[i]
    }

    /// Robot `i`'s pending decision: `Some` between its Compute event and
    /// the dispatch of the resulting Move/Done. The shadow oracle replays
    /// the paired [`Self::view_of`] snapshot under other kernels and
    /// compares against this value.
    pub fn pending_decision(&self, i: usize) -> Option<Decision> {
        self.decisions[i]
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// `true` when every robot has either terminated or been permanently
    /// crashed by a fault adversary ([`Adversary::permanently_stopped`]).
    /// This is the graceful-degradation termination criterion: a crashed
    /// victim never activates again, so waiting for its Terminate would
    /// spin forever. Without fault injection this is exactly "every robot
    /// has terminated".
    pub fn effectively_terminated(&self) -> bool {
        self.phases
            .iter()
            .enumerate()
            .all(|(i, p)| p.is_terminal() || self.adversary.permanently_stopped(i))
    }

    /// `true` when the current geometric configuration is connected and
    /// fully visible.
    pub fn is_gathered(&mut self) -> bool {
        self.world.is_gathered()
    }

    /// The gathering predicate restricted to the *live* robots: victims a
    /// fault adversary crashed permanently are excluded — they froze where
    /// the fault caught them and cannot be gathered, so under graceful
    /// degradation the survivors' configuration is what counts. Identical
    /// to [`Self::is_gathered`] when no robot crashed.
    pub fn is_gathered_live(&mut self) -> bool {
        let crashed: Vec<usize> = (0..self.len())
            .filter(|&i| self.adversary.permanently_stopped(i))
            .collect();
        if crashed.is_empty() {
            return self.is_gathered();
        }
        let live: Vec<Point> = self
            .world
            .centers()
            .iter()
            .enumerate()
            .filter(|(i, _)| crashed.binary_search(i).is_err())
            .map(|(_, &c)| c)
            .collect();
        config::is_gathered(&live)
    }

    /// The fault-injection counters of the run's adversary (all zero for
    /// fault-free adversaries).
    pub fn fault_stats(&self) -> fatrobots_scheduler::FaultStats {
        self.adversary.fault_stats()
    }

    /// Applies one adversary-chosen event. Returns `None` when every robot
    /// has terminated (no event can be applied).
    pub fn step(&mut self) -> Option<Event> {
        let directive = {
            let snapshot = SystemSnapshot {
                phases: &self.phases,
                centers: self.world.centers(),
                targets: &self.targets,
                delta: self.config.liveness.delta(),
            };
            self.adversary.next(&snapshot)?
        };
        let event = self.apply(directive);
        self.post_event(&event);
        Some(event)
    }

    /// The per-event epilogue: metrics, sampling, and the validity check.
    fn post_event(&mut self, event: &Event) {
        self.metrics.record_event(event);
        if self.config.sample_every > 0 && self.metrics.events % self.config.sample_every == 0 {
            let predicates = self.world.sample_predicates();
            self.metrics.record_sample_predicates(predicates);
        }
        debug_assert!(
            self.world.is_valid(),
            "the engine must never produce overlapping robots"
        );
    }

    /// Runs until every robot terminates or the event budget is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.run_observed(|_, _| {})
    }

    /// [`Self::run`] with a per-event observer: after each applied event the
    /// observer sees the simulator (immutably) and the event. The event
    /// stream is identical to [`Self::run`] — the observer only watches.
    /// This is the hook the shadow oracle uses to re-decide every Compute
    /// event under other kernels while the engine stays on the default path.
    pub fn run_observed(&mut self, mut observer: impl FnMut(&Simulator, &Event)) -> RunOutcome {
        let mut cancelled = false;
        while self.metrics.events < self.config.max_events {
            if self.config.cancel.is_cancelled() {
                cancelled = true;
                break;
            }
            match self.step() {
                Some(event) => observer(self, &event),
                None => break,
            }
        }
        // Record one final sample so the series always covers the end state.
        if self.config.sample_every > 0 {
            let predicates = self.world.sample_predicates();
            self.metrics.record_sample_predicates(predicates);
        }
        // Graceful degradation under fault injection: robots a fault
        // adversary crashed permanently count as (unsuccessfully)
        // terminated, and the gathering criterion is restricted to the
        // live robots. Without faults both reduce to the plain criteria.
        let terminated = !cancelled && self.effectively_terminated();
        RunOutcome {
            terminated,
            gathered: terminated && self.is_gathered_live(),
            events: self.metrics.events,
            cancelled,
            metrics: self.metrics.clone(),
        }
    }

    fn apply(&mut self, directive: Directive) -> Event {
        let RobotId(i) = directive.robot;
        assert!(i < self.len(), "adversary scheduled an unknown robot");
        match self.phases[i] {
            Phase::Terminate => {
                // A well-behaved adversary never schedules a terminated
                // robot; treat it as a harmless no-op Look-less event.
                Event::Stop(RobotId(i))
            }
            Phase::Wait => {
                let mut visible = std::mem::take(&mut self.visible_buf);
                self.world.visible_of_into(i, &mut visible);
                self.views[i].refill_from_visible(self.world.centers(), i, &visible);
                // Stamp *after* the snapshot: `visible_of_into` recomputes
                // every dirty pair of row `i`, and a recompute that flips a
                // pair bumps the version — the stamp must include those
                // bumps for the version⇒identical-view guarantee to hold.
                self.views[i].stamp_version(self.world.view_version(i));
                self.visible_buf = visible;
                self.phases[i] = Phase::Look;
                Event::Look(RobotId(i))
            }
            Phase::Look => {
                // The decision is a pure function of the view (Section
                // 4.1), and an unchanged view version guarantees an
                // unchanged view: replay the memoized decision when the
                // robot's world provably did not change since it last
                // decided, skipping the Compute pipeline entirely.
                let version = self.views[i].version();
                let decision = match self.decision_cache[i] {
                    Some((v, d)) if self.memoize && v == version => {
                        self.decision_hits += 1;
                        d
                    }
                    _ => {
                        let d = self.strategy.decide_with(&self.views[i], &mut self.scratch);
                        if self.memoize {
                            self.decision_misses += 1;
                            self.decision_cache[i] = Some((version, d));
                        }
                        d
                    }
                };
                self.decisions[i] = Some(decision);
                self.phases[i] = Phase::Compute;
                Event::Compute(RobotId(i))
            }
            Phase::Compute => {
                match self.decisions[i].take() {
                    Some(Decision::Terminate) => {
                        self.phases[i] = Phase::Terminate;
                        Event::Done(RobotId(i))
                    }
                    Some(Decision::MoveTo(target)) => {
                        self.targets[i] = Some(target);
                        self.phases[i] = Phase::Move;
                        Event::Move(RobotId(i))
                    }
                    None => {
                        // Defensive: a robot in Compute always has a pending
                        // decision; fall back to an idle move.
                        self.targets[i] = Some(self.world.center(i));
                        self.phases[i] = Phase::Move;
                        Event::Move(RobotId(i))
                    }
                }
            }
            Phase::Move => self.advance_motion(i, directive.motion),
        }
    }

    /// Moves robot `i` along its straight trajectory according to the
    /// adversary's allowance, stopping at the first contact with another
    /// robot, and emits the corresponding motion-ending or `Stop` event.
    fn advance_motion(&mut self, i: usize, motion: MotionControl) -> Event {
        let target = self.targets[i].expect("a robot in Move always has a target");
        let start = self.world.center(i);
        let remaining = start.distance(target);
        if remaining <= ARRIVAL_TOL {
            self.finish_motion(i);
            return Event::Arrive(RobotId(i));
        }
        let requested = match motion {
            MotionControl::Full => remaining,
            MotionControl::Distance(d) => d,
            MotionControl::StopAfterDelta => self.config.liveness.delta(),
        };
        let allowed = self.config.liveness.clamp_travel(requested, remaining);
        let dir = (target - start).normalized();

        // First contact with any other robot along the trajectory. The
        // candidate list is a grid superset of the discs near the swept
        // capsule, in ascending index order — the same scan (and the same
        // lowest-index tie-break) as an all-robots sweep.
        let mut candidates = std::mem::take(&mut self.contact_buf);
        self.world
            .contact_candidates(i, start, dir, allowed, &mut candidates);
        let mut contact: Option<(f64, usize)> = None;
        for &j in &candidates {
            if let Some(t) = first_contact_distance(start, dir, self.world.center(j)) {
                if t <= allowed + ARRIVAL_TOL && contact.map_or(true, |(bt, _)| t < bt) {
                    contact = Some((t, j));
                }
            }
        }
        self.contact_buf = candidates;

        match contact {
            Some((t, j)) => {
                let travel = t.max(0.0);
                self.world.move_robot(i, start + dir * travel);
                self.metrics.record_travel(travel);
                self.finish_motion(i);
                Event::Collide(vec![RobotId(i), RobotId(j)])
            }
            None => {
                self.metrics.record_travel(allowed);
                if allowed >= remaining - ARRIVAL_TOL {
                    self.world.move_robot(i, target);
                    self.finish_motion(i);
                    Event::Arrive(RobotId(i))
                } else {
                    self.world.move_robot(i, start + dir * allowed);
                    self.finish_motion(i);
                    Event::Stop(RobotId(i))
                }
            }
        }
    }

    fn finish_motion(&mut self, i: usize) {
        self.targets[i] = None;
        self.phases[i] = Phase::Wait;
    }
}

/// Tolerance within which two discs are treated as already in contact by the
/// motion integrator (matches the model layer's touch tolerance).
const CONTACT_TOL: f64 = 1e-6;

/// Small gap left between discs when a move is stopped by a contact, so that
/// accumulated floating-point error can never make two discs interpenetrate
/// and freeze each other in place.
const CONTACT_BACKOFF: f64 = 1e-9;

/// Distance along the unit direction `dir` from `start` at which a unit disc
/// travelling that way first becomes tangent to the unit disc at `obstacle`,
/// if it does so while moving forward.
///
/// Discs that already touch (within [`CONTACT_TOL`]) behave like a physical
/// contact: motion with a positive component towards the obstacle is stopped
/// immediately, while tangential or separating motion is free — this is what
/// lets a robot slide around a neighbour it is resting against.
fn first_contact_distance(
    start: Point,
    dir: fatrobots_geometry::Vec2,
    obstacle: Point,
) -> Option<f64> {
    let contact_dist = 2.0 * UNIT_RADIUS;
    let w = obstacle - start;
    let proj = w.dot(dir);
    if w.norm() <= contact_dist + CONTACT_TOL {
        // Already in contact: block only motion that presses into the
        // obstacle.
        return if proj > CONTACT_TOL { Some(0.0) } else { None };
    }
    if proj <= 0.0 {
        return None; // moving away or alongside
    }
    let closest_sq = w.norm_sq() - proj * proj;
    let reach_sq = contact_dist * contact_dist - closest_sq;
    if reach_sq < 0.0 {
        return None; // the trajectory never comes within contact range
    }
    let t = proj - reach_sq.sqrt() - CONTACT_BACKOFF;
    Some(t.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatrobots_core::{AlgorithmParams, LocalAlgorithm};
    use fatrobots_geometry::Vec2;
    use fatrobots_scheduler::RoundRobin;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn paper_sim(centers: Vec<Point>, max_events: usize) -> Simulator {
        let n = centers.len();
        Simulator::new(
            centers,
            Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(n))),
            Box::new(RoundRobin::new()),
            SimConfig {
                max_events,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn first_contact_distance_geometry() {
        let dir = Vec2::new(1.0, 0.0);
        // Head-on: contact when the centers are 2 apart (minus the tiny
        // anti-interpenetration margin, `CONTACT_BACKOFF`).
        assert!(
            (first_contact_distance(p(0.0, 0.0), dir, p(10.0, 0.0)).unwrap() - 8.0).abs() < 1e-6
        );
        // Offset by 2 vertically: contact is never reached (grazing counts as contact at the tangent).
        assert!(first_contact_distance(p(0.0, 0.0), dir, p(10.0, 2.1)).is_none());
        // Moving away: no contact.
        assert!(first_contact_distance(p(0.0, 0.0), dir, p(-5.0, 0.0)).is_none());
    }

    #[test]
    fn look_compute_move_cycle_is_respected() {
        let mut sim = paper_sim(vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 9.0)], 50);
        // The first three events of robot 0 must be Look, then (after the
        // other robots acted) Compute, then Move/Done.
        let e0 = sim.step().unwrap();
        assert_eq!(e0, Event::Look(RobotId(0)));
        assert_eq!(sim.phases()[0], Phase::Look);
        // Other robots take their Look steps.
        let _ = sim.step().unwrap();
        let _ = sim.step().unwrap();
        let e3 = sim.step().unwrap();
        assert_eq!(e3, Event::Compute(RobotId(0)));
        assert_eq!(sim.phases()[0], Phase::Compute);
    }

    #[test]
    fn already_gathered_configuration_terminates_quickly() {
        let centers = vec![p(0.0, 0.0), p(2.0, 0.0), p(1.0, 3.0_f64.sqrt())];
        let mut sim = paper_sim(centers, 100);
        let outcome = sim.run();
        assert!(outcome.terminated);
        assert!(outcome.gathered);
        // Each robot needs exactly Look, Compute, Done.
        assert_eq!(outcome.metrics.dones, 3);
        assert!(outcome.events <= 9);
    }

    #[test]
    fn motion_stops_on_contact_and_preserves_validity() {
        // Two robots approaching head-on must stop tangent, not overlap.
        let mut sim = paper_sim(vec![p(0.0, 0.0), p(10.0, 0.0)], 200);
        let outcome = sim.run();
        assert!(outcome.terminated, "two robots must gather");
        assert!(outcome.gathered);
        let d = sim.centers()[0].distance(sim.centers()[1]);
        assert!(d >= 2.0 - 1e-6, "discs must not overlap (distance {d})");
        assert!(d <= 2.0 + 1e-3, "discs must end up touching (distance {d})");
    }

    #[test]
    fn event_budget_is_respected() {
        let mut sim = paper_sim(vec![p(0.0, 0.0), p(40.0, 0.0), p(20.0, 35.0)], 10);
        let outcome = sim.run();
        assert!(!outcome.terminated);
        assert!(outcome.events <= 10);
    }

    #[test]
    fn a_deadline_cancels_only_once_it_has_passed() {
        let centers = vec![p(0.0, 0.0), p(4.0, 0.0), p(2.0, 3.5)];
        let run_with = |cancel| {
            let mut sim = paper_sim(centers.clone(), 20_000);
            sim.config.cancel = cancel;
            sim.run()
        };
        let expired = run_with(CancelFlag::at(Instant::now()));
        assert!(expired.cancelled);
        assert!(!expired.terminated && !expired.gathered);
        assert_eq!(
            expired.events, 0,
            "an expired deadline stops before the first event"
        );

        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let unbounded = run_with(CancelFlag::default());
        assert!(!unbounded.cancelled && unbounded.events > 0);
        assert_eq!(run_with(CancelFlag::at(far)), unbounded);
    }

    #[test]
    #[should_panic]
    fn overlapping_initial_configuration_is_rejected() {
        let _ = paper_sim(vec![p(0.0, 0.0), p(1.0, 0.0)], 10);
    }

    #[test]
    fn decision_cache_accounts_for_every_compute_event() {
        let centers = vec![p(0.0, 0.0), p(40.0, 0.0), p(20.0, 35.0)];
        let mut sim = paper_sim(centers.clone(), 5_000);
        let outcome = sim.run();
        let (hits, misses) = sim.decision_cache_stats();
        assert_eq!(
            hits + misses,
            outcome.metrics.computes as u64,
            "every Compute event is either a replay or a fresh decision"
        );
        assert!(misses > 0, "the first decision of a robot cannot be a hit");

        // With the cache disabled the counters stay silent and the run is
        // byte-identical (the equivalence the determinism suite pins
        // across the whole experiment matrix).
        let n = centers.len();
        let mut uncached = Simulator::new(
            centers,
            Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(n))),
            Box::new(RoundRobin::new()),
            SimConfig {
                max_events: 5_000,
                decision_cache: false,
                ..SimConfig::default()
            },
        );
        let outcome_uncached = uncached.run();
        assert_eq!(uncached.decision_cache_stats(), (0, 0));
        assert_eq!(outcome, outcome_uncached);
        assert_eq!(sim.centers(), uncached.centers());
    }

    #[test]
    fn run_observed_hands_over_every_applied_event_once_in_order() {
        let centers = vec![p(0.0, 0.0), p(40.0, 0.0), p(20.0, 35.0)];
        let mut observed = paper_sim(centers.clone(), 5_000);
        let mut stream = Vec::new();
        let outcome = observed.run_observed(|_, event| stream.push(event.clone()));
        assert!(outcome.terminated, "the run must end before its budget");
        assert_eq!(stream.len(), outcome.events);

        // In order: a simulator stepped by hand applies the same events.
        let mut stepped = paper_sim(centers.clone(), 5_000);
        let applied: Vec<Event> = std::iter::from_fn(|| stepped.step()).collect();
        assert_eq!(stream, applied);

        // Exactly once: the stream's per-kind counts are the metrics'.
        let mut counted = Metrics::default();
        for event in &stream {
            counted.record_event(event);
        }
        let counters = |m: &Metrics| {
            [
                m.events,
                m.looks,
                m.computes,
                m.moves,
                m.arrivals,
                m.stops,
                m.collisions,
                m.dones,
            ]
        };
        assert_eq!(counters(&counted), counters(&outcome.metrics));

        // Observing changes nothing.
        assert_eq!(paper_sim(centers, 5_000).run(), outcome);
    }

    #[test]
    fn small_convex_systems_gather_end_to_end() {
        // Three and four robots spread out in convex position.
        for centers in [
            vec![p(0.0, 0.0), p(14.0, 0.0), p(7.0, 12.0)],
            vec![p(0.0, 0.0), p(16.0, 0.0), p(16.0, 16.0), p(0.0, 16.0)],
        ] {
            let mut sim = paper_sim(centers, 100_000);
            let outcome = sim.run();
            assert!(outcome.terminated, "run exhausted its budget");
            assert!(outcome.gathered, "robots terminated without gathering");
        }
    }
}
