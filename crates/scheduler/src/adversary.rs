//! Adversary strategies: who acts next, and how far movers get.

use fatrobots_geometry::Point;
use fatrobots_model::{Phase, RobotId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A read-only snapshot of the system handed to the adversary before every
/// step. The adversary is omniscient: it sees phases, positions and even the
/// movers' target points.
#[derive(Debug, Clone, Copy)]
pub struct SystemSnapshot<'a> {
    /// Phase of each robot.
    pub phases: &'a [Phase],
    /// Current center of each robot.
    pub centers: &'a [Point],
    /// Target point of each robot currently in its Move phase.
    pub targets: &'a [Option<Point>],
    /// The liveness distance δ in force (the adversary knows it; the robots
    /// do not).
    pub delta: f64,
}

impl SystemSnapshot<'_> {
    /// Number of robots.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// `true` when the system holds no robots.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The indices of the robots that have not terminated, in ascending
    /// order, without allocating. The adversaries run once per event, so
    /// their robot picks must not put a `Vec` on the per-event path.
    pub fn active_iter(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.len()).filter(|&i| self.phases[i] != Phase::Terminate)
    }

    /// Number of robots that have not terminated.
    pub fn active_count(&self) -> usize {
        self.active_iter().count()
    }

    /// The `k`-th (0-based) non-terminated robot index, if any — the
    /// allocation-free equivalent of `active()[k]`.
    pub fn nth_active(&self, k: usize) -> Option<usize> {
        self.active_iter().nth(k)
    }

    /// Remaining distance to the target for a robot in its Move phase.
    pub fn remaining(&self, i: usize) -> f64 {
        match self.targets[i] {
            Some(t) => self.centers[i].distance(t),
            None => 0.0,
        }
    }
}

/// How far the scheduled robot may travel if it is currently moving. Ignored
/// for robots in any other phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MotionControl {
    /// Let the robot reach its target (unless it hits another robot first).
    Full,
    /// Let the robot advance by the given distance (the engine clamps it to
    /// `[min(δ, remaining), remaining]` per the liveness conditions) and then
    /// stop it.
    Distance(f64),
    /// Let the robot advance exactly the liveness minimum and then stop it —
    /// the most obstructive schedule the adversary may impose.
    StopAfterDelta,
}

/// One adversary decision: which robot acts, and its motion allowance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Directive {
    /// The robot that takes the next step.
    pub robot: RobotId,
    /// Motion allowance if that robot is in its Move phase.
    pub motion: MotionControl,
}

/// Counters reported by the fault-injection adversaries, for telemetry.
/// All zero for the fault-free schedules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Robots permanently crashed by a fired crash-stop fault.
    pub crashed_robots: u64,
    /// Scheduling decisions taken while at least one sleep victim was
    /// starved (denied activation inside its sleep window).
    pub starved_directives: u64,
    /// Directives truncated to the liveness minimum δ by a slow coalition.
    pub truncated_directives: u64,
}

/// An adversary strategy.
///
/// Implementations must satisfy liveness condition 1: as long as some robot
/// has not terminated, [`Adversary::next`] keeps scheduling every active
/// robot infinitely often. The fault-free strategies below do so by
/// construction (round-robin or uniform random over the active robots); the
/// fault injectors deliberately violate it for their victims — [`CrashStop`]
/// permanently, which it must report through
/// [`Adversary::permanently_stopped`] so the engine can settle the run on
/// the survivors instead of waiting forever.
pub trait Adversary {
    /// Choose the next step, or `None` when every robot has terminated.
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive>;

    /// A short human-readable name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// `true` when robot `robot` has permanently stopped activating under
    /// this adversary (a crash-stop fault has fired for it). The engine
    /// excludes such robots from termination detection and restricts the
    /// gathering criterion to the live robots. Fault-free adversaries never
    /// stop a robot permanently.
    fn permanently_stopped(&self, _robot: usize) -> bool {
        false
    }

    /// The fault counters accumulated so far (all zero for fault-free
    /// adversaries).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// Picks `k` distinct victim indices out of `n` robots, seed-deterministic.
/// Requires `k <= n` (callers clamp).
fn pick_victims(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut victims: Vec<usize> = Vec::with_capacity(k);
    while victims.len() < k {
        let v = rng.gen_range(0..n);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    victims.sort_unstable();
    victims
}

/// The friendliest schedule: robots take steps in round-robin order and every
/// move runs to completion. Close to a fully synchronous execution.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates the round-robin adversary.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Adversary for RoundRobin {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        let count = system.active_count();
        if count == 0 {
            return None;
        }
        let pick = system.nth_active(self.cursor % count)?;
        self.cursor = self.cursor.wrapping_add(1);
        Some(Directive {
            robot: RobotId(pick),
            motion: MotionControl::Full,
        })
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// A seeded random asynchronous schedule: a uniformly random active robot
/// acts next; movers advance by a uniformly random fraction of their
/// remaining distance (possibly stopping short).
#[derive(Debug, Clone)]
pub struct RandomAsync {
    rng: StdRng,
}

impl RandomAsync {
    /// Creates the adversary with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomAsync {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for RandomAsync {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        let count = system.active_count();
        if count == 0 {
            return None;
        }
        let pick = system.nth_active(self.rng.gen_range(0..count))?;
        let motion = if self.rng.gen_bool(0.5) {
            MotionControl::Full
        } else {
            let remaining = system.remaining(pick).max(system.delta);
            MotionControl::Distance(self.rng.gen_range(0.0..=remaining))
        };
        Some(Directive {
            robot: RobotId(pick),
            motion,
        })
    }

    fn name(&self) -> &'static str {
        "random-async"
    }
}

/// The maximally obstructive mover schedule: robots act round-robin but every
/// move is stopped after the liveness minimum δ, producing the longest
/// possible executions the liveness conditions allow.
#[derive(Debug, Clone, Default)]
pub struct StopHappy {
    cursor: usize,
}

impl StopHappy {
    /// Creates the stop-happy adversary.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Adversary for StopHappy {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        let count = system.active_count();
        if count == 0 {
            return None;
        }
        let pick = system.nth_active(self.cursor % count)?;
        self.cursor = self.cursor.wrapping_add(1);
        Some(Directive {
            robot: RobotId(pick),
            motion: MotionControl::StopAfterDelta,
        })
    }

    fn name(&self) -> &'static str {
        "stop-happy"
    }
}

/// The schedule behind the paper's *type-1/type-2 bad configurations*: one
/// designated victim robot is always dragged out at δ-speed while every other
/// robot runs at full speed, so the victim keeps acting on stale views long
/// after the rest of the system has moved on.
#[derive(Debug, Clone)]
pub struct SlowRobot {
    victim: Option<usize>,
    cursor: usize,
}

impl SlowRobot {
    /// Creates the adversary with the given victim robot index.
    pub fn new(victim: usize) -> Self {
        SlowRobot {
            victim: Some(victim),
            cursor: 0,
        }
    }

    /// Seed-derived victim for a system of `n` robots. A 1-robot system has
    /// no "rest of the system" for the victim to fall behind, so the
    /// schedule degenerates gracefully to plain full-speed round-robin (no
    /// victim at all) instead of pointlessly dragging the only robot at δ.
    pub fn for_system(seed: u64, n: usize) -> Self {
        SlowRobot {
            victim: (n > 1).then(|| (seed % n as u64) as usize),
            cursor: 0,
        }
    }
}

impl Adversary for SlowRobot {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        let count = system.active_count();
        if count == 0 {
            return None;
        }
        let pick = system.nth_active(self.cursor % count)?;
        self.cursor = self.cursor.wrapping_add(1);
        let motion = if Some(pick) == self.victim {
            MotionControl::StopAfterDelta
        } else {
            MotionControl::Full
        };
        Some(Directive {
            robot: RobotId(pick),
            motion,
        })
    }

    fn name(&self) -> &'static str {
        "slow-robot"
    }
}

/// The crash-stop fault the paper's liveness condition 1 excludes: `k`
/// seed-chosen victims permanently stop activating once a seed-derived
/// number of scheduling decisions has passed. Before the fault fires the
/// schedule is plain full-speed round-robin over all active robots;
/// afterwards the victims are never scheduled again, and
/// [`Adversary::permanently_stopped`] reports them dead so the engine can
/// settle the run on the survivors (live-robot gathering) instead of
/// spinning on a Terminate that will never come.
///
/// `k` is clamped to `n - 1`: at least one robot always survives, and a
/// 1-robot system suffers no fault at all.
#[derive(Debug, Clone)]
pub struct CrashStop {
    victims: Vec<usize>,
    fault_at: u64,
    /// `next` calls taken so far (the fault clock).
    clock: u64,
    /// `true` once a `next` call has actually observed the fault.
    fired: bool,
    cursor: usize,
}

impl CrashStop {
    /// Creates the adversary for a system of `n` robots, crashing `k`
    /// seed-chosen victims after a seed-derived warm-up.
    pub fn new(seed: u64, n: usize, k: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5_85F0_9B1C_37AD);
        let k = k.min(n.saturating_sub(1));
        let victims = if k == 0 {
            Vec::new()
        } else {
            pick_victims(&mut rng, n, k)
        };
        CrashStop {
            victims,
            fault_at: rng.gen_range(24u64..=96),
            clock: 0,
            fired: false,
            cursor: 0,
        }
    }
}

impl Adversary for CrashStop {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        if !self.victims.is_empty() && self.clock >= self.fault_at {
            self.fired = true;
        }
        self.clock += 1;
        let dead = |i: &usize| self.fired && self.victims.binary_search(i).is_ok();
        let count = system.active_iter().filter(|i| !dead(i)).count();
        if count == 0 {
            // Every survivor has terminated (or every robot crashed): the
            // run is as finished as it will ever be.
            return None;
        }
        let pick = system
            .active_iter()
            .filter(|i| !dead(i))
            .nth(self.cursor % count)?;
        self.cursor = self.cursor.wrapping_add(1);
        Some(Directive {
            robot: RobotId(pick),
            motion: MotionControl::Full,
        })
    }

    fn name(&self) -> &'static str {
        "crash-stop"
    }

    fn permanently_stopped(&self, robot: usize) -> bool {
        self.fired && self.victims.binary_search(&robot).is_ok()
    }

    fn fault_stats(&self) -> FaultStats {
        FaultStats {
            crashed_robots: if self.fired {
                self.victims.len() as u64
            } else {
                0
            },
            ..FaultStats::default()
        }
    }
}

/// The starvation fault: `k` seed-chosen victims are denied activation for
/// a long seeded window of scheduling decisions, then resume — an extreme
/// (but finite) violation of activation fairness. Outside the window the
/// schedule is plain full-speed round-robin. If every awake robot
/// terminates while the victims sleep, the victims are woken early, so
/// liveness condition 1 still holds over the whole (finite) schedule and
/// runs stay finite.
///
/// `k` is clamped to `n - 1` so someone is always awake inside the window.
#[derive(Debug, Clone)]
pub struct PersistentSleep {
    victims: Vec<usize>,
    sleep_from: u64,
    sleep_until: u64,
    clock: u64,
    cursor: usize,
    starved: u64,
}

impl PersistentSleep {
    /// Creates the adversary for a system of `n` robots, starving `k`
    /// seed-chosen victims over a seed-derived window.
    pub fn new(seed: u64, n: usize, k: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51EE_7B0A_2D4C_9E11);
        let k = k.min(n.saturating_sub(1));
        let victims = if k == 0 {
            Vec::new()
        } else {
            pick_victims(&mut rng, n, k)
        };
        let sleep_from = rng.gen_range(16u64..=64);
        let duration = rng.gen_range(1_500u64..=4_000);
        PersistentSleep {
            victims,
            sleep_from,
            sleep_until: sleep_from + duration,
            clock: 0,
            cursor: 0,
            starved: 0,
        }
    }
}

impl Adversary for PersistentSleep {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        let now = self.clock;
        self.clock += 1;
        let in_window =
            !self.victims.is_empty() && now >= self.sleep_from && now < self.sleep_until;
        if in_window {
            let awake = |i: &usize| self.victims.binary_search(i).is_err();
            let count = system.active_iter().filter(|i| awake(i)).count();
            if count > 0 {
                let pick = system
                    .active_iter()
                    .filter(|i| awake(i))
                    .nth(self.cursor % count)?;
                self.cursor = self.cursor.wrapping_add(1);
                self.starved += 1;
                return Some(Directive {
                    robot: RobotId(pick),
                    motion: MotionControl::Full,
                });
            }
            // Every awake robot has terminated: end the window now so the
            // sleeping victims are scheduled again and the run stays
            // finite.
            self.sleep_until = now;
        }
        let count = system.active_count();
        if count == 0 {
            return None;
        }
        let pick = system.nth_active(self.cursor % count)?;
        self.cursor = self.cursor.wrapping_add(1);
        Some(Directive {
            robot: RobotId(pick),
            motion: MotionControl::Full,
        })
    }

    fn name(&self) -> &'static str {
        "persistent-sleep"
    }

    fn fault_stats(&self) -> FaultStats {
        FaultStats {
            starved_directives: self.starved,
            ..FaultStats::default()
        }
    }
}

/// The coalition slowdown fault: a `k`-robot seed-chosen coalition is
/// *always* truncated to the liveness minimum δ while everyone else runs at
/// full speed — [`SlowRobot`] generalised from one victim to a coalition.
/// Legal under both liveness conditions (every robot keeps activating and
/// every move covers δ), so the paper's guarantee nominally still applies;
/// the fuzzer hunts the configurations where it practically does not.
///
/// `k` is clamped to `n`.
#[derive(Debug, Clone)]
pub struct SlowCoalition {
    victims: Vec<usize>,
    cursor: usize,
    truncated: u64,
}

impl SlowCoalition {
    /// Creates the adversary for a system of `n` robots with a `k`-robot
    /// seed-chosen coalition.
    pub fn new(seed: u64, n: usize, k: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C0A_11A7_66B2_D3F5);
        let k = k.min(n);
        let victims = if k == 0 {
            Vec::new()
        } else {
            pick_victims(&mut rng, n, k)
        };
        SlowCoalition {
            victims,
            cursor: 0,
            truncated: 0,
        }
    }
}

impl Adversary for SlowCoalition {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        let count = system.active_count();
        if count == 0 {
            return None;
        }
        let pick = system.nth_active(self.cursor % count)?;
        self.cursor = self.cursor.wrapping_add(1);
        let motion = if self.victims.binary_search(&pick).is_ok() {
            self.truncated += 1;
            MotionControl::StopAfterDelta
        } else {
            MotionControl::Full
        };
        Some(Directive {
            robot: RobotId(pick),
            motion,
        })
    }

    fn name(&self) -> &'static str {
        "slow-coalition"
    }

    fn fault_stats(&self) -> FaultStats {
        FaultStats {
            truncated_directives: self.truncated,
            ..FaultStats::default()
        }
    }
}

/// A schedule that tries to make moving robots meet: whenever at least two
/// robots are in their Move phase, it schedules the pair whose current
/// positions are closest (full speed, so they run into each other if their
/// trajectories intersect); otherwise it behaves like round-robin.
#[derive(Debug, Clone, Default)]
pub struct CollisionSeeker {
    cursor: usize,
}

impl CollisionSeeker {
    /// Creates the collision-seeking adversary.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Adversary for CollisionSeeker {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        let count = system.active_count();
        if count == 0 {
            return None;
        }
        let movers = || {
            system
                .active_iter()
                .filter(|&i| system.phases[i] == Phase::Move)
        };
        if movers().count() >= 2 {
            // Schedule the mover closest to another mover.
            let first = movers().next().expect("at least two movers");
            let mut best = (first, f64::INFINITY);
            for i in movers() {
                for j in movers() {
                    if i != j {
                        let d = system.centers[i].distance(system.centers[j]);
                        if d < best.1 {
                            best = (i, d);
                        }
                    }
                }
            }
            return Some(Directive {
                robot: RobotId(best.0),
                motion: MotionControl::Full,
            });
        }
        let pick = system.nth_active(self.cursor % count)?;
        self.cursor = self.cursor.wrapping_add(1);
        Some(Directive {
            robot: RobotId(pick),
            motion: MotionControl::Full,
        })
    }

    fn name(&self) -> &'static str {
        "collision-seeker"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot<'a>(
        phases: &'a [Phase],
        centers: &'a [Point],
        targets: &'a [Option<Point>],
    ) -> SystemSnapshot<'a> {
        SystemSnapshot {
            phases,
            centers,
            targets,
            delta: 0.01,
        }
    }

    fn three_waiting() -> (Vec<Phase>, Vec<Point>, Vec<Option<Point>>) {
        (
            vec![Phase::Wait; 3],
            vec![
                Point::new(0.0, 0.0),
                Point::new(5.0, 0.0),
                Point::new(10.0, 0.0),
            ],
            vec![None; 3],
        )
    }

    #[test]
    fn round_robin_cycles_over_active_robots() {
        let (phases, centers, targets) = three_waiting();
        let snap = snapshot(&phases, &centers, &targets);
        let mut adv = RoundRobin::new();
        let picks: Vec<usize> = (0..6).map(|_| adv.next(&snap).unwrap().robot.0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn terminated_robots_are_never_scheduled() {
        let (mut phases, centers, targets) = three_waiting();
        phases[1] = Phase::Terminate;
        let snap = snapshot(&phases, &centers, &targets);
        let mut adv = RoundRobin::new();
        for _ in 0..10 {
            assert_ne!(adv.next(&snap).unwrap().robot.0, 1);
        }
    }

    #[test]
    fn all_terminated_yields_none() {
        let phases = vec![Phase::Terminate; 2];
        let centers = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let targets = vec![None, None];
        let snap = snapshot(&phases, &centers, &targets);
        assert!(RoundRobin::new().next(&snap).is_none());
        assert!(RandomAsync::new(7).next(&snap).is_none());
        assert!(StopHappy::new().next(&snap).is_none());
        assert!(SlowRobot::new(0).next(&snap).is_none());
        assert!(CollisionSeeker::new().next(&snap).is_none());
    }

    #[test]
    fn random_async_is_deterministic_per_seed_and_fair() {
        let (phases, centers, targets) = three_waiting();
        let snap = snapshot(&phases, &centers, &targets);
        let picks = |seed: u64| -> Vec<usize> {
            let mut adv = RandomAsync::new(seed);
            (0..50).map(|_| adv.next(&snap).unwrap().robot.0).collect()
        };
        assert_eq!(picks(42), picks(42));
        let p = picks(42);
        for i in 0..3 {
            assert!(p.contains(&i), "robot {i} must be scheduled eventually");
        }
    }

    #[test]
    fn stop_happy_always_limits_motion() {
        let (phases, centers, targets) = three_waiting();
        let snap = snapshot(&phases, &centers, &targets);
        let mut adv = StopHappy::new();
        for _ in 0..5 {
            assert_eq!(
                adv.next(&snap).unwrap().motion,
                MotionControl::StopAfterDelta
            );
        }
    }

    #[test]
    fn slow_robot_only_slows_the_victim() {
        let (phases, centers, targets) = three_waiting();
        let snap = snapshot(&phases, &centers, &targets);
        let mut adv = SlowRobot::new(2);
        for _ in 0..9 {
            let d = adv.next(&snap).unwrap();
            if d.robot.0 == 2 {
                assert_eq!(d.motion, MotionControl::StopAfterDelta);
            } else {
                assert_eq!(d.motion, MotionControl::Full);
            }
        }
    }

    #[test]
    fn collision_seeker_prefers_the_closest_pair_of_movers() {
        let phases = vec![Phase::Move, Phase::Move, Phase::Move, Phase::Wait];
        let centers = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(100.0, 0.0),
        ];
        let targets = vec![
            Some(Point::new(1.0, 0.0)),
            Some(Point::new(2.0, 0.0)),
            Some(Point::new(40.0, 0.0)),
            None,
        ];
        let snap = snapshot(&phases, &centers, &targets);
        let pick = CollisionSeeker::new().next(&snap).unwrap().robot.0;
        assert!(
            pick == 0 || pick == 1,
            "one of the closest movers is chosen"
        );
    }

    #[test]
    fn slow_robot_for_system_has_no_victim_for_one_robot() {
        // The degenerate 1-robot system: no "rest of the system" to outpace
        // the victim, so the schedule is a plain full-speed round-robin.
        let phases = vec![Phase::Wait];
        let centers = vec![Point::new(0.0, 0.0)];
        let targets = vec![None];
        let snap = snapshot(&phases, &centers, &targets);
        let mut adv = SlowRobot::for_system(5, 1);
        assert_eq!(adv.victim, None);
        for _ in 0..4 {
            let d = adv.next(&snap).unwrap();
            assert_eq!(d.robot.0, 0);
            assert_eq!(d.motion, MotionControl::Full);
        }
        // Multi-robot systems keep the seed-derived victim.
        assert_eq!(SlowRobot::for_system(7, 3).victim, Some(1));
    }

    #[test]
    fn crash_stop_kills_victims_and_settles_on_survivors() {
        let (phases, centers, targets) = three_waiting();
        let snap = snapshot(&phases, &centers, &targets);
        let mut adv = CrashStop::new(9, 3, 1);
        assert_eq!(adv.victims.len(), 1);
        let victim = adv.victims[0];
        // Before the fault fires every robot is scheduled round-robin.
        let warmup: Vec<usize> = (0..adv.fault_at)
            .map(|_| adv.next(&snap).unwrap().robot.0)
            .collect();
        assert!(warmup.contains(&victim));
        assert!(!adv.permanently_stopped(victim));
        // From the fault on, the victim is never scheduled again.
        for _ in 0..30 {
            assert_ne!(adv.next(&snap).unwrap().robot.0, victim);
        }
        assert!(adv.permanently_stopped(victim));
        assert_eq!(adv.fault_stats().crashed_robots, 1);
        // Once the survivors terminate, the schedule ends even though the
        // victim never reached Terminate — no busy-wait on the dead.
        let mut done = vec![Phase::Terminate; 3];
        done[victim] = Phase::Wait;
        let done_snap = snapshot(&done, &centers, &targets);
        assert!(adv.next(&done_snap).is_none());
    }

    #[test]
    fn crash_stop_clamps_k_below_n() {
        // k = n would leave no survivor; the clamp keeps one alive, and a
        // 1-robot system suffers no fault at all.
        assert_eq!(CrashStop::new(1, 3, 99).victims.len(), 2);
        assert!(CrashStop::new(1, 1, 1).victims.is_empty());
    }

    #[test]
    fn persistent_sleep_starves_then_resumes() {
        let (phases, centers, targets) = three_waiting();
        let snap = snapshot(&phases, &centers, &targets);
        let mut adv = PersistentSleep::new(3, 3, 1);
        let victim = adv.victims[0];
        let (from, until) = (adv.sleep_from, adv.sleep_until);
        // Inside the window the victim is starved.
        for _ in 0..until {
            let d = adv.next(&snap).unwrap();
            if adv.clock > from && adv.clock <= until {
                assert_ne!(d.robot.0, victim, "starved robot scheduled in-window");
            }
        }
        assert!(adv.fault_stats().starved_directives > 0);
        // After the window the victim is scheduled again (fault is finite).
        let resumed: Vec<usize> = (0..6).map(|_| adv.next(&snap).unwrap().robot.0).collect();
        assert!(resumed.contains(&victim));
        assert!(!adv.permanently_stopped(victim));
    }

    #[test]
    fn persistent_sleep_wakes_victims_when_everyone_else_terminates() {
        let centers = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let targets = vec![None, None];
        let mut adv = PersistentSleep::new(3, 2, 1);
        let victim = adv.victims[0];
        // Jump into the middle of the sleep window, with every awake robot
        // already terminated: the victim must be woken early, not deadlock.
        adv.clock = adv.sleep_from + 1;
        let mut phases = vec![Phase::Terminate; 2];
        phases[victim] = Phase::Wait;
        let snap = snapshot(&phases, &centers, &targets);
        let d = adv.next(&snap).expect("the sleeping victim must be woken");
        assert_eq!(d.robot.0, victim);
        assert!(adv.sleep_until <= adv.clock, "the window is over for good");
    }

    #[test]
    fn slow_coalition_truncates_exactly_its_victims() {
        let (phases, centers, targets) = three_waiting();
        let snap = snapshot(&phases, &centers, &targets);
        let mut adv = SlowCoalition::new(11, 3, 2);
        assert_eq!(adv.victims.len(), 2);
        for _ in 0..9 {
            let d = adv.next(&snap).unwrap();
            let expected = if adv.victims.binary_search(&d.robot.0).is_ok() {
                MotionControl::StopAfterDelta
            } else {
                MotionControl::Full
            };
            assert_eq!(d.motion, expected);
        }
        assert_eq!(adv.fault_stats().truncated_directives, 6);
    }

    #[test]
    fn fault_adversaries_yield_none_when_all_terminated() {
        let phases = vec![Phase::Terminate; 2];
        let centers = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let targets = vec![None, None];
        let snap = snapshot(&phases, &centers, &targets);
        assert!(CrashStop::new(1, 2, 1).next(&snap).is_none());
        assert!(PersistentSleep::new(1, 2, 1).next(&snap).is_none());
        assert!(SlowCoalition::new(1, 2, 1).next(&snap).is_none());
    }

    #[test]
    fn snapshot_helpers() {
        let phases = vec![Phase::Move, Phase::Terminate];
        let centers = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let targets = vec![Some(Point::new(3.0, 4.0)), None];
        let snap = snapshot(&phases, &centers, &targets);
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
        assert_eq!(snap.active_iter().collect::<Vec<_>>(), vec![0]);
        assert!((snap.remaining(0) - 5.0).abs() < 1e-12);
        assert_eq!(snap.remaining(1), 0.0);
    }
}
