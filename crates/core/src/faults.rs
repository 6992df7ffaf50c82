//! Deterministic, seeded fault injection for chaos testing.
//!
//! Production code declares *named injection points* by calling
//! [`hit`] at the places where the chaos harness wants to misbehave:
//! the solver's phase-1 loop ([`points::SOLVE_PHASE1`]), the server's
//! background re-solve ([`points::SERVER_RESOLVE`]), the TCP read loop
//! ([`points::TCP_READ`]) and the event-apply path
//! ([`points::EVENT_APPLY`]). When no [`FaultPlan`] is armed — the
//! normal case — a hit is a single relaxed atomic load and nothing
//! else, so the points are free in production.
//!
//! A [`FaultPlan`] arms a set of [`FaultSpec`]s, each binding a point
//! to a [`FaultAction`] (panic, artificial latency, a transient error,
//! or an event-flood burst) with deterministic hit-counter triggering:
//! the fault skips the first `after` hits and then fires `times` times.
//! Nothing here consults the clock or a random source at decision
//! time, so a replay under the same plan fires the same faults at the
//! same operations every run.
//!
//! The plan is process-global: one armed plan per process. A test that
//! arms one runs in a test binary where no other test arms a plan or
//! reaches an injection point, so no other test can use up or be
//! injected by its faults.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use dmn_json::Json;

/// Canonical injection-point names. Production code should reference
/// these constants rather than inline strings so plans and code can't
/// drift apart.
pub mod points {
    /// Inside the solver's phase-1 per-object loop (`dmn-solve` engines).
    pub const SOLVE_PHASE1: &str = "solve.phase1";
    /// At the start of a background/foreground re-solve attempt in
    /// `dmn-server`.
    pub const SERVER_RESOLVE: &str = "server.resolve";
    /// Per request line in the TCP connection handler.
    pub const TCP_READ: &str = "tcp.read";
    /// Per event in `ServerHandle::apply`.
    pub const EVENT_APPLY: &str = "event.apply";
}

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Panic with a recognizable message (`injected fault at <point>`).
    Panic,
    /// Sleep for the given number of milliseconds, then continue.
    DelayMillis(u64),
    /// Report a transient, retryable error to the caller.
    TransientError,
    /// Ask the caller to synthesize a burst of this many extra events.
    FloodEvents(usize),
}

impl FaultAction {
    /// Stable wire name used in scenario JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FaultAction::Panic => "panic",
            FaultAction::DelayMillis(_) => "delay",
            FaultAction::TransientError => "transient-error",
            FaultAction::FloodEvents(_) => "flood",
        }
    }
}

/// One armed fault: a point, an action, and deterministic triggering.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Injection-point name (see [`points`]).
    pub point: String,
    pub action: FaultAction,
    /// Skip this many hits at the point before firing.
    pub after: u64,
    /// Fire at most this many times; `0` means unlimited.
    pub times: u64,
}

impl FaultSpec {
    /// A fault that fires on the very first hit, once.
    pub fn once(point: &str, action: FaultAction) -> FaultSpec {
        FaultSpec {
            point: point.to_string(),
            action,
            after: 0,
            times: 1,
        }
    }

    /// Same, but skipping the first `after` hits.
    pub fn after(point: &str, action: FaultAction, after: u64) -> FaultSpec {
        FaultSpec {
            after,
            ..FaultSpec::once(point, action)
        }
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("point", Json::Str(self.point.clone())),
            ("action", Json::Str(self.action.name().to_string())),
            ("after", Json::Num(self.after as f64)),
            ("times", Json::Num(self.times as f64)),
        ];
        match self.action {
            FaultAction::DelayMillis(ms) => fields.push(("millis", Json::Num(ms as f64))),
            FaultAction::FloodEvents(n) => fields.push(("events", Json::Num(n as f64))),
            FaultAction::Panic | FaultAction::TransientError => {}
        }
        Json::obj(fields)
    }

    pub fn from_json(doc: &Json) -> Result<FaultSpec, String> {
        let point = doc
            .get("point")
            .and_then(Json::as_str)
            .ok_or("fault needs a string 'point'")?
            .to_string();
        let action_name = doc
            .get("action")
            .and_then(Json::as_str)
            .ok_or("fault needs a string 'action'")?;
        let action = match action_name {
            "panic" => FaultAction::Panic,
            "delay" => FaultAction::DelayMillis(
                doc.get("millis")
                    .and_then(Json::as_f64)
                    .ok_or("delay fault needs numeric 'millis'")? as u64,
            ),
            "transient-error" => FaultAction::TransientError,
            "flood" => FaultAction::FloodEvents(
                doc.get("events")
                    .and_then(Json::as_usize)
                    .ok_or("flood fault needs numeric 'events'")?,
            ),
            other => return Err(format!("unknown fault action '{other}'")),
        };
        let counter = |key: &str, default: u64| -> Result<u64, String> {
            match doc.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(v) => {
                    let n = v
                        .as_f64()
                        .filter(|n| n.is_finite() && *n >= 0.0)
                        .ok_or_else(|| format!("fault '{key}' must be a non-negative number"))?;
                    Ok(n as u64)
                }
            }
        };
        Ok(FaultSpec {
            point,
            action,
            after: counter("after", 0)?,
            times: counter("times", 1)?,
        })
    }
}

/// A seeded schedule of faults, round-trippable through the scenario
/// JSON `"faults"` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for any randomized payloads the harness derives from the
    /// plan (e.g. flood-event contents). Triggering itself is
    /// hit-counter based and never consults this.
    pub seed: u64,
    pub inject: Vec<FaultSpec>,
}

impl FaultPlan {
    pub fn new(seed: u64, inject: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan { seed, inject }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            (
                "inject",
                Json::Arr(self.inject.iter().map(FaultSpec::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<FaultPlan, String> {
        let seed = match doc.get("seed") {
            None | Some(Json::Null) => 0,
            Some(v) => v
                .as_f64()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or("fault plan 'seed' must be a non-negative number")?
                as u64,
        };
        let inject = match doc.get("inject") {
            None | Some(Json::Null) => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or("fault plan 'inject' must be an array")?
                .iter()
                .map(FaultSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(FaultPlan { seed, inject })
    }
}

/// A fired fault the caller must act on. `Panic` and `DelayMillis`
/// never reach the caller: [`hit`] panics or sleeps inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injected {
    /// Treat the current operation as having failed transiently.
    TransientError,
    /// Synthesize a burst of this many extra events.
    FloodEvents(usize),
}

struct ActiveFault {
    spec: FaultSpec,
    seen: u64,
    fired: u64,
}

struct Armory {
    armed: AtomicBool,
    plan: Mutex<Vec<ActiveFault>>,
}

fn armory() -> &'static Armory {
    static ARMORY: OnceLock<Armory> = OnceLock::new();
    ARMORY.get_or_init(|| Armory {
        armed: AtomicBool::new(false),
        plan: Mutex::new(Vec::new()),
    })
}

fn heal<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // An injected panic while a guard is live poisons the mutex by
    // design; the protected state is still consistent (counters only).
    r.unwrap_or_else(|e| e.into_inner())
}

/// Disarms the plan (and resets all counters) when dropped.
pub struct FaultGuard {
    _private: (),
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arm a plan process-wide. The previous plan, if any, is replaced.
pub fn arm(plan: &FaultPlan) -> FaultGuard {
    let a = armory();
    *heal(a.plan.lock()) = plan
        .inject
        .iter()
        .map(|spec| ActiveFault {
            spec: spec.clone(),
            seen: 0,
            fired: 0,
        })
        .collect();
    a.armed.store(!plan.inject.is_empty(), Ordering::SeqCst);
    FaultGuard { _private: () }
}

/// Disarm and clear the active plan.
fn disarm() {
    let a = armory();
    a.armed.store(false, Ordering::SeqCst);
    heal(a.plan.lock()).clear();
}

/// Declare an injection point. Disarmed: one relaxed atomic load.
/// Armed: matching faults advance their hit counters; a due `Panic`
/// panics here, a due delay sleeps here, and transient errors or
/// flood requests are returned for the caller to act on.
#[inline]
pub fn hit(point: &str) -> Option<Injected> {
    if !armory().armed.load(Ordering::Relaxed) {
        return None;
    }
    hit_slow(point)
}

#[cold]
fn hit_slow(point: &str) -> Option<Injected> {
    let mut delay = 0u64;
    let mut do_panic = false;
    let mut injected = None;
    let mut fired_now = 0u64;
    {
        let mut plan = heal(armory().plan.lock());
        for fault in plan.iter_mut().filter(|f| f.spec.point == point) {
            fault.seen += 1;
            if fault.seen <= fault.spec.after {
                continue;
            }
            if fault.spec.times != 0 && fault.fired >= fault.spec.times {
                continue;
            }
            fault.fired += 1;
            fired_now += 1;
            match fault.spec.action {
                FaultAction::Panic => do_panic = true,
                FaultAction::DelayMillis(ms) => delay = delay.max(ms),
                FaultAction::TransientError => injected = Some(Injected::TransientError),
                FaultAction::FloodEvents(n) => injected = Some(Injected::FloodEvents(n)),
            }
        }
    }
    // Mirror every fire into the telemetry registry (before the panic or
    // sleep takes effect) so chaos assertions and the metrics endpoint
    // share one counting path with the plan's own `fired` counters.
    if fired_now > 0 {
        crate::telemetry::fault_fired_total(point).add(fired_now);
    }
    if delay > 0 {
        std::thread::sleep(Duration::from_millis(delay));
    }
    if do_panic {
        panic!("injected fault at {point}");
    }
    injected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_armed() -> bool {
        armory().armed.load(Ordering::Relaxed)
    }

    /// How many times faults at `point` have fired under the current plan.
    fn fired(point: &str) -> u64 {
        heal(armory().plan.lock())
            .iter()
            .filter(|f| f.spec.point == point)
            .map(|f| f.fired)
            .sum()
    }

    /// The armory is process-global, so the cases that arm it run one
    /// after another in this one test; no other test in this binary arms
    /// a plan or hits a point.
    #[test]
    fn armory_cases_run_in_sequence() {
        disarmed_hit_is_a_noop();
        after_and_times_gate_firing_deterministically();
        panic_action_panics_with_point_name();
        guard_drop_disarms();
    }

    fn disarmed_hit_is_a_noop() {
        disarm();
        assert_eq!(hit(points::SOLVE_PHASE1), None);
        assert!(!is_armed());
    }

    fn after_and_times_gate_firing_deterministically() {
        let plan = FaultPlan::new(
            7,
            vec![FaultSpec {
                point: points::EVENT_APPLY.to_string(),
                action: FaultAction::TransientError,
                after: 2,
                times: 2,
            }],
        );
        let _guard = arm(&plan);
        let fires: Vec<bool> = (0..6).map(|_| hit(points::EVENT_APPLY).is_some()).collect();
        assert_eq!(fires, vec![false, false, true, true, false, false]);
        assert_eq!(fired(points::EVENT_APPLY), 2);
        // Other points are untouched.
        assert_eq!(hit(points::TCP_READ), None);
    }

    fn panic_action_panics_with_point_name() {
        let plan = FaultPlan::new(
            0,
            vec![FaultSpec::once(points::SERVER_RESOLVE, FaultAction::Panic)],
        );
        let _guard = arm(&plan);
        let err = std::panic::catch_unwind(|| hit(points::SERVER_RESOLVE))
            .expect_err("injected panic should fire");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault at server.resolve"), "{msg}");
        // Once only: the second hit is clean.
        assert_eq!(hit(points::SERVER_RESOLVE), None);
    }

    fn guard_drop_disarms() {
        let plan = FaultPlan::new(
            0,
            vec![FaultSpec::once(
                points::TCP_READ,
                FaultAction::TransientError,
            )],
        );
        {
            let _guard = arm(&plan);
            assert!(is_armed());
        }
        assert!(!is_armed());
        assert_eq!(hit(points::TCP_READ), None);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new(
            99,
            vec![
                FaultSpec::once(points::SOLVE_PHASE1, FaultAction::Panic),
                FaultSpec {
                    point: points::SERVER_RESOLVE.to_string(),
                    action: FaultAction::DelayMillis(250),
                    after: 1,
                    times: 3,
                },
                FaultSpec::once(points::EVENT_APPLY, FaultAction::FloodEvents(500)),
                FaultSpec {
                    point: points::TCP_READ.to_string(),
                    action: FaultAction::TransientError,
                    after: 0,
                    times: 0,
                },
            ],
        );
        let text = plan.to_json().to_string_pretty();
        let back = FaultPlan::from_json(&dmn_json::parse(&text).expect("valid json"))
            .expect("plan parses");
        assert_eq!(back, plan);
    }

    #[test]
    fn from_json_rejects_unknown_action() {
        let doc = dmn_json::parse(r#"{"inject": [{"point": "x", "action": "explode"}]}"#).unwrap();
        let err = FaultPlan::from_json(&doc).expect_err("unknown action");
        assert!(err.contains("explode"), "{err}");
    }
}
