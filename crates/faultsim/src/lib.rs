//! # faultsim — deterministic fault injection and resilience primitives
//!
//! The course projects this workspace reproduces (web crawler, task
//! runtime, pyjama teams) originally treated failure as an
//! afterthought: a failed fetch panicked the calling task and a
//! panicking team member deadlocked its siblings. This crate provides
//! the shared vocabulary for doing better, in three pieces:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — a *seeded, deterministic*
//!   fault source. Every decision is a pure function of
//!   `(seed, key, attempt)`, so a chaos test that replays the same
//!   plan observes bit-identical faults regardless of thread
//!   interleaving. That is the property the chaos suite in
//!   `tests/chaos.rs` asserts.
//! * [`RetryPolicy`] — fixed or exponential backoff with
//!   deterministic jitter, bounded attempts, and per-attempt /
//!   overall deadlines. Delay schedules are derived from a seed, so
//!   two runs of the same policy produce the same waits.
//! * [`Breaker`] — a consecutive-failure circuit breaker with
//!   half-open probing. Cooldown is measured in *denied calls*, not
//!   wall time, which keeps simulations deterministic.
//! * [`FaultStorm`] — named, phase-structured storm schedules (burst,
//!   brownout, flapping) layered on [`FaultPlan`], for soak tests that
//!   exercise degradation *and* recovery in one seeded narrative.
//!   [`StormPhase::injector`] gives each lane (a replica, a marker) of
//!   a phase its own reproducible fault stream.
//! * [`ShedReason`] — the one attributed shed cause every bounded
//!   queue in the workspace uses.
//!
//! Consumers: `websim` wires an injector into its simulated server
//! and drives `try_fetch_all` with a `RetryPolicy`; `partask` and
//! `pyjama` use the same plans to schedule injected panics in tests.

mod breaker;
mod inject;
mod retry;
mod shed;
mod storm;

pub use breaker::{Breaker, BreakerState};
pub use inject::{Fault, FaultInjector, FaultPlan};
pub use retry::{Backoff, Retried, RetryError, RetryPolicy};
pub use shed::ShedReason;
pub use storm::{FaultStorm, StormPhase};

/// Prefix of every panic message this crate injects (see
/// [`Fault::Panic`]); consumers that contain injected panics match on
/// it to tell simulation artifacts from real failures.
pub const INJECTED_PANIC_PREFIX: &str = "faultsim: injected panic";

static SILENCE_HOOK: std::sync::Once = std::sync::Once::new();

/// Stop the default panic hook from printing a "thread panicked"
/// report (and backtrace) for *injected* panics — panics whose payload
/// starts with [`INJECTED_PANIC_PREFIX`]. Every other panic still goes
/// through the previously installed hook.
///
/// Injected panics are expected simulation events that the harness
/// catches per-attempt; without this, a chaos run buries its real
/// output under screens of bogus backtraces. Call it once at the top
/// of an example or chaos test. Installation is process-global and
/// idempotent.
pub fn silence_injected_panics() {
    SILENCE_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .is_some_and(|s| s.starts_with(INJECTED_PANIC_PREFIX));
            if !injected {
                previous(info);
            }
        }));
    });
}
