//! Injectable time sources for span durations.
//!
//! Everything outside this file is wall-clock free: the
//! [`Tracer`](crate::Tracer) reads time only through the [`Clock`] trait, so tests
//! and golden files run on the fully deterministic [`ManualClock`] while
//! production runs use [`SystemClock`]. This file is the **only** place in
//! the workspace outside `crates/bench` where ds-lint's `wall-clock` rule
//! is waived (see `lint.toml`) — keeping the determinism contract
//! auditable: if a seeded crate wants time, it must take a `Clock`, and the
//! caller decides whether that time is real.

use std::time::Instant;

/// A monotone nanosecond clock.
///
/// `now_ns` takes `&mut self` so deterministic implementations can advance
/// internal state per reading.
pub trait Clock {
    /// Nanoseconds since the clock's origin. Must be monotone
    /// non-decreasing across calls.
    fn now_ns(&mut self) -> u64;
}

/// Monotonic wall-clock time, measured from construction.
#[derive(Debug, Clone)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ns(&mut self) -> u64 {
        // u64 nanoseconds overflow after ~584 years of process uptime.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A deterministic clock for tests and golden traces: every reading
/// advances time by a fixed tick.
#[derive(Debug, Clone)]
pub struct ManualClock {
    now: u64,
    tick: u64,
}

impl ManualClock {
    /// A clock starting at 0 that advances `tick` nanoseconds per reading.
    pub fn new(tick: u64) -> Self {
        ManualClock { now: 0, tick }
    }

    /// Jump to an absolute time (later readings continue ticking from it).
    pub fn set(&mut self, now_ns: u64) {
        self.now = now_ns;
    }

    /// Advance by `delta` nanoseconds without consuming a reading.
    pub fn advance(&mut self, delta_ns: u64) {
        self.now = self.now.saturating_add(delta_ns);
    }
}

impl Clock for ManualClock {
    fn now_ns(&mut self) -> u64 {
        let t = self.now;
        self.now = self.now.saturating_add(self.tick);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_ticks_deterministically() {
        let mut c = ManualClock::new(10);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 10);
        c.advance(5);
        assert_eq!(c.now_ns(), 25);
        c.set(1000);
        assert_eq!(c.now_ns(), 1000);
        assert_eq!(c.now_ns(), 1010);
    }

    #[test]
    fn system_clock_is_monotone() {
        let mut c = SystemClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
