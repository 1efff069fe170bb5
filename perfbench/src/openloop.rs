//! Open-loop load generation: requests are sent on a seeded schedule
//! whether or not earlier ones have finished, and each is timed from the
//! moment it was *due*, so a stall counts against every request queued
//! behind it.

use crate::rng::Rng;
use std::time::{Duration, Instant};

/// Seeded Poisson arrival times, in seconds from the start, over
/// `horizon_s` seconds at `rate_per_s` on average.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, horizon_s: f64) -> Vec<f64> {
    let mean_gap = 1.0 / rate_per_s;
    let mut dues = Vec::new();
    let mut t = rng.exp(mean_gap);
    while t < horizon_s {
        dues.push(t);
        t += rng.exp(mean_gap);
    }
    dues
}

/// Time source for [`drive`]: seconds since the loop started.
pub trait Clock {
    /// Seconds since the start.
    fn now(&self) -> f64;
    /// Blocks until `now() >= t` (returns at once if already past).
    fn sleep_until(&self, t: f64);
}

/// The real clock.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock starting now.
    pub fn start() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    /// The instant the clock reads 0 at.
    pub fn origin(&self) -> Instant {
        self.start
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64(t - now));
        }
    }
}

/// Runs an open loop over `dues` (sorted): waits until each request is
/// due, never for an earlier one to finish, then calls `send` with its
/// index. A `send` that blocks delays the requests after it; each is
/// still sent, as soon as possible. Returns how late each was sent
/// (seconds).
pub fn drive<C: Clock>(clock: &C, dues: &[f64], mut send: impl FnMut(usize)) -> Vec<f64> {
    let mut late = Vec::with_capacity(dues.len());
    for (i, due) in dues.iter().enumerate() {
        clock.sleep_until(*due);
        late.push((clock.now() - due).max(0.0));
        send(i);
    }
    late
}

/// Latency of a request that was due at `due` and finished at `done`.
pub fn latency_from_due(due: f64, done: f64) -> f64 {
    done - due
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when slept on or pushed forward by hand.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&self, t: f64) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn a_stalled_request_delays_the_ones_behind_it() {
        let clock = FakeClock(Cell::new(0.0));
        let dues = [0.0, 0.010, 0.020, 0.030];
        let service = 0.001;
        let mut done = vec![0.0; dues.len()];
        let late = drive(&clock, &dues, |i| {
            if i == 1 {
                // Sending request 1 blocks for 25 ms.
                clock.0.set(clock.0.get() + 0.025);
            }
            done[i] = clock.now() + service;
        });
        // Requests 2 and 3 went out at t = 35 ms, 15 ms and 5 ms late.
        assert!((late[2] - 0.015).abs() < 1e-12 && (late[3] - 0.005).abs() < 1e-12);
        assert_eq!(late[0], 0.0);
        // Timed from its due time, request 2 carries the stall it waited
        // behind; timed from its actual send it would read 1 ms.
        let lat2 = latency_from_due(dues[2], done[2]);
        assert!((lat2 - 0.016).abs() < 1e-12, "lat2 = {lat2}");
        assert!(lat2 > service * 10.0);
        let lat0 = latency_from_due(dues[0], done[0]);
        assert!((lat0 - service).abs() < 1e-12);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_sized() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 200.0, 5.0);
        let b = poisson_schedule(&mut Rng::new(7, 1), 200.0, 5.0);
        let c = poisson_schedule(&mut Rng::new(8, 1), 200.0, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        // 1000 expected arrivals; a Poisson count stays within ~5 sigma.
        assert!((850..1150).contains(&a.len()), "{}", a.len());
    }
}
