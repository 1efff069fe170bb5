//! Percentiles with the benchmark's sample-count rule.

/// A percentile counts only if at least this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// One selected percentile and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The selected sample (or the maximum, when not qualified).
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly beyond the selected rank.
    pub beyond: usize,
    /// True when `beyond >= MIN_BEYOND`. An unqualified percentile reports
    /// the set's maximum instead, so a short run can only read worse.
    pub qualified: bool,
}

/// The `q`-quantile (`0 < q < 1`) of `sorted` by nearest rank: the
/// smallest sample with at least a `q` share of the set at or below it.
/// Returns `None` for an empty set.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Pct> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input is sorted");
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let beyond = n - 1 - rank;
    let qualified = beyond >= MIN_BEYOND;
    Some(Pct {
        value: if qualified {
            sorted[rank]
        } else {
            sorted[n - 1]
        },
        n,
        beyond,
        qualified,
    })
}

/// Sorts `v` in place and returns its p50 and p99.
pub fn p50_p99(v: &mut [f64]) -> Option<(Pct, Pct)> {
    v.sort_by(f64::total_cmp);
    Some((percentile(v, 0.5)?, percentile(v, 0.99)?))
}

/// Samples of one measured phase, timestamped in seconds from its start.
#[derive(Debug, Default, Clone)]
pub struct Series {
    /// (completion time, latency in ms) of each timed operation.
    pub latency: Vec<(f64, f64)>,
    /// (completion time, work units) counted toward throughput.
    pub work: Vec<(f64, f64)>,
    /// (time, steal jiffies, all jiffies) read from `/proc/stat`.
    pub cpu: Vec<(f64, u64, u64)>,
}

/// Steal share up to which a stretch of the run counts as quiet: none.
pub const QUIET_STEAL: f64 = 0.0;

/// A phase's headline numbers over its quiet stretches, timed on the
/// available-CPU clock (see [`Series::headline`]), with the plain
/// wall-clock numbers over the whole phase beside them.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    pub throughput: f64,
    pub p50: Pct,
    pub p99: Pct,
    pub all_throughput: f64,
    pub all_p50: Pct,
    pub all_p99: Pct,
    /// Share of CPU time the host stole over the phase.
    pub steal: f64,
    /// Share of the phase's time that counted as quiet.
    pub quiet_frac: f64,
}

/// System-wide (steal, total) CPU jiffies, from the first line of
/// `/proc/stat`; `None` where it cannot be read.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

impl Series {
    /// A series with room for `n` operations. Reserving up front keeps
    /// the samples' resident memory growing with their count rather than
    /// in doublings, so `peak_rss_mb` follows the runtime, not the
    /// benchmark's bookkeeping.
    pub fn with_capacity(n: usize) -> Self {
        Series {
            latency: Vec::with_capacity(n),
            work: Vec::with_capacity(n),
            cpu: Vec::new(),
        }
    }

    /// Reads the CPU counters at time `t`, at most every 100 ms.
    pub fn sample_cpu(&mut self, t: f64) {
        if self.cpu.last().is_some_and(|c| t - c.0 < 0.1) {
            return;
        }
        if let Some((steal, total)) = cpu_jiffies() {
            self.cpu.push((t, steal, total));
        }
    }

    /// Stretches between consecutive CPU samples: (start, end, share of
    /// CPU time the host stole).
    fn slots(&self) -> Vec<(f64, f64, f64)> {
        self.cpu
            .windows(2)
            .map(|w| {
                let steal = ratio((w[1].1 - w[0].1) as f64, (w[1].2 - w[0].2) as f64);
                (w[0].0, w[1].0, steal)
            })
            .collect()
    }

    /// The available-CPU clock: wall time during which `co_run` vCPUs
    /// all ran. Through a stretch with steal share `s` it advances at
    /// `(1 - s)^co_run`; with `co_run` 0, or on a host that steals
    /// nothing, it is the wall clock. Returns the clock's reading at `t`
    /// for each `t`.
    pub fn clock(&self, co_run: i32) -> impl Fn(f64) -> f64 {
        let slots = self.slots();
        let mut knots = Vec::with_capacity(slots.len());
        let mut tau = slots.first().map_or(0.0, |s| s.0);
        for &(a, b, steal) in &slots {
            let rate = (1.0 - steal).max(0.0).powi(co_run);
            knots.push((a, tau, rate));
            tau += (b - a) * rate;
        }
        move |t: f64| {
            let i = knots.partition_point(|k| k.0 <= t).saturating_sub(1);
            knots
                .get(i)
                .map_or(t, |&(a, tau, rate)| tau + (t - a) * rate)
        }
    }

    /// Work per second and latency percentiles of the phase `[0,
    /// seconds)` (or to its last completion, if later).
    ///
    /// Host steal on a shared VM stalls whole vCPUs and varies from
    /// minute to minute, so two corrections keep it out of the headline:
    /// only *quiet* stretches count (no steal, or at most the phase's
    /// median steal if that is higher, so at least half the phase
    /// counts; an operation counts only if every stretch it
    /// overlapped was quiet), and times are read on [`Series::clock`]
    /// with `co_run` vCPUs. Without CPU samples the whole phase counts on
    /// the wall clock. `None` when no timed operation counts.
    pub fn headline(&self, seconds: f64, co_run: i32) -> Option<Headline> {
        let end = self.work.iter().map(|w| w.0).fold(seconds, f64::max);
        let slots = self.slots();
        let threshold = QUIET_STEAL.max(median(&mut slots.iter().map(|s| s.2).collect::<Vec<_>>()));
        let slot_of = |t: f64| slots.partition_point(|s| s.0 <= t).saturating_sub(1);
        let quiet = |a: f64, b: f64| {
            slots.is_empty() || (slot_of(a)..=slot_of(b)).all(|i| slots[i].2 <= threshold)
        };
        let clock = self.clock(co_run);
        let (quiet_s, span_s) = if slots.is_empty() {
            (clock(end) - clock(0.0), end)
        } else {
            let q = slots.iter().filter(|s| s.2 <= threshold);
            (
                q.clone().map(|s| clock(s.1) - clock(s.0)).sum(),
                slots[slots.len() - 1].1 - slots[0].0,
            )
        };
        let quiet_wall_s: f64 = slots
            .iter()
            .filter(|s| s.2 <= threshold)
            .map(|s| s.1 - s.0)
            .sum();

        let mut all: Vec<f64> = self.latency.iter().map(|l| l.1).collect();
        let mut sel: Vec<f64> = self
            .latency
            .iter()
            .filter(|&&(done, ms)| quiet(done - ms / 1e3, done))
            .map(|&(done, ms)| (clock(done) - clock(done - ms / 1e3)) * 1e3)
            .collect();
        let quiet_work: f64 = self
            .work
            .iter()
            .filter(|w| quiet(w.0, w.0))
            .map(|w| w.1)
            .sum();
        let all_work: f64 = self.work.iter().map(|w| w.1).sum();
        let (all_p50, all_p99) = p50_p99(&mut all)?;
        let (p50, p99) = p50_p99(&mut sel)?;
        let steal = match (self.cpu.first(), self.cpu.last()) {
            (Some(a), Some(b)) => ratio((b.1 - a.1) as f64, (b.2 - a.2) as f64),
            _ => 0.0,
        };
        Some(Headline {
            throughput: quiet_work / quiet_s,
            p50,
            p99,
            all_throughput: all_work / end,
            all_p50,
            all_p99,
            steal,
            quiet_frac: if slots.is_empty() {
                1.0
            } else {
                ratio(quiet_wall_s, span_s)
            },
        })
    }
}

/// Median of `v` (sorts in place); 0 for an empty set.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload bypasses).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990 (value 990) has exactly 10 beyond it.
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!(
            (p.value, p.n, p.beyond, p.qualified),
            (990.0, 1000, 10, true)
        );
        // 999 samples leave only 9 beyond the p99 rank: the percentile
        // does not count and reports the maximum instead.
        let p = percentile(&ramp(999), 0.99).unwrap();
        assert_eq!((p.beyond, p.qualified, p.value), (9, false, 999.0));
    }

    #[test]
    fn median_rank_and_counts() {
        let p = percentile(&ramp(21), 0.5).unwrap();
        assert_eq!((p.value, p.n, p.beyond, p.qualified), (11.0, 21, 10, true));
        let p = percentile(&ramp(19), 0.5).unwrap();
        assert_eq!((p.value, p.beyond, p.qualified), (19.0, 9, false));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn p50_p99_sorts_first() {
        let mut v: Vec<f64> = ramp(2000).into_iter().rev().collect();
        let (p50, p99) = p50_p99(&mut v).unwrap();
        assert_eq!((p50.value, p99.value), (1000.0, 1980.0));
        assert!(p50.qualified && p99.qualified);
    }

    #[test]
    fn headline_counts_only_quiet_stretches() {
        // Three 1 s stretches; the host steals half the CPU in the middle.
        let mut s = Series {
            cpu: vec![(0.0, 0, 0), (1.0, 0, 200), (2.0, 100, 400), (3.0, 100, 600)],
            ..Series::default()
        };
        // Two 4 ms ops per 10 ms; those in the noisy second take 9 ms.
        for i in 0..300 {
            let done = 0.01 * (i + 1) as f64 - 0.001;
            let ms = if (1.0..2.0).contains(&done) { 9.0 } else { 4.0 };
            s.latency.push((done, ms));
            s.work.push((done, 2.0));
        }
        let h = s.headline(3.0, 2).unwrap();
        assert_eq!((h.steal, h.quiet_frac), (100.0 / 600.0, 2.0 / 3.0));
        assert!((h.throughput - 200.0).abs() < 1e-9, "{}", h.throughput);
        assert!((h.all_throughput - 200.0).abs() < 1e-9);
        assert!((h.p50.value - 4.0).abs() < 1e-9 && (h.p99.value - 4.0).abs() < 1e-9);
        assert_eq!(h.p99.n, 200);
        assert_eq!((h.all_p99.value, h.all_p99.n), (9.0, 300));
        assert!(Series::default().headline(1.0, 2).is_none());
    }

    #[test]
    fn available_clock_discounts_stolen_time() {
        // 1 s with nothing stolen, then 1 s with half the CPU stolen.
        let mut s = Series {
            cpu: vec![(0.0, 0, 0), (1.0, 0, 200), (2.0, 100, 400)],
            ..Series::default()
        };
        let clock = s.clock(2);
        assert_eq!((clock(0.5), clock(1.0)), (0.5, 1.0));
        assert_eq!(clock(2.0), 1.25, "both vCPUs ran a quarter of the second");
        assert_eq!(
            clock(3.0),
            1.5,
            "the last rate extends past the last sample"
        );
        assert_eq!(s.clock(0)(2.0), 2.0);
        assert_eq!(Series::default().clock(2)(0.7), 0.7);
        // A 4 ms op inside the noisy second reads 1 ms on this clock.
        s.latency = vec![(1.5, 4.0)];
        s.work = vec![(1.5, 1.0)];
        s.cpu.push((3.0, 200, 600)); // half stolen again
        let h = s.headline(3.0, 2).unwrap();
        assert_eq!(h.quiet_frac, 1.0, "median steal 0.5 is the threshold");
        assert!((h.p99.value - 1.0).abs() < 1e-9 && h.all_p99.value == 4.0);
        assert!((h.throughput - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn without_cpu_samples_everything_counts() {
        let s = Series {
            latency: vec![(0.5, 1.0), (1.5, 3.0)],
            work: vec![(0.5, 1.0), (1.5, 1.0)],
            ..Series::default()
        };
        let h = s.headline(2.0, 2).unwrap();
        assert_eq!((h.throughput, h.quiet_frac), (1.0, 1.0));
        assert!((h.p99.value - 3.0).abs() < 1e-9);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
