//! Hypervisor steal time, sampled from `/proc/stat` while load runs.
//!
//! On a shared host the hypervisor sometimes runs other guests on this
//! machine's CPUs; the kernel counts that time as "steal". A burst of
//! steal slows every request in flight for reasons outside the code
//! under test, so the end-to-end figures prefer windows and requests
//! that ran while little was stolen.

use std::time::{Duration, Instant};

/// Windows and requests with at most this share of CPU time stolen
/// count as quiet.
pub const QUIET: f64 = 0.05;

/// Minimum spacing between samples.
const EVERY: Duration = Duration::from_millis(100);

#[derive(Clone, Copy, Debug)]
struct Sample {
    at: Instant,
    steal: u64,
    total: u64,
}

/// Cumulative steal and total CPU ticks of all CPUs.
fn read() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// A time series of steal samples. When `/proc/stat` is unreadable it
/// stays empty and every window counts as quiet.
#[derive(Debug, Default)]
pub struct Steal {
    samples: Vec<Sample>,
}

impl Steal {
    /// Take a sample unless one was taken within the last 100 ms.
    pub fn tick(&mut self) {
        let now = Instant::now();
        if self.samples.last().is_some_and(|s| now - s.at < EVERY) {
            return;
        }
        if let Some((steal, total)) = read() {
            self.samples.push(Sample {
                at: now,
                steal,
                total,
            });
        }
    }

    /// Take a sample now, regardless of spacing (to bracket the end of
    /// a measured interval).
    pub fn mark(&mut self) {
        if let Some((steal, total)) = read() {
            self.samples.push(Sample {
                at: Instant::now(),
                steal,
                total,
            });
        }
    }

    /// Merge another series into this one.
    pub fn absorb(&mut self, other: Steal) {
        self.samples.extend(other.samples);
        self.samples.sort_by_key(|s| s.at);
    }

    /// Share of CPU time stolen between the last sample at or before
    /// `from` and the first at or after `to`; `None` without samples
    /// bracketing the interval.
    pub fn fraction(&self, from: Instant, to: Instant) -> Option<f64> {
        let a = self.samples.iter().rev().find(|s| s.at <= from)?;
        let b = self.samples.iter().find(|s| s.at >= to)?;
        let total = b.total.checked_sub(a.total)?;
        (total > 0).then(|| b.steal.saturating_sub(a.steal) as f64 / total as f64)
    }

    /// Steal share over the whole series.
    pub fn overall(&self) -> Option<f64> {
        let (a, b) = (self.samples.first()?, self.samples.last()?);
        self.fraction(a.at, b.at)
    }
}
