//! Host-speed calibration of end-to-end timings.
//!
//! The benchmark host is shared: a co-tenant slows every instruction
//! stream on it by up to 60% in phases of seconds to minutes (a fixed
//! CPU-bound loop timed once a second ran at 4.3–7.1 ms per unit). A
//! median over one run cannot remove a phase that outlasts the run, and
//! within a run it lands on whichever phase held half the samples.
//!
//! So untraced runs time a fixed probe — integer generation, a sort and a
//! hash aggregation, the kind of work the kernel does — just before every
//! timed operation and every set-up, and scale the operation's wall time
//! by `REFERENCE_MS / probe`, the probe time being the median of the last
//! few probes. Each reported latency is thus the wall time the operation
//! would take on a host where the probe takes `REFERENCE_MS`; a change to
//! the program moves it exactly as it moves wall time, while a change in
//! the host's speed moves probe and operation together and cancels out.
//! On one general_temporal run, statement latency and the adjacent probe
//! correlated at 0.64–0.75, and over eight runs the spread of the scaled
//! median was 0.017 against 0.151 unscaled.

use std::collections::VecDeque;
use std::time::Instant;

/// The probe time the scaled timings refer to: about what the probe takes
/// on the 2-core benchmark host.
pub const REFERENCE_MS: f64 = 3.5;

/// Probes whose median gives the current host speed.
const WINDOW: usize = 5;

/// The recent probe times of one run.
#[derive(Debug, Default)]
pub struct Calibration {
    recent: VecDeque<f64>,
}

impl Calibration {
    /// Time the probe once and return the factor that scales a wall time
    /// measured right after it to the reference host speed.
    pub fn scale(&mut self) -> f64 {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(probe_ms());
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        match crate::stats::median(&recent) {
            Some(probe) if probe > 0.0 => REFERENCE_MS / probe,
            _ => 1.0,
        }
    }
}

/// One run of the probe, in ms: 100k pseudo-random integers generated,
/// sorted, and 40k of them counted into 4000 hash buckets.
fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut values: Vec<u64> = (0..100_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let mut buckets = std::collections::HashMap::new();
    for v in values.iter().take(40_000) {
        *buckets.entry(v % 4000).or_insert(0u32) += 1;
    }
    std::hint::black_box(&buckets);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_positive_and_uses_a_bounded_window() {
        let mut c = Calibration::default();
        for _ in 0..WINDOW + 3 {
            let s = c.scale();
            assert!(s.is_finite() && s > 0.0);
        }
        assert_eq!(c.recent.len(), WINDOW);
    }
}
