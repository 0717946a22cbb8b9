//! The latency samples of one run, by operation kind.

/// Every completed operation of a run: its kind and latency in ms.
#[derive(Debug, Default)]
pub struct Samples {
    /// Time the operations took, in ms (the benchmark's checks excluded).
    busy_ms: f64,
    ops: u64,
    samples: Vec<(&'static str, f64)>,
}

impl Samples {
    /// Record one completed operation of `kind` that took `ms`.
    pub fn op(&mut self, kind: &'static str, ms: f64) {
        self.busy_ms += ms;
        self.ops += 1;
        self.samples.push((kind, ms));
    }

    /// File an operation already recorded with [`Samples::op`] under a
    /// second kind as well (a subclass of statements).
    pub fn tag(&mut self, kind: &'static str, ms: f64) {
        self.samples.push((kind, ms));
    }

    /// How many samples of `kind` the run holds.
    pub fn count(&self, kind: &str) -> usize {
        self.samples.iter().filter(|(k, _)| *k == kind).count()
    }

    /// Every sample of `kind`, in ms.
    pub fn get(&self, kind: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, v)| *v)
            .collect()
    }

    /// Operations completed per second of operation time.
    pub fn ops_per_s(&self) -> f64 {
        if self.busy_ms > 0.0 {
            self.ops as f64 / (self.busy_ms / 1e3)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_by_kind_and_throughput() {
        let mut s = Samples::default();
        s.op("mine", 10.0);
        s.tag("e1", 10.0);
        s.op("decoupled", 5.0);
        s.op("mine", 25.0);
        assert_eq!(s.count("mine"), 2);
        assert_eq!(s.get("mine"), vec![10.0, 25.0]);
        assert_eq!(s.get("e1"), vec![10.0]);
        // Tags are not operations: 3 operations in 40 ms.
        assert!((s.ops_per_s() - 3.0 / 0.040).abs() < 1e-9);
    }

    #[test]
    fn an_empty_run_reports_nothing() {
        let s = Samples::default();
        assert!(s.get("mine").is_empty());
        assert_eq!(s.ops_per_s(), 0.0);
    }
}
