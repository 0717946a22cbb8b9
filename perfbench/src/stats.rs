//! Order statistics over latency samples.

/// The `p`-th percentile (`0.0..=100.0`) of `samples`, linearly
/// interpolated between the two nearest ranks (the "inclusive" method:
/// rank `p/100 · (n − 1)` over the sorted samples). `None` when there are
/// no samples or a sample is not finite.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) || samples.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples` (the 50th [`percentile`]).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_non_finite_have_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0, f64::NAN], 50.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
    }

    #[test]
    fn interpolates_between_ranks_of_unsorted_input() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), Some(2.5));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 100.0), Some(4.0));
        // rank 0.9 · 3 = 2.7 → 3 + 0.7 · (4 − 3)
        assert!((percentile(&samples, 90.0).unwrap() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn matches_nearest_rank_on_exact_ranks() {
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&samples), Some(51.0));
        assert_eq!(percentile(&samples, 90.0), Some(91.0));
    }

    #[test]
    fn percentile_of_a_two_class_mix_sits_inside_the_majority_class() {
        // 7 fast and 3 slow statements per cycle: the median must be a fast
        // sample and p90 a slow one, never an interpolation across the gap.
        let mut samples = Vec::new();
        for cycle in 0..12 {
            for k in 0..7 {
                samples.push(100.0 + f64::from(cycle + k));
            }
            for k in 0..3 {
                samples.push(300.0 + f64::from(cycle + k));
            }
        }
        assert!(median(&samples).unwrap() < 200.0);
        assert!(percentile(&samples, 90.0).unwrap() > 300.0);
    }
}
