//! The percentile helper the benchmark harness uses to summarise per-slice
//! samples (throughput rates, latencies) of plain `f64` slices.

/// Returns the given percentile (0–100) using linear interpolation between ranks,
/// or `None` for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not contain NaN"));
    let pct = pct.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let upper = rank.ceil() as usize;
    let weight = rank - lower as f64;
    Some(sorted[lower] * (1.0 - weight) + sorted[upper] * weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slices_return_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[], 0.0), None);
    }

    #[test]
    fn median_even_and_odd() {
        // The 50th percentile is the middle value, or the mean of the two
        // middle values, whatever the input order.
        assert_eq!(percentile(&[1.0, 3.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.5));
    }

    #[test]
    fn percentile_interpolates() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert!((percentile(&values, 70.0).unwrap() - 70.3).abs() < 0.5);
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
    }

    #[test]
    fn percentile_single_value() {
        assert_eq!(percentile(&[42.0], 99.0), Some(42.0));
    }
}
