//! Timestamped value traces.

/// A trace of `(time_ns, value)` points, e.g. a queue-length trace.
///
/// Points must be appended in non-decreasing time order, which the
/// simulator guarantees.
///
/// # Examples
///
/// ```
/// let mut ts = tfc_metrics::TimeSeries::new();
/// ts.push(0, 0.0);
/// ts.push(1_000, 1500.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.max_value(), Some(1500.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last appended timestamp.
    pub fn push(&mut self, t: u64, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time went backwards: {t} < {last}");
        }
        self.points.push((t, v));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Largest value, or `None` if empty.
    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).reduce(f64::max)
    }

    /// Mean value (unweighted by time), or `None` if empty.
    pub fn mean_value(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// Restricts to points with `t` in `[start, end)`.
    pub fn window(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points
            .iter()
            .copied()
            .filter(move |&(t, _)| t >= start && t < end)
    }

    /// Down-samples to at most `max_points` for printing.
    pub fn sampled(&self, max_points: usize) -> Vec<(u64, f64)> {
        if self.points.len() <= max_points || max_points == 0 {
            return self.points.clone();
        }
        let stride = self.points.len().div_ceil(max_points);
        let mut out: Vec<(u64, f64)> = self.points.iter().step_by(stride).copied().collect();
        if out.last() != self.points.last() {
            out.push(*self.points.last().expect("non-empty"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut ts = TimeSeries::new();
        ts.push(0, 1.0);
        ts.push(10, 3.0);
        ts.push(10, 2.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.max_value(), Some(3.0));
        assert_eq!(ts.mean_value(), Some(2.0));
    }

    #[test]
    #[should_panic]
    fn rejects_time_reversal() {
        let mut ts = TimeSeries::new();
        ts.push(10, 1.0);
        ts.push(5, 1.0);
    }

    #[test]
    fn window_filters() {
        let mut ts = TimeSeries::new();
        for t in 0..10 {
            ts.push(t, t as f64);
        }
        let w: Vec<_> = ts.window(3, 6).collect();
        assert_eq!(w, vec![(3, 3.0), (4, 4.0), (5, 5.0)]);
    }

    #[test]
    fn sampled_bounds_size() {
        let mut ts = TimeSeries::new();
        for t in 0..1000 {
            ts.push(t, 0.0);
        }
        let s = ts.sampled(50);
        assert!(s.len() <= 51);
        assert_eq!(s.last().copied(), Some((999, 0.0)));
    }
}
