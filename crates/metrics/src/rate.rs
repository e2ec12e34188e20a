//! Fixed-window rate (goodput) metering.

use crate::{timeseries::TimeSeries, NANOS_PER_SEC};

/// Accumulates byte counts and emits a rate sample per fixed window.
///
/// This is how the paper's goodput curves are produced: bytes delivered
/// to the application are counted, and every `window_ns` the meter emits
/// one `(time, bits_per_second)` point (e.g. 20 ms windows in Fig. 9).
///
/// # Examples
///
/// ```
/// // 1 ms windows; 125_000 bytes per window = 1 Gbps.
/// let mut m = tfc_metrics::RateMeter::new(1_000_000);
/// m.add(0, 125_000);
/// m.flush(2_000_000);
/// let pts = m.series().points();
/// assert_eq!(pts[0].1, 1e9);
/// ```
#[derive(Debug, Clone)]
pub struct RateMeter {
    window_ns: u64,
    window_start: u64,
    bytes_in_window: u64,
    series: TimeSeries,
}

impl RateMeter {
    /// Creates a meter emitting one sample per `window_ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "zero window");
        Self {
            window_ns,
            window_start: 0,
            bytes_in_window: 0,
            series: TimeSeries::new(),
        }
    }

    /// Records `bytes` delivered at time `t` (ns), closing any windows
    /// that ended before `t`.
    pub fn add(&mut self, t: u64, bytes: u64) {
        self.close_until(t);
        self.bytes_in_window += bytes;
    }

    /// Closes every window ending at or before `t`, emitting samples
    /// (including zero-rate windows, so gaps show up in the curve).
    pub fn flush(&mut self, t: u64) {
        self.close_until(t);
    }

    /// The emitted rate series in bits per second.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Mean rate over all emitted windows, in bits per second.
    pub fn mean_bps(&self) -> f64 {
        self.series.mean_value().unwrap_or(0.0)
    }

    fn close_until(&mut self, t: u64) {
        while t >= self.window_start + self.window_ns {
            let bps = self.bytes_in_window as f64 * 8.0 * NANOS_PER_SEC / self.window_ns as f64;
            self.series.push(self.window_start + self.window_ns, bps);
            self.window_start += self.window_ns;
            self.bytes_in_window = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_rate_per_window() {
        let mut m = RateMeter::new(1_000_000);
        m.add(100, 125_000); // 1 Gbps worth in 1 ms
        m.add(1_500_000, 62_500); // 0.5 Gbps worth in the second window
        m.flush(2_000_000);
        let pts = m.series().points();
        assert_eq!(pts.len(), 2);
        assert!((pts[0].1 - 1e9).abs() < 1.0);
        assert!((pts[1].1 - 5e8).abs() < 1.0);
    }

    #[test]
    fn zero_windows_emitted() {
        let mut m = RateMeter::new(1_000);
        m.flush(3_000);
        assert_eq!(m.series().len(), 3);
        assert_eq!(m.mean_bps(), 0.0);
    }

    #[test]
    fn late_add_closes_intermediate_windows() {
        let mut m = RateMeter::new(1_000);
        m.add(0, 10);
        m.add(2_500, 10);
        m.flush(3_000);
        let pts = m.series().points();
        assert_eq!(pts.len(), 3);
        assert!(pts[1].1 == 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        RateMeter::new(0);
    }
}
