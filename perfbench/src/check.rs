//! Output checks. A run's result is correct only when every sample of
//! the workload — all untraced repeats and the traced run — produced the
//! same digest, every completed flow delivered exactly its size, and on
//! `stream_retire` every started flow retired while the flow slab stayed
//! bounded (the `tfc-million` assertion: capacity below a tenth of the
//! flows retired). A run that fails a check counts every flow as failed.

use crate::run::Sample;
use crate::workload::Workload;

/// The checked result of one benchmark invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Whether every check passed.
    pub correct: bool,
    /// Flows attempted (started).
    pub attempted: u64,
    /// Flows failed: not completed at drain, or every flow when a check
    /// failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

/// Checks the samples of one invocation; the first sample is the
/// reference the others must match.
///
/// # Panics
///
/// Panics on an empty sample list.
pub fn verify(workload: Workload, samples: &[Sample]) -> Verdict {
    let first = samples.first().expect("at least one sample");
    let attempted = first.get("flows_started") as u64;
    let mut problems = Vec::new();
    for (i, s) in samples.iter().enumerate().skip(1) {
        if s.digest != first.digest {
            problems.push(format!(
                "sample {i}: digest {:016x} differs from {:016x}",
                s.digest, first.digest
            ));
        }
    }
    for (i, s) in samples.iter().enumerate() {
        let bad = s.get("flows_bad_size");
        if bad > 0.0 {
            problems.push(format!(
                "sample {i}: {bad} flows delivered a byte count other than their size"
            ));
        }
        if workload == Workload::StreamRetire {
            let (started, retired) = (s.get("flows_started"), s.get("flows_retired"));
            if retired < started {
                problems.push(format!("sample {i}: retired {retired} of {started} flows"));
            }
            let cap = s.get("flowtable.slab_capacity");
            if cap * 10.0 >= retired {
                problems.push(format!(
                    "sample {i}: flow slab capacity {cap} not below a tenth of {retired} retired flows"
                ));
            }
        }
    }
    let correct = problems.is_empty();
    let completed = first.get("flows_completed") as u64;
    Verdict {
        correct,
        attempted: attempted.max(1),
        failed: if correct {
            attempted.saturating_sub(completed)
        } else {
            attempted.max(1)
        },
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(digest: u64) -> Sample {
        let mut s = Sample {
            digest,
            ..Sample::default()
        };
        for (k, v) in [
            ("flows_started", 500.0),
            ("flows_completed", 500.0),
            ("flows_retired", 500.0),
            ("flowtable.slab_capacity", 20.0),
            ("flows_bad_size", 0.0),
        ] {
            s.values.insert(k.to_string(), v);
        }
        s
    }

    #[test]
    fn clean_samples_pass() {
        let v = verify(Workload::StreamRetire, &[sample(1), sample(1)]);
        assert!(v.correct, "{:?}", v.problems);
        assert_eq!((v.attempted, v.failed), (500, 0));
    }

    #[test]
    fn digest_mismatch_fails_every_flow() {
        let v = verify(Workload::IncastMix, &[sample(1), sample(1), sample(2)]);
        assert!(!v.correct);
        assert_eq!((v.attempted, v.failed), (500, 500));
        assert!(v.problems[0].contains("digest"));
    }

    #[test]
    fn wrong_byte_count_fails_every_flow() {
        let mut bad = sample(1);
        bad.values.insert("flows_bad_size".into(), 1.0);
        let v = verify(Workload::FatTreeFaults, &[bad]);
        assert!(!v.correct);
        assert_eq!(v.failed, 500);
    }

    #[test]
    fn missed_retire_target_or_unbounded_slab_fails() {
        let mut short = sample(1);
        short.values.insert("flows_retired".into(), 499.0);
        assert!(!verify(Workload::StreamRetire, &[short]).correct);
        let mut fat = sample(1);
        fat.values.insert("flowtable.slab_capacity".into(), 50.0);
        let v = verify(Workload::StreamRetire, &[fat.clone()]);
        assert!(!v.correct && v.failed == 500);
        // The retirement checks apply to the streaming workload only.
        assert!(verify(Workload::IncastMix, &[fat]).correct);
    }

    #[test]
    fn incomplete_flows_count_as_failed_without_failing_checks() {
        let mut s = sample(1);
        s.values.insert("flows_completed".into(), 490.0);
        let v = verify(Workload::IncastMix, &[s]);
        assert!(v.correct);
        assert_eq!(v.failed, 10);
    }

    #[test]
    fn size_check_flags_short_and_long_deliveries() {
        use crate::workload::size_ok;
        assert!(size_ok(Some(2_000), 2_000));
        assert!(!size_ok(Some(2_000), 1_999));
        assert!(!size_ok(Some(2_000), 2_001));
        assert!(!size_ok(None, 0));
    }
}
