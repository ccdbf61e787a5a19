//! Output checks. An operation fails when its output breaks an invariant
//! or its digest differs from the expected one: the golden value where
//! the output does not depend on the seed, otherwise the first output of
//! the same input in this process.

use std::collections::BTreeMap;

use fcad_serve::ServeReport;

/// 64-bit FNV-1a: a stable digest of an output's canonical text.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Expected digests per case label.
#[derive(Debug, Default)]
pub struct Expected {
    digests: BTreeMap<String, u64>,
}

impl Expected {
    /// Pins `case` to a known digest.
    pub fn pin(&mut self, case: &str, digest: u64) {
        self.digests.insert(case.to_owned(), digest);
    }

    /// Checks `digest` against the expectation for `case`; the first
    /// digest seen for an unpinned case becomes its expectation.
    pub fn check(&mut self, case: &str, digest: u64) -> Result<(), String> {
        let expected = *self.digests.entry(case.to_owned()).or_insert(digest);
        if expected == digest {
            Ok(())
        } else {
            Err(format!(
                "{case}: digest {digest:016x} != expected {expected:016x}"
            ))
        }
    }
}

/// Simulated events of a serve call: every request is issued once and
/// completes at most once.
pub fn sim_events(report: &ServeReport) -> u64 {
    report.issued + report.completed
}

/// Checks a serve report's invariants and returns the digest of its JSON
/// line.
pub fn check_serve(report: &ServeReport) -> Result<u64, String> {
    let settled = report.completed + report.dropped + report.lost + report.shed + report.expired;
    if settled != report.issued {
        return Err(format!(
            "conservation: completed+dropped+lost+shed+expired = {settled} != issued {}",
            report.issued
        ));
    }
    if report.completed == 0 {
        return Err("the run completed no request".to_owned());
    }
    Ok(fnv1a(report.to_json_line().as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_serve::{simulate, BranchService, Scenario, SchedulerKind, ServiceModel};

    fn small_report() -> ServeReport {
        let model = ServiceModel {
            branches: vec![BranchService {
                name: "texture".to_owned(),
                frame_time_us: 4_000,
                fill_time_us: 1_000,
                max_batch: 2,
                priority: 1.0,
            }],
        };
        simulate(&model, &Scenario::b2(), SchedulerKind::BatchAggregating)
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn first_digest_becomes_the_expectation() {
        let mut expected = Expected::default();
        assert!(expected.check("case", 7).is_ok());
        assert!(expected.check("case", 7).is_ok());
        assert!(expected.check("case", 8).is_err());
        assert!(expected.check("other", 8).is_ok());
    }

    #[test]
    fn a_perturbed_expected_digest_fails_the_op() {
        let report = small_report();
        let digest = check_serve(&report).expect("a real report passes its invariants");
        let mut expected = Expected::default();
        expected.pin("b2", digest);
        assert!(expected.check("b2", digest).is_ok());
        let mut perturbed = Expected::default();
        perturbed.pin("b2", digest ^ 1);
        assert!(perturbed.check("b2", digest).is_err());
    }

    #[test]
    fn broken_conservation_fails_the_op() {
        let mut report = small_report();
        report.dropped += 1;
        assert!(check_serve(&report).unwrap_err().contains("conservation"));
    }
}
