//! Queue-time expiry policy: what the engine does with a request whose
//! class deadline has already passed while it sat in a shard queue.
//!
//! Admission can only reject work whose *projected* wait misses the
//! budget; once admitted, the legacy engine serves every queued request
//! unconditionally — even a frame that expired in the queue, which burns
//! fabric time on output no client can render. [`DeadlinePolicy`] makes
//! that choice explicit: the default [`Off`](DeadlinePolicy::Off) keeps
//! every legacy entry point byte-identical, while
//! [`CullExpired`](DeadlinePolicy::CullExpired) retires already-expired
//! requests at dispatch time as the fifth terminal outcome `expired`
//! (distinct from `shed`, which rejects *before* the queue), preserving
//! the conservation identity
//! `completed + dropped + lost + shed + expired == issued`.

/// What to do with a queued request whose deadline has already passed
/// when the fabric frees to serve it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlinePolicy {
    /// Serve every queued request regardless of its deadline — the legacy
    /// behaviour, byte-identical to every pre-deadline entry point.
    #[default]
    Off,
    /// At dispatch time, retire queued requests whose deadline has
    /// already passed (`now > issued_at + budget`) without serving them;
    /// they are counted `expired`, and the fabric moves straight on to
    /// work that can still meet its SLO.
    CullExpired,
}

impl DeadlinePolicy {
    /// Whether dispatch should cull already-expired queued requests.
    #[inline]
    pub(crate) fn culls(&self) -> bool {
        matches!(self, DeadlinePolicy::CullExpired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_the_default_and_culls_nothing() {
        assert_eq!(DeadlinePolicy::default(), DeadlinePolicy::Off);
        assert!(!DeadlinePolicy::Off.culls());
        assert!(DeadlinePolicy::CullExpired.culls());
    }
}
