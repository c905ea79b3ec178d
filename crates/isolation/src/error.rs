//! Security exceptions raised by the isolation runtime.

use std::fmt;

/// Raised when a processing unit attempts an operation that would violate isolation:
/// reaching a non-white-listed target or touching an unregistered duplicated field.
///
/// This is the Rust rendering of the `SecurityException` the paper's interceptors
/// throw (§4.2, "Automatic runtime injection").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityException {
    /// The target or operation that was blocked.
    pub target: String,
    /// Why the access was denied.
    pub reason: String,
}

impl SecurityException {
    /// Creates a new security exception.
    pub fn new(target: impl Into<String>, reason: impl Into<String>) -> Self {
        SecurityException {
            target: target.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SecurityException {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "security exception: access to `{}` denied: {}",
            self.target, self.reason
        )
    }
}

impl std::error::Error for SecurityException {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_target_and_reason() {
        let e = SecurityException::new("java.lang.Thread.threadSeqNum", "mutable static field");
        let s = e.to_string();
        assert!(s.contains("threadSeqNum"));
        assert!(s.contains("mutable static field"));
    }

    #[test]
    fn is_std_error() {
        fn takes_error<E: std::error::Error>(_e: E) {}
        takes_error(SecurityException::new("t", "r"));
    }
}
