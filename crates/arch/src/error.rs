//! Error type for hardware-model construction and resource management.

use crate::fault::LoadFault;
use crate::resources::Resources;
use std::error::Error;
use std::fmt;

/// Errors produced by the architecture model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArchError {
    /// A fabric allocation exceeded the free resources.
    InsufficientResources {
        /// What the caller asked for.
        requested: Resources,
        /// What was actually free.
        available: Resources,
    },
    /// A parameter combination is invalid (detail in the message).
    InvalidParams(String),
    /// An operation addressed a fabric element in the wrong state
    /// (e.g. freeing an empty PRC).
    InvalidState(String),
    /// A configuration load was hit by an injected fault (CRC error or
    /// permanent container failure). The payload records the fabric, the
    /// configuration-port time wasted, and the earliest cycle at which a
    /// retry can be admitted.
    LoadFault(LoadFault),
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::InsufficientResources {
                requested,
                available,
            } => write!(
                f,
                "insufficient reconfigurable fabric: requested {requested}, available {available}"
            ),
            ArchError::InvalidParams(msg) => write!(f, "invalid architecture parameters: {msg}"),
            ArchError::InvalidState(msg) => write!(f, "invalid fabric state: {msg}"),
            ArchError::LoadFault(fault) => write!(f, "load fault: {fault}"),
        }
    }
}

impl Error for ArchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArchError>();
    }

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = ArchError::InsufficientResources {
            requested: Resources::new(2, 1),
            available: Resources::new(1, 0),
        };
        let s = e.to_string();
        assert!(s.contains("insufficient"));
        assert!(s.contains("2 CG"));
    }
}
