//! Solver error type.

use std::fmt;
use tiga_model::ModelError;
use tiga_tctl::TctlError;

/// Errors raised by the timed-game solver.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolverError {
    /// The model could not be evaluated (guards, invariants, updates).
    Model(ModelError),
    /// The test purpose could not be evaluated in some state.
    Purpose(TctlError),
    /// Exploration exceeded the configured state limit.
    StateLimitExceeded {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// The fixpoint did not converge within the configured round budget
    /// ([`crate::SolveOptions::max_rounds`]): the sets computed so far are
    /// not a verdict.
    RoundLimitExceeded {
        /// The configured budget that ran out.
        limit: usize,
    },
    /// The requested objective is not supported by this solver entry point.
    Unsupported(String),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Model(e) => write!(f, "model error: {e}"),
            SolverError::Purpose(e) => write!(f, "test purpose error: {e}"),
            SolverError::StateLimitExceeded { limit } => {
                write!(
                    f,
                    "symbolic exploration exceeded the limit of {limit} discrete states"
                )
            }
            SolverError::RoundLimitExceeded { limit } => {
                write!(
                    f,
                    "the fixpoint did not converge within max_rounds = {limit}"
                )
            }
            SolverError::Unsupported(what) => write!(f, "unsupported objective: {what}"),
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Model(e) => Some(e),
            SolverError::Purpose(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SolverError {
    fn from(e: ModelError) -> Self {
        SolverError::Model(e)
    }
}

impl From<TctlError> for SolverError {
    fn from(e: TctlError) -> Self {
        SolverError::Purpose(e)
    }
}
