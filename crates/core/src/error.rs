//! The crate-wide error type. Every fallible entry point of the
//! serving surface — mapped-database construction, index accessors,
//! search requests, index persistence — returns [`GdimError`] instead
//! of panicking, so a long-running server can reject one bad request
//! (or one corrupt index file) and keep serving the rest.

use std::fmt;
use std::io;

/// Errors surfaced by the query and persistence paths of `gdim-core`.
#[derive(Debug)]
#[non_exhaustive]
pub enum GdimError {
    /// A graph id addressed a graph outside the database.
    GraphOutOfRange {
        /// The requested graph id.
        id: usize,
        /// Number of graphs in the database.
        len: usize,
    },
    /// A selected dimension id addressed a feature outside the space.
    DimensionOutOfRange {
        /// The offending feature id.
        id: u32,
        /// Number of features in the space.
        num_features: usize,
    },
    /// A weight vector did not cover the feature space it was paired
    /// with (weighted mappings need one weight per mined feature).
    WeightsMismatch {
        /// Expected length (`FeatureSpace::num_features`).
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// Underlying I/O failure while saving or loading an index.
    Io(io::Error),
    /// A persisted index file failed structural validation.
    Corrupt(String),
    /// A persisted index was written by an unknown format version.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Newest version this build can read.
        supported: u32,
    },
    /// A shard id addressed a shard outside a sharded index (the
    /// sharded layer lives in `gdim-shard`; the variant lives here so
    /// the whole serving surface shares one error type).
    ShardOutOfRange {
        /// The requested shard id.
        id: usize,
        /// Number of shards in the index.
        shards: usize,
    },
    /// A write-ahead log ended in a torn or unreadable tail that could
    /// not be reconciled with a valid record prefix. Recovery trusts
    /// the prefix before the tear; this error means the log is damaged
    /// *within* what should have been trusted (e.g. a CRC-valid frame
    /// whose payload fails to decode), so replaying further would
    /// corrupt the index.
    TornLog {
        /// Bytes of the log that form a valid record stream.
        trusted: u64,
        /// Total bytes found in the log file.
        total: u64,
        /// Human-readable description of the first failure.
        detail: String,
    },
    /// A checkpoint generation referenced by the durable directory's
    /// `CURRENT` file is missing or fails validation, so the index
    /// cannot be recovered from it.
    CorruptCheckpoint {
        /// The generation number that failed to load.
        generation: u64,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// The durable handle stopped accepting mutations after a failure
    /// that left its in-memory state ahead of what is durably
    /// published (e.g. a rebuild whose checkpoint failed): logging
    /// further mutations would record them against state that cannot
    /// be reproduced on recovery. Reads keep working; mutations fail
    /// until the directory is reopened.
    DurablePoisoned {
        /// Human-readable description of the failure that poisoned it.
        detail: String,
    },
}

impl GdimError {
    /// The error's **stable, machine-readable code**: a lowercase
    /// `snake_case` string naming the variant, independent of the
    /// human-readable [`Display`](fmt::Display) message. This is the
    /// wire contract a served error body carries (and what clients
    /// match on), so codes must never change spelling or meaning once
    /// released — the full mapping is pinned by a unit test.
    pub fn code(&self) -> &'static str {
        match self {
            GdimError::GraphOutOfRange { .. } => "graph_out_of_range",
            GdimError::DimensionOutOfRange { .. } => "dimension_out_of_range",
            GdimError::WeightsMismatch { .. } => "weights_mismatch",
            GdimError::Io(_) => "io",
            GdimError::Corrupt(_) => "corrupt",
            GdimError::UnsupportedVersion { .. } => "unsupported_version",
            GdimError::ShardOutOfRange { .. } => "shard_out_of_range",
            GdimError::TornLog { .. } => "torn_log",
            GdimError::CorruptCheckpoint { .. } => "corrupt_checkpoint",
            GdimError::DurablePoisoned { .. } => "durable_poisoned",
        }
    }

    /// Whether the error indicts the *request* (a caller addressed a
    /// graph/shard/dimension that does not exist)
    /// rather than the server's own state (I/O failures, corrupt or
    /// unreadable index files). A serving layer maps caller faults to
    /// 4xx statuses and server faults to 5xx.
    pub fn is_caller_fault(&self) -> bool {
        match self {
            GdimError::GraphOutOfRange { .. }
            | GdimError::DimensionOutOfRange { .. }
            | GdimError::WeightsMismatch { .. }
            | GdimError::ShardOutOfRange { .. } => true,
            GdimError::Io(_)
            | GdimError::Corrupt(_)
            | GdimError::UnsupportedVersion { .. }
            | GdimError::TornLog { .. }
            | GdimError::CorruptCheckpoint { .. }
            | GdimError::DurablePoisoned { .. } => false,
        }
    }
}

impl fmt::Display for GdimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdimError::GraphOutOfRange { id, len } => {
                write!(f, "graph id {id} out of range for database of {len} graphs")
            }
            GdimError::DimensionOutOfRange { id, num_features } => {
                write!(
                    f,
                    "dimension id {id} out of range for feature space of {num_features} features"
                )
            }
            GdimError::WeightsMismatch { expected, got } => {
                write!(f, "weight vector has {got} entries, expected {expected}")
            }
            GdimError::Io(e) => write!(f, "index i/o error: {e}"),
            GdimError::Corrupt(msg) => write!(f, "corrupt index data: {msg}"),
            GdimError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "index format version {found} not supported (newest readable: {supported})"
                )
            }
            GdimError::ShardOutOfRange { id, shards } => {
                write!(f, "shard id {id} out of range for index of {shards} shards")
            }
            GdimError::TornLog {
                trusted,
                total,
                detail,
            } => {
                write!(
                    f,
                    "write-ahead log is torn ({trusted}/{total} bytes trusted): {detail}"
                )
            }
            GdimError::CorruptCheckpoint { generation, detail } => {
                write!(f, "checkpoint generation {generation} is corrupt: {detail}")
            }
            GdimError::DurablePoisoned { detail } => {
                write!(
                    f,
                    "durable index no longer accepts mutations (reopen to recover): {detail}"
                )
            }
        }
    }
}

impl std::error::Error for GdimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GdimError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GdimError {
    fn from(e: io::Error) -> Self {
        GdimError::Io(e)
    }
}

/// Bytes of a durable format (snapshot, MANIFEST) that the shared
/// codec refused are a corrupt file.
impl From<gdim_wal::codec::CodecError> for GdimError {
    fn from(e: gdim_wal::codec::CodecError) -> Self {
        GdimError::Corrupt(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = GdimError::GraphOutOfRange { id: 9, len: 3 };
        assert!(e.to_string().contains('9') && e.to_string().contains('3'));
        let e = GdimError::UnsupportedVersion {
            found: 7,
            supported: 1,
        };
        assert!(e.to_string().contains('7'));
        let e = GdimError::WeightsMismatch {
            expected: 10,
            got: 4,
        };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn error_codes_are_pinned() {
        // The full code table, pinned so the wire contract can never
        // silently change: adding a variant must extend this test, and
        // respelling a code must fail it.
        let io = GdimError::Io(io::Error::other("x"));
        let table: [(GdimError, &str, bool); 10] = [
            (
                GdimError::GraphOutOfRange { id: 0, len: 0 },
                "graph_out_of_range",
                true,
            ),
            (
                GdimError::DimensionOutOfRange {
                    id: 0,
                    num_features: 0,
                },
                "dimension_out_of_range",
                true,
            ),
            (
                GdimError::WeightsMismatch {
                    expected: 1,
                    got: 2,
                },
                "weights_mismatch",
                true,
            ),
            (io, "io", false),
            (GdimError::Corrupt(String::new()), "corrupt", false),
            (
                GdimError::UnsupportedVersion {
                    found: 9,
                    supported: 2,
                },
                "unsupported_version",
                false,
            ),
            (
                GdimError::ShardOutOfRange { id: 3, shards: 2 },
                "shard_out_of_range",
                true,
            ),
            (
                GdimError::TornLog {
                    trusted: 8,
                    total: 20,
                    detail: String::new(),
                },
                "torn_log",
                false,
            ),
            (
                GdimError::CorruptCheckpoint {
                    generation: 3,
                    detail: String::new(),
                },
                "corrupt_checkpoint",
                false,
            ),
            (
                GdimError::DurablePoisoned {
                    detail: String::new(),
                },
                "durable_poisoned",
                false,
            ),
        ];
        for (err, code, caller_fault) in table {
            assert_eq!(err.code(), code);
            assert_eq!(err.is_caller_fault(), caller_fault, "{code}");
            // Codes are identifier-shaped: lowercase snake_case.
            assert!(code.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let inner = io::Error::new(io::ErrorKind::NotFound, "nope");
        let e: GdimError = inner.into();
        assert!(matches!(e, GdimError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
