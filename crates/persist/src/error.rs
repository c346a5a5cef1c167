//! Structured errors for snapshot encode/decode.
//!
//! Every way a snapshot can be unusable — truncated file, flipped bit,
//! newer format, drifted template — maps to a distinct variant so callers
//! (and tests) can tell "retrain" apart from "upgrade the binary". Decoding
//! never panics on hostile bytes; it returns one of these.

use std::fmt;
use std::io;

/// Result alias used throughout `gana-persist`.
pub type Result<T> = std::result::Result<T, PersistError>;

/// Everything that can go wrong while saving or loading a snapshot.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Underlying filesystem failure (open/read/write/rename).
    Io(io::Error),
    /// The file does not start with the snapshot magic bytes.
    BadMagic,
    /// The container format version is newer than this binary supports.
    VersionSkew {
        /// Version found in the file.
        found: u32,
        /// Highest version this binary can read.
        supported: u32,
    },
    /// A section's own version is newer than this binary supports.
    SectionVersionSkew {
        /// Section kind tag.
        kind: u16,
        /// Version found in the section header.
        found: u16,
        /// Highest version this binary can read.
        supported: u16,
    },
    /// The file ends before the declared data does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A section's payload does not match its recorded CRC32.
    CrcMismatch {
        /// Section kind tag whose checksum failed.
        kind: u16,
    },
    /// A required section is absent from the container.
    MissingSection {
        /// Section kind tag that was expected.
        kind: u16,
    },
    /// A model section carries int8 quantized weights, which this build
    /// no longer serves; re-save the snapshot from its checkpoint.
    QuantizedWeights,
    /// The bytes decoded, but the decoded values are inconsistent
    /// (invalid enum tag, failed re-derivation check, rejected matrix…).
    Malformed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a gana snapshot (bad magic)"),
            PersistError::VersionSkew { found, supported } => write!(
                f,
                "snapshot container version {found} is newer than supported version {supported}"
            ),
            PersistError::SectionVersionSkew {
                kind,
                found,
                supported,
            } => write!(
                f,
                "section kind {kind} version {found} is newer than supported version {supported}"
            ),
            PersistError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} bytes, only {available} available"
            ),
            PersistError::CrcMismatch { kind } => {
                write!(f, "section kind {kind} failed its CRC32 check")
            }
            PersistError::MissingSection { kind } => {
                write!(f, "snapshot is missing required section kind {kind}")
            }
            PersistError::QuantizedWeights => write!(
                f,
                "snapshot holds int8 quantized GCN weights, which this build does not serve; \
                 re-save it from its checkpoint (`gana snapshot save --model FILE`)"
            ),
            PersistError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}
