//! Compression codec primitives used across DSLog.
//!
//! This crate is a self-contained substrate implementing the byte- and
//! bit-level encodings DSLog's storage format depends on (the column
//! encodings only the baseline formats use live in `dslog-baselines`):
//!
//! * [`varint`] — LEB128 unsigned varints and zig-zag signed varints.
//! * [`bitio`] — LSB-first bit-level reader/writer.
//! * [`huffman`] — canonical, length-limited Huffman coding.
//! * [`lz77`] — hash-chain LZ77 matcher (32 KiB window).
//! * [`deflate`] — a DEFLATE-style block format (LZ77 + dynamic Huffman).
//! * [`gzip`] — gzip-like container (magic, CRC32, size) around [`deflate`].
//! * [`crc32`] — table-driven CRC-32 (IEEE polynomial).
//!
//! The DEFLATE/gzip implementation here intentionally mirrors RFC 1951/1952's
//! *algorithmic structure* (LZ77 window, literal/length + distance alphabets
//! with extra bits, dynamic canonical Huffman tables, stored-block fallback)
//! but uses its own framing: DSLog never needs to interoperate with external
//! gzip streams, only to measure what a general-purpose LZ+entropy codec does
//! to lineage tables.

#![forbid(unsafe_code)]

pub mod bitio;
pub mod crc32;
pub mod deflate;
pub mod gzip;
pub mod huffman;
pub mod lz77;
pub mod varint;

/// Errors produced while decoding any of the codec formats in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a complete value could be decoded.
    UnexpectedEof,
    /// A varint exceeded the maximum encodable width.
    VarintOverflow,
    /// A header field or tag byte had an invalid value.
    InvalidFormat(&'static str),
    /// Stored checksum did not match the recomputed checksum.
    ChecksumMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::VarintOverflow => write!(f, "varint overflow"),
            CodecError::InvalidFormat(what) => write!(f, "invalid format: {what}"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience alias for codec results.
pub type Result<T> = std::result::Result<T, CodecError>;
