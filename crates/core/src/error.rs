//! Error types for the DSLog core crate.

use dslog_codecs::CodecError;

/// Errors surfaced by the DSLog public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DslogError {
    /// Referenced an array name that was never defined.
    UnknownArray(String),
    /// An array with this name already exists with a different shape.
    ArrayShapeConflict(String),
    /// No stored lineage connects two consecutive arrays on a query path.
    NoLineagePath { from: String, to: String },
    /// A query path must name at least two arrays.
    PathTooShort,
    /// Query cells did not match the arity of the first array on the path.
    QueryArityMismatch { expected: usize, got: usize },
    /// A query cell lies outside the bounds of the queried array.
    CellOutOfBounds { index: Vec<i64>, shape: Vec<usize> },
    /// A lineage table's arity disagrees with the registered array shapes
    /// (or a `register_operation` call's capture count with its number of
    /// (input, output) pairs).
    ArityMismatch { expected: usize, got: usize },
    /// An array or edge has more or fewer axes than a table file can hold:
    /// an array needs at least one axis, and an edge's output plus input
    /// axes number at most `storage::MAX_EDGE_ARITY`.
    UnsupportedArity { got: usize, min: usize, max: usize },
    /// An edge for this exact `(input, output)` pair is already stored.
    /// Batched ingest ([`crate::service::DslogService::ingest_batch`])
    /// rejects duplicates — silently overwriting would let the stored
    /// edge count and the service's ingest counters drift apart.
    DuplicateEdge {
        /// Input array of the already-stored edge.
        in_array: String,
        /// Output array of the already-stored edge.
        out_array: String,
    },
    /// A generalized (symbolic) table was used where an instantiated one is required.
    NotInstantiated,
    /// Tried to instantiate a symbolic table with an incompatible shape.
    BadInstantiation(&'static str),
    /// Deserialization failure in the storage layer.
    Codec(CodecError),
    /// Storage format violation.
    Corrupt(&'static str),
    /// Filesystem failure while persisting or opening a database directory.
    /// Carries the operation description and the OS error text (the error
    /// type stays `Clone + PartialEq` this way).
    Io(String),
    /// `commit` was called on a database that is not bound to a directory
    /// (it was never saved to nor opened from disk).
    NotBound,
    /// Service teardown was requested while other live references (server
    /// threads, leaked snapshot handles) still point at it. The service
    /// state is intact; retry after those references are gone.
    ServiceBusy(&'static str),
    /// An `as_of` open asked for a generation that was never committed, or
    /// whose segments the retention sweep already reclaimed.
    GenerationNotRetained(u64),
    /// An [`OpenOptions`](crate::api::OpenOptions) builder combined
    /// settings that contradict each other (e.g. `as_of` + `lazy`), or
    /// that contradict the database directory (a `gzip` mode its
    /// checkpoint does not record).
    InvalidOptions(&'static str),
    /// Another handle — in this process or another — holds the database
    /// directory's writer lock (`writer.lock`): a directory has one writer.
    DirectoryLocked,
    /// A handle's first commit found a generation newer than the one it
    /// opened or last committed: another writer committed in between, and
    /// this handle's state would revert it. Nothing was written; reopen.
    StaleGeneration {
        /// The generation this handle is bound to.
        bound: u64,
        /// The newer generation the directory holds.
        committed: u64,
    },
}

impl std::fmt::Display for DslogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DslogError::UnknownArray(name) => write!(f, "unknown array: {name}"),
            DslogError::ArrayShapeConflict(name) => {
                write!(f, "array {name} already defined with a different shape")
            }
            DslogError::NoLineagePath { from, to } => {
                write!(f, "no stored lineage between {from} and {to}")
            }
            DslogError::PathTooShort => write!(f, "query path needs at least two arrays"),
            DslogError::QueryArityMismatch { expected, got } => {
                write!(f, "query cells have arity {got}, array has {expected} axes")
            }
            DslogError::CellOutOfBounds { index, shape } => {
                write!(f, "cell {index:?} out of bounds for shape {shape:?}")
            }
            DslogError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "lineage arity {got} does not match array axes {expected}"
                )
            }
            DslogError::UnsupportedArity { got, min, max } => {
                write!(f, "{got} axes is outside the supported {min}..={max}")
            }
            DslogError::DuplicateEdge {
                in_array,
                out_array,
            } => {
                write!(
                    f,
                    "edge {in_array} -> {out_array} is already stored; duplicate ingest rejected"
                )
            }
            DslogError::NotInstantiated => {
                write!(f, "table contains symbolic intervals; instantiate it first")
            }
            DslogError::BadInstantiation(what) => write!(f, "bad instantiation: {what}"),
            DslogError::Codec(e) => write!(f, "codec error: {e}"),
            DslogError::Corrupt(what) => write!(f, "corrupt storage: {what}"),
            DslogError::Io(what) => write!(f, "io error: {what}"),
            DslogError::NotBound => write!(
                f,
                "database is not bound to a directory; save(dir, gzip) or open one first"
            ),
            DslogError::ServiceBusy(what) => write!(f, "service busy: {what}"),
            DslogError::GenerationNotRetained(generation) => write!(
                f,
                "generation {generation} is not retained in the database directory"
            ),
            DslogError::InvalidOptions(what) => write!(f, "invalid options: {what}"),
            DslogError::DirectoryLocked => {
                write!(f, "database directory is locked by another writer")
            }
            DslogError::StaleGeneration { bound, committed } => write!(
                f,
                "another writer committed generation {committed} after this handle's \
                 generation {bound}; reopen the database"
            ),
        }
    }
}

impl std::error::Error for DslogError {}

impl DslogError {
    /// Wrap a `std::io::Error` with the operation that failed.
    pub fn io(op: &str, e: std::io::Error) -> Self {
        DslogError::Io(format!("{op}: {e}"))
    }
}

impl From<CodecError> for DslogError {
    fn from(e: CodecError) -> Self {
        DslogError::Codec(e)
    }
}

/// Convenience alias for DSLog results.
pub type Result<T> = std::result::Result<T, DslogError>;
