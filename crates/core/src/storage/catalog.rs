//! The checkpoint — `catalog.dsl`, magic `DSLGDB3` — and the committed
//! generation it describes, advanced by the commits the operation log
//! records after it (see [`super::persist`] for when each is written).
//!
//! A checkpoint names, per edge, the one backward table the edge keeps:
//! its edge mask is always 1 (backward only). A mask naming the forward
//! table, or both, is a form only earlier builds wrote, and is `Corrupt`.
//! [`Catalog::apply`] is the one replay of the log: open, `as_of`,
//! `verify` and every commit advance a generation through it.

use super::wal::{OpKind, OpRecord};
use super::wire::{read_string, read_u32_le, write_string};
use super::{ArrayMeta, FileRecord, MAX_EDGE_ARITY};
use crate::error::{DslogError, Result};
use dslog_codecs::crc32::crc32;
use dslog_codecs::varint::{read_uvarint, write_uvarint};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

pub(crate) const CATALOG_MAGIC_V3: &[u8; 8] = b"DSLGDB3\0";
pub(crate) const CATALOG_FILE: &str = "catalog.dsl";

/// The checkpoint of generation `gen`, kept under this name once a newer
/// one replaced it as `catalog.dsl`, for as long as the retention window
/// needs it.
pub(crate) fn checkpoint_name(gen: u64) -> String {
    format!("catalog.g{gen}.dsl")
}

/// The live catalog's generation and byte length from its header alone —
/// an O(1) read, whatever the catalog's size (`None` for a missing or
/// unrecognizable catalog).
pub(crate) fn peek_catalog(dir: &Path) -> Option<(u64, u64)> {
    use std::io::Read as _;
    let f = std::fs::File::open(dir.join(CATALOG_FILE)).ok()?;
    let len = f.metadata().ok()?.len();
    // magic (8), gzip flag (1), generation uvarint (at most 10).
    let mut head = Vec::with_capacity(19);
    f.take(19).read_to_end(&mut head).ok()?;
    if !head.starts_with(CATALOG_MAGIC_V3) {
        return None;
    }
    let mut pos = 9usize;
    let generation = read_uvarint(&head, &mut pos).ok()?;
    Some((generation, len))
}

/// The one edge mask a checkpoint holds: the edge's backward table.
const BACKWARD_ONLY: u8 = 1;

/// Catalogs and log records are untrusted input: a table reference must be
/// a bare `segment-*` file name inside the database directory (no
/// separators, so it can never escape it), and not a `.tmp` name the sweep
/// would reclaim.
pub(crate) fn check_segment_name(name: &str) -> Result<()> {
    let bare = !name.contains(['/', '\\']) && !name.ends_with(".tmp");
    if name.starts_with("segment-") && bare {
        Ok(())
    } else {
        Err(DslogError::Corrupt(
            "catalog references an illegal file name",
        ))
    }
}

/// A committed generation: a checkpoint as parsed (and structurally
/// validated), or one advanced by the commits the log records after it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Catalog {
    pub(crate) gzip: bool,
    /// Snapshot generation; the next commit uses a strictly larger one.
    pub(crate) generation: u64,
    pub(crate) arrays: BTreeMap<String, ArrayMeta>,
    /// Per `(input, output)` edge, the record of its backward table.
    pub(crate) edges: BTreeMap<(String, String), FileRecord>,
}

impl Catalog {
    /// The complete checkpoint bytes (magic through crc trailer), arrays
    /// and edges sorted by name for deterministic bytes.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut catalog = Vec::new();
        catalog.extend_from_slice(CATALOG_MAGIC_V3);
        catalog.push(self.gzip as u8);
        write_uvarint(&mut catalog, self.generation);
        write_uvarint(&mut catalog, self.arrays.len() as u64);
        for (name, meta) in &self.arrays {
            write_string(&mut catalog, name);
            write_uvarint(&mut catalog, meta.shape.len() as u64);
            for &d in &meta.shape {
                write_uvarint(&mut catalog, d as u64);
            }
        }
        write_uvarint(&mut catalog, self.edges.len() as u64);
        for ((in_name, out_name), record) in &self.edges {
            write_string(&mut catalog, in_name);
            write_string(&mut catalog, out_name);
            catalog.push(BACKWARD_ONLY);
            write_string(&mut catalog, &record.name);
            write_uvarint(&mut catalog, record.len);
            catalog.extend_from_slice(&record.crc.to_le_bytes());
            write_uvarint(&mut catalog, record.raw_len);
            write_uvarint(&mut catalog, record.offset);
        }
        // Self-checksum so catalog corruption is always detected at open.
        let catalog_crc = crc32(&catalog);
        catalog.extend_from_slice(&catalog_crc.to_le_bytes());
        catalog
    }

    /// Apply one record-committed transaction — the records an append
    /// logged, its `Commit` last — and return, per table it installed, the
    /// new record and the one it replaced. This is the one replay of the
    /// log: each record kind has its own arm (`cargo xtask lint` holds the
    /// `match` to every [`OpKind`], with no wildcard). The transaction is
    /// checked whole before anything changes: a bad array rank, an illegal
    /// segment name, or a table whose `IngestEdge` record is not in the
    /// transaction or names an array this generation does not define leaves
    /// the catalog as it was and errs.
    pub(crate) fn apply(&mut self, txn: &[OpRecord]) -> Result<Vec<Installed>> {
        let mut defined: HashMap<&str, &[usize]> = HashMap::new();
        let mut ingests: HashMap<usize, (&String, &String)> = HashMap::new();
        let mut gzip = self.gzip;
        let mut commit = None;
        for (i, record) in txn.iter().enumerate() {
            match &record.kind {
                OpKind::DefineArray { name, shape } => {
                    if !(1..MAX_EDGE_ARITY).contains(&shape.len()) {
                        return Err(DslogError::Corrupt("log record defines a bad array rank"));
                    }
                    defined.insert(name, shape);
                }
                OpKind::IngestEdge {
                    in_array,
                    out_array,
                    ..
                } => {
                    ingests.insert(i, (in_array, out_array));
                }
                // Neither changes the committed tables: composites are not
                // persisted (§VI.C), and a compaction's checkpoint holds
                // what it wrote.
                OpKind::Composite { .. } | OpKind::Compact { .. } => {}
                OpKind::ConvertGzip { gzip: to } => gzip = *to,
                OpKind::Commit {
                    segment, tables, ..
                } => {
                    if !tables.is_empty() {
                        check_segment_name(segment)?;
                    }
                    let known =
                        |name: &str| self.arrays.contains_key(name) || defined.contains_key(name);
                    let mut installed = Vec::with_capacity(tables.len());
                    for &(ingest, offset, len, crc, raw_len) in tables {
                        let ingest = usize::try_from(ingest).ok();
                        let Some(&(input, output)) = ingest.and_then(|i| ingests.get(&i)) else {
                            return Err(DslogError::Corrupt("log record names no ingest"));
                        };
                        if !known(input) || !known(output) {
                            return Err(DslogError::Corrupt("log record names an unknown array"));
                        }
                        let record = FileRecord {
                            name: segment.clone(),
                            len,
                            crc,
                            raw_len,
                            offset,
                        };
                        installed.push(((input.clone(), output.clone()), record));
                    }
                    commit = Some((record.gen_after, installed));
                }
            }
        }
        let Some((generation, installed)) = commit else {
            return Err(DslogError::Corrupt("log transaction without a commit"));
        };
        for (name, shape) in defined {
            let meta = ArrayMeta {
                shape: shape.to_vec(),
            };
            self.arrays.entry(name.to_string()).or_insert(meta);
        }
        self.gzip = gzip;
        self.generation = generation;
        let install = |(key, record): ((String, String), FileRecord)| {
            let replaced = self.edges.insert(key, record.clone());
            (record, replaced)
        };
        Ok(installed.into_iter().map(install).collect())
    }
}

/// A table a transaction installed, and the record it replaced.
pub(crate) type Installed = (FileRecord, Option<FileRecord>);

pub(crate) fn parse_catalog(data: &[u8]) -> Result<Catalog> {
    if data.len() < 13 {
        return Err(DslogError::Corrupt("catalog too short"));
    }
    match &data[..8] {
        m if m == CATALOG_MAGIC_V3 => {}
        // Another generation of this format (v1 and v2 are no longer read).
        m if m.starts_with(b"DSLGDB") => {
            return Err(DslogError::Corrupt("unsupported catalog version"))
        }
        _ => return Err(DslogError::Corrupt("bad catalog magic")),
    }
    // The catalog ends in a crc32 trailer over everything before it;
    // verify before parsing so any corruption is caught up front.
    let (data, trailer) = data
        .split_last_chunk::<4>()
        .ok_or(DslogError::Corrupt("catalog too short"))?;
    if crc32(data) != u32::from_le_bytes(*trailer) {
        return Err(DslogError::Corrupt("catalog checksum mismatch"));
    }
    let gzip = data[8] != 0;
    let mut pos = 9usize;
    let generation = read_uvarint(data, &mut pos)?;

    // Entries are written sorted: collected, they build their map in bulk.
    let mut arrays = Vec::new();
    let n_arrays = read_uvarint(data, &mut pos)? as usize;
    for _ in 0..n_arrays {
        let name = read_string(data, &mut pos)?;
        let ndim = read_uvarint(data, &mut pos)? as usize;
        // Each dimension needs at least one byte; bound the pre-allocation
        // by what the input could possibly still encode.
        if ndim > data.len() - pos {
            return Err(DslogError::Corrupt("array rank exceeds catalog size"));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(read_uvarint(data, &mut pos)? as usize);
        }
        arrays.push((name, ArrayMeta { shape }));
    }
    let arrays: BTreeMap<String, ArrayMeta> = arrays.into_iter().collect();

    let mut edges = Vec::new();
    let n_edges = read_uvarint(data, &mut pos)? as usize;
    for _ in 0..n_edges {
        let in_name = read_string(data, &mut pos)?;
        let out_name = read_string(data, &mut pos)?;
        if !arrays.contains_key(&out_name) {
            return Err(DslogError::Corrupt("edge references unknown output array"));
        }
        if !arrays.contains_key(&in_name) {
            return Err(DslogError::Corrupt("edge references unknown input array"));
        }
        let &mask = data
            .get(pos)
            .ok_or(DslogError::Corrupt("catalog truncated at edge mask"))?;
        pos += 1;
        // Masks 2 (forward) and 3 (both) are forms only earlier builds
        // wrote; a table's own orientation is checked when it loads.
        if mask != BACKWARD_ONLY {
            return Err(DslogError::Corrupt("unsupported edge orientation mask"));
        }
        let name = read_string(data, &mut pos)?;
        check_segment_name(&name)?;
        let len = read_uvarint(data, &mut pos)?;
        let crc = read_u32_le(data, &mut pos)?;
        let raw_len = read_uvarint(data, &mut pos)?;
        let offset = read_uvarint(data, &mut pos)?;
        let record = FileRecord {
            name,
            len,
            crc,
            raw_len,
            offset,
        };
        edges.push(((in_name, out_name), record));
    }
    Ok(Catalog {
        gzip,
        generation,
        arrays,
        edges: edges.into_iter().collect(),
    })
}

/// Read and parse a checkpoint file; also returns its byte length.
pub(crate) fn read_catalog(path: &Path) -> Result<(Catalog, u64)> {
    let bytes = std::fs::read(path).map_err(|e| DslogError::io("read catalog", e))?;
    Ok((parse_catalog(&bytes)?, bytes.len() as u64))
}

/// The clean records of a database's log, grouped into the transactions
/// its commits closed: each `Commit` record with the records logged before
/// it since the previous one.
#[derive(Default)]
pub(crate) struct Log {
    pub(crate) records: Vec<OpRecord>,
    /// Byte offset just past each record's frame.
    pub(crate) ends: Vec<usize>,
    /// Index of each `Commit` record in `records`.
    pub(crate) commits: Vec<usize>,
    /// `Some` when the log's bytes past `records` are damage, not a torn
    /// append: the newest generation a commit record past the damage
    /// names, 0 for none (see [`super::wal::Scan`]).
    pub(crate) beyond_damage: Option<u64>,
    /// Bytes the log held when it was read.
    pub(crate) len: u64,
}

impl Log {
    pub(crate) fn read(dir: &Path) -> Result<Self> {
        let scan = super::wal::read_frames(dir)?;
        let (records, ends): (Vec<OpRecord>, Vec<usize>) = scan.frames.into_iter().unzip();
        let commits = (records.iter().enumerate())
            .filter(|(_, r)| matches!(r.kind, OpKind::Commit { .. }))
            .map(|(i, _)| i)
            .collect();
        Ok(Self {
            records,
            ends,
            commits,
            beyond_damage: scan.beyond_damage,
            len: scan.len,
        })
    }

    /// Transaction `t`: its records, the commit last.
    fn txn(&self, t: usize) -> &[OpRecord] {
        let start = t.checked_sub(1).map_or(0, |p| self.commits[p] + 1);
        &self.records[start..=self.commits[t]]
    }
}

/// A walk through committed generations: the current one, how many live
/// ranges each segment it references holds, and the segments it stopped
/// referencing — each with the last generation that still did, oldest
/// first. Replays at open and the commits of a remembered tail advance it
/// the same way.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    pub(crate) state: Catalog,
    pub(crate) live: HashMap<String, usize>,
    pub(crate) dead: Vec<(u64, String)>,
}

impl Replay {
    pub(crate) fn new(state: Catalog) -> Self {
        let mut replay = Self::default();
        for f in state.edges.values() {
            replay.hold(f);
        }
        replay.state = state;
        replay
    }

    /// Count one more live range in `record`'s segment.
    fn hold(&mut self, record: &FileRecord) {
        match self.live.get_mut(&record.name) {
            Some(n) => *n += 1,
            None => {
                self.live.insert(record.name.clone(), 1);
            }
        }
    }

    /// Advance by one record-committed transaction ([`Catalog::apply`]);
    /// returns the tables it committed.
    pub(crate) fn step(&mut self, txn: &[OpRecord]) -> Result<usize> {
        let prior = self.state.generation;
        let installed = self.state.apply(txn)?;
        for (record, replaced) in &installed {
            self.hold(record);
            let Some(old) = replaced else { continue };
            if let Some(n) = self.live.get_mut(&old.name) {
                *n -= 1;
                if *n == 0 {
                    self.live.remove(&old.name);
                    self.dead.push((prior, old.name.clone()));
                }
            }
        }
        Ok(installed.len())
    }

    /// Move to `next`, a checkpoint: every segment it no longer references
    /// dies with the generation before it.
    pub(crate) fn switch(&mut self, next: Catalog) {
        let prior = self.state.generation;
        let next = Replay::new(next);
        for name in self
            .live
            .keys()
            .filter(|name| !next.live.contains_key(*name))
        {
            self.dead.push((prior, name.clone()));
        }
        self.state = next.state;
        self.live = next.live;
    }

    /// Replay `log`'s transactions past the current generation, up to
    /// generation `until`. A transaction whose commit named a catalog
    /// switches to that checkpoint (`catalog.g<g>.dsl`, or the live one),
    /// and so does one whose records start from another generation than
    /// the current one (a checkpoint commit whose own record never reached
    /// the log lies between). Returns how many transactions it passed
    /// (applied or already covered) and the tables the applied ones
    /// committed since the last checkpoint, and calls `visit` with every
    /// generation it reached.
    ///
    /// A transaction it cannot apply — its checkpoint is not there, or its
    /// tables do not fit the generation — is `Corrupt`: the commits after
    /// it were durable all the same. A checkpoint commit logs its record
    /// only once its catalog is in place, so no clean record names a
    /// checkpoint that was never written.
    pub(crate) fn run(
        &mut self,
        dir: &Path,
        log: &Log,
        until: u64,
        mut visit: impl FnMut(&Catalog),
    ) -> Result<(usize, usize)> {
        const MISSING: DslogError = DslogError::Corrupt("log commit names a missing checkpoint");
        let mut since = 0;
        for t in 0..log.commits.len() {
            let txn = log.txn(t);
            let commit = &txn[txn.len() - 1];
            if commit.gen_after <= self.state.generation {
                continue;
            }
            if commit.gen_after > until {
                return Ok((t, since));
            }
            match &commit.kind {
                OpKind::Commit { catalog_len: 0, .. } => {
                    if commit.gen_before != self.state.generation {
                        self.switch(checkpoint_at(dir, commit.gen_before).ok_or(MISSING)?);
                        since = 0;
                        visit(&self.state);
                    }
                    since += self.step(txn)?;
                }
                _ => {
                    self.switch(checkpoint_at(dir, commit.gen_after).ok_or(MISSING)?);
                    since = 0;
                }
            }
            visit(&self.state);
        }
        Ok((log.commits.len(), since))
    }
}

/// The checkpoint of generation `gen`: a kept `catalog.g<gen>.dsl`, or the
/// live catalog if it is that generation's.
pub(crate) fn checkpoint_at(dir: &Path, gen: u64) -> Option<Catalog> {
    [checkpoint_name(gen), CATALOG_FILE.to_string()]
        .iter()
        .filter_map(|name| read_catalog(&dir.join(name)).ok())
        .map(|(catalog, _)| catalog)
        .find(|catalog| catalog.generation == gen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(op_id: u64, gen_after: u64, kind: OpKind) -> OpRecord {
        OpRecord {
            op_id,
            timestamp_ms: 0,
            actor: "test".into(),
            gen_before: 0,
            gen_after,
            kind,
        }
    }

    /// One transaction holding every record kind: defines and the ingest a
    /// table names change the generation; a composite adds no edge, a
    /// compaction annotation nothing; a conversion flips the gzip mode.
    fn every_kind(ingest: u64) -> Vec<OpRecord> {
        let define = |name: &str| OpKind::DefineArray {
            name: name.into(),
            shape: vec![3, 2],
        };
        let commit = OpKind::Commit {
            catalog_len: 0,
            catalog_crc: 0,
            segment: "segment-0.g1.seg".into(),
            tables: vec![(ingest, 0, 42, 0xdead_beef, 40)],
            retained_from: 1,
        };
        let kinds = [
            define("A"),
            define("B"),
            OpKind::IngestEdge {
                in_array: "A".into(),
                out_array: "B".into(),
                bytes: 40,
                digest: 0xdead_beef,
            },
            OpKind::Composite {
                path: vec!["C".into(), "B".into(), "A".into()],
            },
            OpKind::ConvertGzip { gzip: true },
            OpKind::Compact {
                segments: 0,
                folded: 0,
                bytes: 0,
            },
            commit,
        ];
        let last = kinds.len() as u64;
        let gen = |i: u64| u64::from(i == last);
        (1..)
            .zip(kinds)
            .map(|(i, k)| record(i, gen(i), k))
            .collect()
    }

    #[test]
    fn apply_covers_every_kind() {
        let mut catalog = Catalog::default();
        let installed = catalog.apply(&every_kind(2)).unwrap();
        assert_eq!(installed.len(), 1);
        assert_eq!(installed[0].1, None);
        assert_eq!(catalog.arrays.keys().collect::<Vec<_>>(), ["A", "B"]);
        let edges: Vec<_> = catalog.edges.keys().cloned().collect();
        assert_eq!(edges, [("A".to_string(), "B".to_string())]);
        assert_eq!(catalog.edges.values().next(), Some(&installed[0].0));
        assert!(catalog.gzip);
        assert_eq!(catalog.generation, 1);
    }

    #[test]
    fn a_transaction_that_does_not_fit_changes_nothing() {
        // The table names record 3, the composite, not an ingest.
        let mut catalog = Catalog::default();
        let err = catalog.apply(&every_kind(3)).unwrap_err();
        assert_eq!(err, DslogError::Corrupt("log record names no ingest"));
        assert!(catalog.arrays.is_empty() && catalog.edges.is_empty());
        assert!(!catalog.gzip);
        assert_eq!(catalog.generation, 0);
        let without_commit = &every_kind(2)[..6];
        assert!(catalog.apply(without_commit).is_err());
        assert!(catalog.arrays.is_empty());
    }
}
