//! A committed generation — the arrays, and per edge the one backward
//! table it keeps — and the one replay of the operation log that builds it
//! (see [`super::persist`] for when each record is written).
//!
//! Every log starts with a checkpoint record ([`super::wal::Checkpoint`]),
//! whose payload is a [`Catalog`] ([`Catalog::write_body`],
//! [`Catalog::read_body`]); the incremental commits after it advance it.
//! [`Catalog::apply`] is the one replay of the log: open, `as_of`, `verify`
//! and every commit advance a generation through it.

use super::wal::{Checkpoint, OpKind, OpRecord, Scan};
use super::wire::{read_string, read_u32_le, write_string};
use super::{ArrayMeta, FileRecord, MAX_EDGE_ARITY};
use crate::error::{DslogError, Result};
use dslog_codecs::varint::{read_uvarint, write_uvarint};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Checkpoints and log records are untrusted input: a table reference must
/// be a bare `segment-*` file name inside the database directory (no
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

/// A committed generation: a checkpoint as decoded (and structurally
/// validated), or one advanced by the commits the log records after it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Catalog {
    pub(crate) gzip: bool,
    /// Snapshot generation; the next commit uses a strictly larger one.
    pub(crate) generation: u64,
    pub(crate) arrays: BTreeMap<String, ArrayMeta>,
    /// Per `(input, output)` edge, the record of its backward table.
    pub(crate) edges: BTreeMap<(String, String), FileRecord>,
}

impl Catalog {
    /// Append the checkpoint payload: the gzip flag, the generation, the
    /// arrays, and per edge its backward table's range, each sorted by name
    /// for deterministic bytes. The log frame's crc seals it.
    pub(crate) fn write_body(&self, out: &mut Vec<u8>) {
        out.push(self.gzip as u8);
        write_uvarint(out, self.generation);
        write_uvarint(out, self.arrays.len() as u64);
        for (name, meta) in &self.arrays {
            write_string(out, name);
            write_uvarint(out, meta.shape.len() as u64);
            for &d in &meta.shape {
                write_uvarint(out, d as u64);
            }
        }
        write_uvarint(out, self.edges.len() as u64);
        for ((in_name, out_name), record) in &self.edges {
            write_string(out, in_name);
            write_string(out, out_name);
            write_string(out, &record.name);
            write_uvarint(out, record.len);
            out.extend_from_slice(&record.crc.to_le_bytes());
            write_uvarint(out, record.raw_len);
            write_uvarint(out, record.offset);
        }
    }

    /// Decode a checkpoint payload at `pos` (see [`Self::write_body`]). An
    /// edge must name defined arrays (its segment name is checked when the
    /// checkpoint is applied); every count is bounded by the bytes left
    /// before it sizes anything.
    pub(crate) fn read_body(data: &[u8], pos: &mut usize) -> Result<Self> {
        let &gzip = data
            .get(*pos)
            .ok_or(DslogError::Corrupt("checkpoint truncated at gzip flag"))?;
        *pos += 1;
        let generation = read_uvarint(data, pos)?;

        // Entries are written sorted: collected, they build their map in bulk.
        let mut arrays = Vec::new();
        let n_arrays = read_uvarint(data, pos)?;
        for _ in 0..n_arrays {
            let name = read_string(data, pos)?;
            let ndim = read_uvarint(data, pos)? as usize;
            // Each dimension needs at least one byte; bound the pre-allocation
            // by what the input could possibly still encode.
            if ndim > data.len() - *pos {
                return Err(DslogError::Corrupt("array rank exceeds catalog size"));
            }
            let mut shape = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                shape.push(read_uvarint(data, pos)? as usize);
            }
            arrays.push((name, ArrayMeta { shape }));
        }
        let arrays: BTreeMap<String, ArrayMeta> = arrays.into_iter().collect();

        let mut edges = Vec::new();
        let n_edges = read_uvarint(data, pos)?;
        for _ in 0..n_edges {
            let in_name = read_string(data, pos)?;
            let out_name = read_string(data, pos)?;
            if !arrays.contains_key(&out_name) {
                return Err(DslogError::Corrupt("edge references unknown output array"));
            }
            if !arrays.contains_key(&in_name) {
                return Err(DslogError::Corrupt("edge references unknown input array"));
            }
            let record = FileRecord {
                name: read_string(data, pos)?,
                len: read_uvarint(data, pos)?,
                crc: read_u32_le(data, pos)?,
                raw_len: read_uvarint(data, pos)?,
                offset: read_uvarint(data, pos)?,
            };
            edges.push(((in_name, out_name), record));
        }
        Ok(Catalog {
            gzip: gzip != 0,
            generation,
            arrays,
            edges: edges.into_iter().collect(),
        })
    }

    /// Apply one transaction — the records an append logged, or the ones a
    /// checkpoint commit wrote at the head of a fresh log, its `Commit`
    /// last — and return, per table it installed, the new record and the
    /// one it replaced. This is the one replay of the log: each record kind
    /// has its own arm (`cargo xtask lint` holds the `match` to every
    /// [`OpKind`], with no wildcard). A checkpoint replaces the whole state
    /// with the one it holds, which must be its commit's generation. The
    /// transaction is checked whole before anything changes: a bad array
    /// rank, an illegal segment name, a commit that starts from another
    /// generation than this one, or a table whose `IngestEdge` record is not
    /// in the transaction or names an array this generation does not define
    /// leaves the catalog as it was and errs.
    pub(crate) fn apply(&mut self, txn: &[OpRecord]) -> Result<Vec<Installed>> {
        let mut base = None;
        let mut defined: HashMap<&str, &[usize]> = HashMap::new();
        let mut ingests: HashMap<usize, (&String, &String)> = HashMap::new();
        let mut gzip = None;
        let mut commit = None;
        for (i, record) in txn.iter().enumerate() {
            match &record.kind {
                OpKind::Checkpoint(Checkpoint(state)) => {
                    for table in state.edges.values() {
                        check_segment_name(&table.name)?;
                    }
                    base = Some(state)
                }
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
                OpKind::ConvertGzip { gzip: to } => gzip = Some(*to),
                OpKind::Commit {
                    segment, tables, ..
                } => {
                    if !tables.is_empty() {
                        check_segment_name(segment)?;
                    }
                    let arrays = base.map_or(&self.arrays, |b: &Catalog| &b.arrays);
                    let known =
                        |name: &str| arrays.contains_key(name) || defined.contains_key(name);
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
                    commit = Some((record.gen_before, record.gen_after, installed));
                }
            }
        }
        let Some((gen_before, generation, installed)) = commit else {
            return Err(DslogError::Corrupt("log transaction without a commit"));
        };
        match base {
            Some(base) if base.generation != generation => {
                return Err(DslogError::Corrupt("checkpoint of another generation"))
            }
            Some(base) => *self = base.clone(),
            None if gen_before != self.generation => {
                return Err(DslogError::Corrupt(
                    "log commit starts from another generation",
                ))
            }
            None => {}
        }
        for (name, shape) in defined {
            let meta = ArrayMeta {
                shape: shape.to_vec(),
            };
            self.arrays.entry(name.to_string()).or_insert(meta);
        }
        self.gzip = gzip.unwrap_or(self.gzip);
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

/// Whether `txn` is a checkpoint transaction: one that opens a log.
fn is_checkpoint(txn: &[OpRecord]) -> bool {
    matches!(txn.first().map(|r| &r.kind), Some(OpKind::Checkpoint(_)))
}

/// The clean records of one log, grouped into the transactions its
/// commits closed: each `Commit` record with the records logged before it
/// since the previous one. The first transaction is the log's checkpoint.
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
    /// The generation its checkpoint holds, and that checkpoint's edges.
    pub(crate) checkpoint: (u64, usize),
    /// Bytes the log held when it was read, and the file's identity.
    pub(crate) id: (u64, u64),
}

impl Log {
    /// `dir`'s live log (`names`: the directory's listing; see
    /// [`super::wal::read_live`]).
    pub(crate) fn live(dir: &Path, names: &[String]) -> Result<Self> {
        Self::from_scan(super::wal::read_live(dir, names)?)
    }

    /// `dir`'s retired log whose checkpoint holds generation `start`.
    pub(crate) fn retired(dir: &Path, start: u64) -> Result<Self> {
        let path = dir.join(super::wal::retired_name(start));
        Self::from_scan(super::wal::read_frames(&path)?)
    }

    /// A log must open with a committed checkpoint, and hold no other.
    fn from_scan(scan: Scan) -> Result<Self> {
        let (records, ends): (Vec<OpRecord>, Vec<usize>) = scan.frames.into_iter().unzip();
        let commits: Vec<usize> = (records.iter().enumerate())
            .filter(|(_, r)| matches!(r.kind, OpKind::Commit { .. }))
            .map(|(i, _)| i)
            .collect();
        let checkpoint = match records.first().map(|r| &r.kind) {
            Some(OpKind::Checkpoint(Checkpoint(c))) if !commits.is_empty() => {
                (c.generation, c.edges.len())
            }
            _ => return Err(DslogError::Corrupt("log does not start with a checkpoint")),
        };
        if records[1..]
            .iter()
            .any(|r| matches!(r.kind, OpKind::Checkpoint(_)))
        {
            return Err(DslogError::Corrupt("checkpoint inside a log"));
        }
        Ok(Self {
            records,
            ends,
            commits,
            beyond_damage: scan.beyond_damage,
            checkpoint,
            id: (scan.len, scan.id),
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

/// Count one more live range in `record`'s segment.
fn hold(live: &mut HashMap<String, usize>, record: &FileRecord) {
    match live.get_mut(&record.name) {
        Some(n) => *n += 1,
        None => {
            live.insert(record.name.clone(), 1);
        }
    }
}

impl Replay {
    /// Advance by one transaction ([`Catalog::apply`]); returns the tables
    /// it committed. A checkpoint names every table: each segment it no
    /// longer references dies with the generation before it.
    pub(crate) fn step(&mut self, txn: &[OpRecord]) -> Result<usize> {
        let prior = self.state.generation;
        let installed = self.state.apply(txn)?;
        if is_checkpoint(txn) {
            let before = std::mem::take(&mut self.live);
            for record in self.state.edges.values() {
                hold(&mut self.live, record);
            }
            let live = &self.live;
            let dead = before.into_keys().filter(|name| !live.contains_key(name));
            self.dead.extend(dead.map(|name| (prior, name)));
            return Ok(0);
        }
        for (record, replaced) in &installed {
            hold(&mut self.live, record);
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

    /// Replay `log`'s transactions up to generation `until`. Returns the
    /// tables they committed after the log's checkpoint, and calls `visit`
    /// with every generation it reached. A transaction it cannot apply is
    /// `Corrupt`: the commits after it were durable all the same.
    pub(crate) fn run(
        &mut self,
        log: &Log,
        until: u64,
        mut visit: impl FnMut(&Catalog),
    ) -> Result<usize> {
        let mut since = 0;
        for t in 0..log.commits.len() {
            let txn = log.txn(t);
            if txn[txn.len() - 1].gen_after > until {
                break;
            }
            since += self.step(txn)?;
            visit(&self.state);
        }
        Ok(since)
    }
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

    /// One transaction holding every record kind: a checkpoint (of array
    /// `Z`) replaces the state; defines and the ingest a table names change
    /// the generation; a composite adds no edge, a compaction annotation
    /// nothing; a conversion flips the gzip mode.
    fn every_kind(ingest: u64) -> Vec<OpRecord> {
        let define = |name: &str| OpKind::DefineArray {
            name: name.into(),
            shape: vec![3, 2],
        };
        let commit = OpKind::Commit {
            segment: "segment-0.g1.seg".into(),
            tables: vec![(ingest, 0, 42, 0xdead_beef, 40)],
            retained_from: 1,
        };
        let mut checkpoint = Catalog {
            generation: 1,
            ..Catalog::default()
        };
        let z = ArrayMeta { shape: vec![4] };
        checkpoint.arrays.insert("Z".into(), z);
        let kinds = [
            OpKind::Checkpoint(Checkpoint(checkpoint)),
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
        let installed = catalog.apply(&every_kind(3)).unwrap();
        assert_eq!(installed.len(), 1);
        assert_eq!(installed[0].1, None);
        assert_eq!(catalog.arrays.keys().collect::<Vec<_>>(), ["A", "B", "Z"]);
        let edges: Vec<_> = catalog.edges.keys().cloned().collect();
        assert_eq!(edges, [("A".to_string(), "B".to_string())]);
        assert_eq!(catalog.edges.values().next(), Some(&installed[0].0));
        assert!(catalog.gzip);
        assert_eq!(catalog.generation, 1);
    }

    #[test]
    fn a_transaction_that_does_not_fit_changes_nothing() {
        // The table names record 4, the composite, not an ingest.
        let mut catalog = Catalog::default();
        let err = catalog.apply(&every_kind(4)).unwrap_err();
        assert_eq!(err, DslogError::Corrupt("log record names no ingest"));
        assert!(catalog.arrays.is_empty() && catalog.edges.is_empty());
        assert!(!catalog.gzip);
        assert_eq!(catalog.generation, 0);
        let without_commit = &every_kind(3)[..7];
        assert!(catalog.apply(without_commit).is_err());
        // A checkpoint of another generation than its commit's, and a
        // record commit that starts from another generation than this one.
        let mut foreign = every_kind(3);
        foreign[7].gen_after = 2;
        let err = catalog.apply(&foreign).unwrap_err();
        assert_eq!(err, DslogError::Corrupt("checkpoint of another generation"));
        let mut late = every_kind(2)[1..].to_vec();
        late[6].gen_before = 5;
        let err = catalog.apply(&late).unwrap_err();
        assert_eq!(
            err,
            DslogError::Corrupt("log commit starts from another generation")
        );
        assert!(catalog.arrays.is_empty());
    }
}
