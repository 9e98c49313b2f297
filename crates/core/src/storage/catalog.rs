//! The checkpoint — `catalog.dsl`, magic `DSLGDB3` — and the committed
//! generation it describes, advanced by the commits the operation log
//! records after it (see [`super::persist`] for when each is written).

use super::wal::{OpKind, OpRecord};
use super::wire::{read_string, read_u32_le, write_string};
use super::{ArrayMeta, FileRecord, MAX_EDGE_ARITY};
use crate::error::{DslogError, Result};
use crate::table::Orientation;
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

/// The catalog's edge-mask bit of a table stored in `orientation`; a mask
/// may name both (see [`Catalog::edges`]).
fn orientation_bit(orientation: Orientation) -> u8 {
    match orientation {
        Orientation::Backward => 1,
        Orientation::Forward => 2,
    }
}

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

/// One table reference of a committed edge.
#[derive(Debug, Clone)]
pub(crate) struct FileRef {
    pub(crate) orientation: Orientation,
    pub(crate) record: FileRecord,
}

/// A committed generation: a checkpoint as parsed (and structurally
/// validated), or one advanced by the commits the log records after it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Catalog {
    pub(crate) gzip: bool,
    /// Snapshot generation; the next commit uses a strictly larger one.
    pub(crate) generation: u64,
    pub(crate) arrays: BTreeMap<String, ArrayMeta>,
    /// Per `(input, output)` edge, one table per orientation the catalog
    /// names, backward first (at least one).
    pub(crate) edges: BTreeMap<(String, String), Vec<FileRef>>,
}

impl Catalog {
    /// The table an opened edge keeps: the backward one when the catalog
    /// names both orientations.
    pub(crate) fn kept(files: &[FileRef]) -> &FileRef {
        &files[0]
    }

    /// Every table reference, in edge order.
    pub(crate) fn files(&self) -> impl Iterator<Item = &FileRef> {
        self.edges.values().flatten()
    }

    /// The complete checkpoint bytes (magic through crc trailer), arrays
    /// and edges sorted by name for deterministic bytes. Each edge names
    /// only the table it keeps.
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
        for ((in_name, out_name), files) in &self.edges {
            let FileRef {
                orientation,
                record,
            } = Catalog::kept(files);
            write_string(&mut catalog, in_name);
            write_string(&mut catalog, out_name);
            catalog.push(orientation_bit(*orientation));
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
    /// logged, its `Commit` last — and return the table references it
    /// replaced. Checked whole before anything changes: a table whose
    /// `IngestEdge` record is not in the transaction or names an array this
    /// generation does not define, or an illegal segment name, leaves the
    /// catalog as it was and errs.
    pub(crate) fn apply(&mut self, txn: &[OpRecord]) -> Result<Vec<FileRef>> {
        let Some(OpRecord {
            gen_after,
            kind: OpKind::Commit {
                segment, tables, ..
            },
            ..
        }) = txn.last()
        else {
            return Err(DslogError::Corrupt("log transaction without a commit"));
        };
        let defined: HashMap<&str, &[usize]> = (txn.iter())
            .filter_map(|r| match &r.kind {
                OpKind::DefineArray { name, shape } => Some((&name[..], &shape[..])),
                _ => None,
            })
            .collect();
        let known = |name: &str| self.arrays.contains_key(name) || defined.contains_key(name);
        if !tables.is_empty() {
            check_segment_name(segment)?;
        }
        let ingested = |&(ingest, ..): &(u64, u64, u64, u32, u64)| {
            let record = txn.get(usize::try_from(ingest).ok()?);
            match record.map(|r| &r.kind) {
                Some(OpKind::IngestEdge {
                    in_array,
                    out_array,
                    ..
                }) => Some((in_array, out_array)),
                _ => None,
            }
        };
        let Some(keys) = tables.iter().map(ingested).collect::<Option<Vec<_>>>() else {
            return Err(DslogError::Corrupt("log record names no ingest"));
        };
        if !keys.iter().all(|(i, o)| known(i) && known(o)) {
            return Err(DslogError::Corrupt("log record names an unknown array"));
        }
        if !defined
            .values()
            .all(|shape| (1..MAX_EDGE_ARITY).contains(&shape.len()))
        {
            return Err(DslogError::Corrupt("log record defines a bad array rank"));
        }
        for (name, shape) in defined {
            let meta = ArrayMeta {
                shape: shape.to_vec(),
            };
            self.arrays.entry(name.to_string()).or_insert(meta);
        }
        for r in txn {
            if let OpKind::ConvertGzip { gzip } = r.kind {
                self.gzip = gzip;
            }
        }
        let mut replaced = Vec::new();
        for ((in_array, out_array), (_, offset, len, crc, raw_len)) in keys.into_iter().zip(tables)
        {
            let record = FileRecord {
                name: segment.clone(),
                len: *len,
                crc: *crc,
                raw_len: *raw_len,
                offset: *offset,
            };
            let orientation = Orientation::Backward;
            let table = vec![FileRef {
                orientation,
                record,
            }];
            let key = (in_array.clone(), out_array.clone());
            replaced.extend(self.edges.insert(key, table).into_iter().flatten());
        }
        self.generation = *gen_after;
        Ok(replaced)
    }
}

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
        if mask == 0 || mask > 3 {
            return Err(DslogError::Corrupt("bad edge orientation mask"));
        }
        let mut files = Vec::new();
        for orientation in [Orientation::Backward, Orientation::Forward] {
            if mask & orientation_bit(orientation) == 0 {
                continue;
            }
            let name = read_string(data, &mut pos)?;
            check_segment_name(&name)?;
            let len = read_uvarint(data, &mut pos)?;
            let crc = read_u32_le(data, &mut pos)?;
            let raw_len = read_uvarint(data, &mut pos)?;
            let offset = read_uvarint(data, &mut pos)?;
            files.push(FileRef {
                orientation,
                record: FileRecord {
                    name,
                    len,
                    crc,
                    raw_len,
                    offset,
                },
            });
        }
        edges.push(((in_name, out_name), files));
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
        let mut live: HashMap<String, usize> = HashMap::new();
        for f in state.files() {
            match live.get_mut(&f.record.name) {
                Some(n) => *n += 1,
                None => {
                    live.insert(f.record.name.clone(), 1);
                }
            }
        }
        Self {
            state,
            live,
            dead: Vec::new(),
        }
    }

    /// Advance by one record-committed transaction; returns the tables it
    /// committed.
    pub(crate) fn apply(&mut self, txn: &[OpRecord]) -> Result<usize> {
        let prior = self.state.generation;
        let replaced = self.state.apply(txn)?;
        let Some(OpKind::Commit {
            segment, tables, ..
        }) = txn.last().map(|r| &r.kind)
        else {
            return Ok(0);
        };
        if !tables.is_empty() {
            *self.live.entry(segment.clone()).or_insert(0) += tables.len();
        }
        for f in replaced {
            if let Some(n) = self.live.get_mut(&f.record.name) {
                *n -= 1;
                if *n == 0 {
                    self.live.remove(&f.record.name);
                    self.dead.push((prior, f.record.name));
                }
            }
        }
        Ok(tables.len())
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
    /// it were durable all the same. One exception, the log's last
    /// transaction naming a catalog that is not there, ends the walk: the
    /// protocol that wrote kind-6 records logged a commit before renaming
    /// its catalog, so a crash between the two left it dangling.
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
                    since += self.apply(txn)?;
                }
                _ => match checkpoint_at(dir, commit.gen_after) {
                    Some(next) => {
                        self.switch(next);
                        since = 0;
                    }
                    None if t + 1 == log.commits.len() => return Ok((t, since)),
                    None => return Err(MISSING),
                },
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
