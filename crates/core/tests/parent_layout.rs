//! What the commit before generation segments wrote still works.
//!
//! `tests/fixtures/` holds two database directories captured with that
//! commit's `dslog` binary, each beside the answers its `query --as-of`
//! gave at capture time (`<generation>|<path>|<cells>|<boxes>` per line):
//!
//! - `parent_plain_v2`: plain tables, a `DSLGDB2` catalog over whole
//!   `edge-*` files; three edges over two `serve` commits with
//!   `--retain 2` (generations 1–3, 1 the empty database).
//! - `parent_gzip_compacted`: gzip tables; three `ingest` commits, a
//!   `db compact`, one more `ingest`, all with `--retain 2` — a v3 catalog
//!   over ranges of an 8-way-era `segment-0.g4.seg` plus one whole
//!   `edge-*` file, kept catalogs for generations 3 and 4, and a
//!   `manifest.g4.dsl` nothing reads any more.
//!
//! Each must open eagerly, lazily and `as_of`, verify, replay its
//! history, and answer as recorded; its clean tables are re-referenced
//! where they lie by the next commit, and a compaction leaves nothing of
//! the old shape behind.

use dslog::api::TableCapture;
use dslog::storage::{persist, wal};
use dslog::table::LineageTable;
use dslog::Dslog;
use std::path::{Path, PathBuf};

/// `(name, catalog version, live generation, tables the live catalog
/// references, what `verify` lists as stale before any open swept it)`.
type Fixture = (&'static str, u8, u64, usize, &'static [&'static str]);

const FIXTURES: [Fixture; 2] = [
    ("parent_plain_v2", 2, 3, 3, &[]),
    ("parent_gzip_compacted", 3, 5, 4, &["manifest.g4.dsl"]),
];

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A scratch copy of a fixture directory (opening sweeps, and the test
/// commits).
fn scratch_copy(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dslog-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(fixtures().join(name)).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

/// One recorded answer.
struct Answer {
    generation: u64,
    path: Vec<String>,
    cells: Vec<Vec<i64>>,
    /// As the capturing CLI printed the boxes, `;`-joined.
    boxes: String,
}

fn answers(name: &str) -> Vec<Answer> {
    let text = std::fs::read_to_string(fixtures().join(format!("{name}.answers"))).unwrap();
    let ints = |cell: &str| cell.split(',').map(|i| i.parse().unwrap()).collect();
    text.lines()
        .map(|line| {
            let fields: Vec<&str> = line.split('|').collect();
            Answer {
                generation: fields[0].parse().unwrap(),
                path: fields[1].split(',').map(str::to_string).collect(),
                cells: fields[2].split(';').map(ints).collect(),
                boxes: fields[3].to_string(),
            }
        })
        .collect()
}

/// Run a recorded query and render the result the way the CLI does.
fn ask(db: &Dslog, answer: &Answer) -> String {
    let path: Vec<&str> = answer.path.iter().map(String::as_str).collect();
    let result = db.prov_query(&path, &answer.cells).unwrap();
    let render = |b: &[dslog::interval::Interval]| {
        let dims: Vec<String> = b
            .iter()
            .map(|ivl| match ivl.is_point() {
                true => format!("{}", ivl.lo),
                false => format!("[{}, {}]", ivl.lo, ivl.hi),
            })
            .collect();
        format!("({})", dims.join(", "))
    };
    let boxes: Vec<String> = result.cells.boxes().map(render).collect();
    boxes.join(";")
}

fn names_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn directories_the_parent_wrote_open_verify_and_answer() {
    for (name, catalog_version, live, tables, stale) in FIXTURES {
        let dir = scratch_copy(name);
        let recorded = answers(name);

        // Verify first: an open sweeps what verify only lists. The
        // manifest is stale, not damage.
        let report = persist::verify(&dir).unwrap();
        assert_eq!(report.catalog_version, catalog_version, "{name}");
        assert_eq!(report.files_verified, tables, "{name}");
        assert_eq!(report.stale_files, stale, "{name}");
        assert!(report.retained_files >= 2, "{name}");
        assert_eq!(report.dead_bytes, 0, "{name}");

        // Eager ≡ lazy ≡ as-of ≡ the recorded answers, for the live
        // generation and every retained one.
        let eager = Dslog::options().open(&dir).unwrap();
        let lazy = Dslog::options().lazy(true).open(&dir).unwrap();
        for answer in &recorded {
            let then = Dslog::options().as_of(answer.generation).open(&dir);
            assert_eq!(ask(&then.unwrap(), answer), answer.boxes, "{name} as of");
            if answer.generation == live {
                assert_eq!(ask(&eager, answer), answer.boxes, "{name} eager");
                assert_eq!(ask(&lazy, answer), answer.boxes, "{name} lazy");
            }
        }
        let swept = persist::verify(&dir).unwrap();
        assert!(
            swept.stale_files.is_empty(),
            "{name}: {:?}",
            swept.stale_files
        );

        // History replays to what the directory holds.
        let history = wal::history(&dir).unwrap();
        let state = wal::replay(&history);
        assert_eq!(history.len(), report.log_records, "{name}");
        assert_eq!(state.generation, live, "{name}");
        assert_eq!(state.arrays.len(), eager.storage().array_names().len());
        assert_eq!(state.edges.len(), eager.storage().n_edges(), "{name}");

        // The next commit re-references the clean tables where they lie —
        // whole `edge-*` files included — and writes the new edge, and the
        // catalog, in the one shape. (A fresh handle: the forward queries
        // above left derived orientations in the other two.)
        let mut db = Dslog::options().open(&dir).unwrap();
        db.define_array("Z", &[4]).unwrap();
        let mut t = LineageTable::new(1, 1);
        for i in 0..4 {
            t.push_row(&[i, i]);
        }
        db.add_lineage("B", "Z", &TableCapture::new(t)).unwrap();
        let commit = db.commit().unwrap();
        assert!(commit.incremental, "{name}");
        assert_eq!((commit.files_written, commit.files_reused), (1, tables));
        let report = persist::verify(&dir).unwrap();
        assert_eq!(report.catalog_version, 3, "{name}");
        assert_eq!(report.files_verified, tables + 1, "{name}");
        assert!(names_in(&dir).iter().any(|n| n.starts_with("edge-")));

        // A compaction leaves nothing of the old shape, and the answers
        // stand.
        let compacted = db.compact().unwrap();
        assert_eq!(compacted.files_written, tables + 1, "{name}");
        let segment = format!("segment-0.g{}.seg", compacted.generation);
        assert_eq!(names_in(&dir), ["catalog.dsl", "ops.log", &segment]);
        let report = persist::verify(&dir).unwrap();
        assert_eq!((report.catalog_version, report.dead_bytes), (3, 0));
        assert!(report.stale_files.is_empty(), "{name}");
        for lazy in [false, true] {
            let reopened = Dslog::options().lazy(lazy).open(&dir).unwrap();
            for answer in recorded.iter().filter(|a| a.generation == live) {
                assert_eq!(ask(&reopened, answer), answer.boxes, "{name} compacted");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
