//! `dslog` — command-line interface for DSLog lineage databases.
//!
//! A lineage database is a directory written by [`dslog::Dslog::save`].
//! The CLI covers the full capture-free workflow: ingest relations from
//! CSV, inspect what is stored, run forward/backward queries, export back
//! to CSV, and compare storage formats on a relation. `serve` runs the
//! service on a command stream in the wire protocol of
//! [`dslog::net`] (`--script`, or stdin), printing the JSON reply lines a
//! TCP client would get, or serves that protocol over TCP (`--listen`).
//!
//! ```text
//! dslog ingest  --db DIR --in A:3x2 --out B:3 --csv lineage.csv [--gzip] [--retain N]
//! dslog stats   --db DIR [--lazy]
//! dslog query   --db DIR --path B,A --cells "1;2" [--lazy]
//! dslog export  --db DIR --edge A,B [--csv out.csv]
//! dslog db verify DIR
//! dslog compress --csv lineage.csv --out-arity 1
//! dslog serve   --db DIR --script commands.txt
//! dslog serve   --db DIR --listen 127.0.0.1:7171
//! dslog client  --addr 127.0.0.1:7171 --script commands.txt
//! dslog help
//! ```

#![forbid(unsafe_code)]

mod commands;
mod csv;
mod opts;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatch a full command line; returns the text to print. Kept separate
/// from `main` so tests can drive the CLI in-process.
pub(crate) fn run(args: &[String]) -> Result<String, String> {
    let Some(cmd) = args.first() else {
        return Ok(commands::help());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "ingest" => commands::ingest(rest),
        "stats" => commands::stats(rest),
        "query" => commands::query(rest),
        "export" => commands::export(rest),
        "db" => commands::db(rest),
        "compress" => commands::compress(rest),
        "serve" => commands::serve(rest, &mut std::io::stdout()),
        "client" => commands::client(rest),
        "help" | "--help" | "-h" => Ok(commands::help()),
        other => Err(format!("unknown command `{other}`; see `dslog help`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn temp_db(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("dslog-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    /// Every file of a database directory with its bytes, sorted by name.
    fn dir_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.display().to_string(), std::fs::read(p).unwrap()))
            .collect();
        files.sort();
        files
    }

    fn write_sum_csv(tag: &str) -> String {
        let path = std::env::temp_dir().join(format!("dslog-cli-{tag}-{}.csv", std::process::id()));
        let mut body = String::new();
        for i in 0..3 {
            for j in 0..2 {
                body.push_str(&format!("{i},{i},{j}\n"));
            }
        }
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_lists_commands() {
        let out = run(&[]).unwrap();
        for cmd in [
            "ingest",
            "stats",
            "query",
            "export",
            "db verify",
            "compress",
            "serve",
        ] {
            assert!(out.contains(cmd), "help should mention {cmd}");
        }
    }

    /// `B = A.sum(axis=1)` over `A:3x2` as the wire protocol's inline
    /// rows: the relation [`write_sum_csv`] writes.
    const SUM_ROWS: &str = "0,0,0;0,0,1;1,1,0;1,1,1;2,2,0;2,2,1";

    /// `dslog serve --db DB --script FILE [extra]` over a script of `text`:
    /// the reply lines it printed, and what the run returned.
    fn serve_script(db: &str, text: &str, extra: &[&str]) -> (Vec<String>, Result<String, String>) {
        let script = format!("{db}.script");
        std::fs::write(&script, text).unwrap();
        let args = s(&[&["--db", db, "--script", &script][..], extra].concat());
        let mut replies = Vec::new();
        let result = commands::serve(&args, &mut replies);
        let _ = std::fs::remove_file(&script);
        let replies = String::from_utf8(replies).unwrap();
        (replies.lines().map(str::to_string).collect(), result)
    }

    /// `dslog serve --db DB --listen 127.0.0.1:0 [extra]` on a thread, and
    /// the address it bound.
    fn spawn_listen(
        db: &str,
        extra: &[&str],
    ) -> (std::thread::JoinHandle<Result<String, String>>, String) {
        let addr_file = format!("{db}.addr");
        let _ = std::fs::remove_file(&addr_file);
        let listen = [
            "serve",
            "--db",
            db,
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            &addr_file,
        ];
        let args = s(&[&listen[..], extra].concat());
        let server = std::thread::spawn(move || run(&args));
        // Port 0: the real address appears in --addr-file once bound.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.trim().contains(':') {
                    break text.trim().to_string();
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let _ = std::fs::remove_file(&addr_file);
        (server, addr)
    }

    #[test]
    fn serve_script_drives_full_session() {
        let db = temp_db("serve");
        let (replies, result) = serve_script(
            &db,
            &format!(
                "# serve session\n\
                 define A:3x2\n\
                 define B:3\n\
                 ingest A B {SUM_ROWS}\n\
                 stats\n\
                 query B,A 1\n\
                 commit\n\
                 quit\n\
                 ingest never reached\n"
            ),
            &[],
        );
        let summary = result.unwrap();
        assert_eq!(replies.len(), 7, "{replies:#?}");
        assert_eq!(
            replies[0],
            "{\"ok\":true,\"defined\":\"A\",\"shape\":[3,2]}"
        );
        assert_eq!(
            replies[2],
            "{\"ok\":true,\"edges\":1,\"rows\":6,\"pending_edges\":1}"
        );
        assert!(replies[3].contains("\"pending_edges\":1"), "{}", replies[3]);
        assert!(
            replies[4].contains("\"boxes\":[[[1,1],[0,1]]]"),
            "{}",
            replies[4]
        );
        assert!(
            replies[5].starts_with(
                "{\"ok\":true,\"generation\":2,\"incremental\":true,\"files_written\":1"
            ),
            "{}",
            replies[5]
        );
        assert_eq!(replies[6], "{\"ok\":true,\"closing\":\"session\"}");
        assert_eq!(
            summary,
            "serve done: 2 array(s), 1 edge(s) at generation 2\n"
        );
        // The committed database is a normal dslog db, its mutations logged
        // under the script's actor.
        let v = run(&s(&["db", "verify", &db])).unwrap();
        assert!(v.contains("database OK"), "{v}");
        let q = run(&s(&["query", "--db", &db, "--path", "B,A", "--cells", "1"])).unwrap();
        assert!(q.contains("(1, [0, 1])"), "{q}");
        let h = run(&s(&["db", "history", &db])).unwrap();
        assert!(
            h.contains("script ingest") && h.contains("script commit"),
            "{h}"
        );
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn script_replies_match_the_wire() {
        // Every request but the bad one succeeds; it goes last, because a
        // script run stops at its first failure.
        let script = format!(
            "define A:3x2\n\
             define B:3\n\
             ingest A B {SUM_ROWS}\n\
             query B,A 1\n\
             query B,A 1;2 stats\n\
             query_batch B,A 1|2|0\n\
             stats\n\
             commit\n\
             history\n\
             bogus request\n"
        );
        let db = temp_db("parity-script");
        let (replies, result) = serve_script(&db, &script, &[]);
        let err = result.unwrap_err();
        assert!(err.starts_with("serve line 10: {\"ok\":false"), "{err}");

        let wire_db = temp_db("parity-wire");
        let (server, addr) = spawn_listen(&wire_db, &[]);
        let client_script = format!("{wire_db}.client");
        std::fs::write(&client_script, format!("{script}shutdown\n")).unwrap();
        let wire = run(&s(&["client", "--addr", &addr, "--script", &client_script])).unwrap();
        server.join().unwrap().unwrap();

        // The actors (`script` against `net:<peer>` in the log, `script`
        // against `cli` as `stats`' `wal_actor`) and the clocks differ by
        // nature, and only the wire run needs `shutdown`'s closing line.
        let mask = |line: &str| {
            let mut out = line.to_string();
            for key in ["actor\":", "\"timestamp_ms\":"] {
                let mut from = 0;
                while let Some(at) = out[from..].find(key) {
                    let start = from + at + key.len();
                    let len = out[start..].find([',', '}']).unwrap();
                    out.replace_range(start..start + len, "_");
                    from = start;
                }
            }
            out
        };
        let replies: Vec<String> = replies.iter().map(|line| mask(line)).collect();
        let wire: Vec<String> = wire
            .lines()
            .filter(|line| !line.contains("\"closing\""))
            .map(mask)
            .collect();
        assert_eq!(replies.len(), 10, "{replies:#?}");
        assert_eq!(replies, wire);
        assert!(replies[8].contains("\"actor\":_"), "{}", replies[8]);
        for dir in [db, wire_db] {
            let _ = std::fs::remove_dir_all(dir);
        }
        let _ = std::fs::remove_file(&client_script);
    }

    /// One writer per directory, over the CLI and the wire. `ingest` beside
    /// a `serve --listen` that has committed is refused with the lock's
    /// error and changes no file; a server whose first commit comes after
    /// another writer's is refused over the wire as stale and changes no
    /// file either. Every commit that succeeded survives.
    #[test]
    fn a_second_writer_is_refused_over_the_cli_and_the_wire() {
        let db = temp_db("one-writer");
        let csv = write_sum_csv("one-writer");
        let ingest = |out: &str| {
            let args = [
                "ingest", "--db", &db, "--in", "A:3x2", "--out", out, "--csv", &csv,
            ];
            run(&s(&args))
        };
        let client = |addr: &str, text: &str| {
            let script = format!("{db}.client");
            std::fs::write(&script, text).unwrap();
            let out = run(&s(&["client", "--addr", addr, "--script", &script])).unwrap();
            let _ = std::fs::remove_file(&script);
            out
        };
        let dir = std::path::Path::new(&db);
        ingest("B:3").unwrap();

        let (server, addr) = spawn_listen(&db, &[]);
        let out = client(&addr, "define C:3\ningest B C 0,1;1,2;2,0\ncommit\n");
        assert!(out.contains("\"generation\":2"), "{out}");
        let before = dir_files(dir);
        let err = ingest("D:3").unwrap_err();
        assert!(err.contains("locked by another writer"), "{err}");
        assert_eq!(dir_files(dir), before, "a refused ingest wrote");
        client(&addr, "shutdown\n");
        server.join().unwrap().unwrap();

        let (server, addr) = spawn_listen(&db, &[]);
        ingest("D:3").unwrap();
        let before = dir_files(dir);
        let out = client(&addr, "define E:3\ningest B E 0,1;1,2;2,0\ncommit\n");
        assert!(
            out.contains("another writer committed generation 3"),
            "{out}"
        );
        assert_eq!(dir_files(dir), before, "a stale commit wrote");
        client(&addr, "shutdown\n");
        let _ = server.join().unwrap();

        for path in ["C,B,A", "D,A"] {
            let q = run(&s(&["query", "--db", &db, "--path", path, "--cells", "1"]));
            assert!(q.is_ok(), "{path}: {q:?}");
        }
        let v = run(&s(&["db", "verify", &db])).unwrap();
        assert!(v.contains("database OK: 4 array(s), 3 edge(s)"), "{v}");
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn serve_listen_and_client_roundtrip_over_tcp() {
        let db = temp_db("serve-net");
        let (server, addr) = spawn_listen(&db, &[]);
        let script = format!("{db}.client");
        std::fs::write(
            &script,
            "define A:3x2\n\
             define B:3\n\
             ingest A B 0,0,0;1,1,0;1,1,1\n\
             query B,A 1\n\
             query_batch B,A 1|0\n\
             stats\n\
             commit\n\
             shutdown\n",
        )
        .unwrap();
        let out = run(&s(&[
            "client", "--addr", &addr, "--script", &script, "--stats",
        ]))
        .unwrap();
        assert!(out.contains("\"defined\":\"A\""), "{out}");
        assert!(out.contains("\"rows\":3"), "{out}");
        assert!(out.contains("\"boxes\":[[[1,1],[0,1]]]"), "{out}");
        // --stats upgrades query/query_batch to their stats-carrying form.
        assert!(out.contains("\"stats\":{\"rows_probed\":"), "{out}");
        assert!(out.contains("\"results\":[{\"cells\":"), "{out}");
        assert!(out.contains("\"edges\":1"), "{out}");
        assert!(out.contains("\"generation\":2"), "{out}");
        assert!(out.contains("\"closing\":\"server\""), "{out}");
        // The server run returns its summary after the client's shutdown.
        let summary = server.join().unwrap().unwrap();
        assert!(
            summary.contains("serve done: 2 array(s), 1 edge(s)"),
            "{summary}"
        );
        // The committed database is a normal dslog database.
        let v = run(&s(&["db", "verify", &db])).unwrap();
        assert!(v.contains("database OK"), "{v}");
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&script);
    }

    #[test]
    fn serve_auto_commit_threshold_persists_without_commit_command() {
        let db = temp_db("serve-auto");
        let script = format!("define A:3x2\ndefine B:3\ningest A B {SUM_ROWS}\n");
        let (replies, result) = serve_script(&db, &script, &["--auto-commit-edges", "1"]);
        result.unwrap();
        assert!(
            replies[2]
                .contains("\"pending_edges\":0,\"auto_commit\":{\"ok\":true,\"generation\":2"),
            "{replies:#?}"
        );
        let stats = run(&s(&["stats", "--db", &db])).unwrap();
        assert!(stats.contains("1 edge"), "{stats}");
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn damaged_database_is_never_silently_replaced() {
        let db = temp_db("nowipe");
        let csv = write_sum_csv("nowipe");
        run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        // Corrupt the log, which is the database: a later ingest or serve
        // must refuse (not fresh-init an empty database whose save would
        // sweep the old snapshot's segment).
        let log = std::path::Path::new(&db).join("ops.log");
        std::fs::write(&log, b"garbage").unwrap();
        assert!(run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .is_err());
        let script = std::env::temp_dir().join(format!("dslog-nowipe-{}.txt", std::process::id()));
        std::fs::write(&script, "stats\n").unwrap();
        assert!(run(&s(&[
            "serve",
            "--db",
            &db,
            "--script",
            script.to_str().unwrap(),
        ]))
        .is_err());
        // The segment survived both refusals.
        let segments = std::fs::read_dir(&db)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("segment-"))
            .count();
        assert_eq!(segments, 1);
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
        let _ = std::fs::remove_file(&script);
    }

    #[test]
    fn serve_gzip_flag_converts_plain_database() {
        let db = temp_db("serve-gzconv");
        let csv = write_sum_csv("serve-gzconv");
        run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        assert!(run(&s(&["db", "verify", &db])).unwrap().contains("plain"));
        let (replies, result) = serve_script(&db, "stats\n", &["--gzip"]);
        result.unwrap();
        // The conversion is a full save: generation 2, before any command.
        assert!(replies[0].contains("\"generation\":2,"), "{replies:?}");
        let v = run(&s(&["db", "verify", &db])).unwrap();
        assert!(v.contains("gzip"), "{v}");
        let q = run(&s(&["query", "--db", &db, "--path", "B,A", "--cells", "1"])).unwrap();
        assert!(q.contains("(1, [0, 1])"), "{q}");
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn serve_commits_pending_edges_even_when_a_command_fails() {
        let db = temp_db("serve-errcommit");
        let script = format!("define A:3x2\ndefine B:3\ningest A B {SUM_ROWS}\nfrobnicate\n");
        let (replies, result) = serve_script(&db, &script, &[]);
        let err = result.unwrap_err();
        assert!(
            err.starts_with("serve line 4: {\"ok\":false,\"error\":\"bad request `frobnicate`"),
            "{err}"
        );
        // The failed command's reply was printed like any other.
        assert_eq!(replies.len(), 4, "{replies:#?}");
        assert!(err.ends_with(&replies[3]), "{err}");
        // The successfully ingested edge was committed before exit.
        let stats = run(&s(&["stats", "--db", &db])).unwrap();
        assert!(stats.contains("1 edge"), "{stats}");
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn serve_rejects_bad_commands() {
        let db = temp_db("serve-bad");
        // A script speaks the wire protocol: `ingest` takes inline rows,
        // not a CSV path.
        for (script, line) in [
            ("frobnicate the database\n", "serve line 1: "),
            (
                "define A:3\ndefine B:3\ningest A B rows.csv\n",
                "serve line 3: ",
            ),
        ] {
            let (_, result) = serve_script(&db, script, &[]);
            let err = result.unwrap_err();
            assert!(
                err.starts_with(line) && err.contains("\"ok\":false"),
                "{err}"
            );
        }
        let _ = std::fs::remove_dir_all(&db);
    }

    /// A catalog of a shape this build no longer reads, sealed with its
    /// crc32 trailer: `magic`, plain, generation 1, arrays `A:3x2` and
    /// `B:3`, and one edge `A -> B` under edge mask `mask`, each table it
    /// names the whole of the file `table`, recorded with `crc` (a
    /// `DSLGDB3` record ends in the offset, 0; a `DSLGDB2` one had none).
    fn older_catalog(magic: &[u8; 8], mask: u8, table: &str, bytes: &[u8], crc: u32) -> Vec<u8> {
        use dslog_codecs::crc32::crc32;
        use dslog_codecs::varint::write_uvarint;
        let mut catalog = magic.to_vec();
        catalog.extend_from_slice(b"\x00\x01"); // plain, generation 1
        catalog.extend_from_slice(b"\x02\x01A\x02\x03\x02\x01B\x01\x03"); // arrays
        catalog.extend_from_slice(b"\x01\x01A\x01B"); // A -> B
        catalog.push(mask);
        for _ in 0..mask.count_ones() {
            write_uvarint(&mut catalog, table.len() as u64);
            catalog.extend_from_slice(table.as_bytes());
            write_uvarint(&mut catalog, bytes.len() as u64);
            catalog.extend_from_slice(&crc.to_le_bytes());
            write_uvarint(&mut catalog, bytes.len() as u64);
            if magic == b"DSLGDB3\0" {
                write_uvarint(&mut catalog, 0);
            }
        }
        let seal = crc32(&catalog);
        catalog.extend_from_slice(&seal.to_le_bytes());
        catalog
    }

    /// A log of one commit record of retired kind `kind` naming `catalog`:
    /// op 1 by `cli`, generation 0 → 1, the catalog's length and crc
    /// trailer — as builds whose every commit rewrote the catalog logged it
    /// (kind 6), or, with its segment and tables after, the build before
    /// logs were the database (kind 7, here naming none).
    fn older_log(kind: u8, catalog: &[u8]) -> Vec<u8> {
        use dslog_codecs::crc32::crc32;
        use dslog_codecs::varint::write_uvarint;
        // Version 1, op 1, timestamp 0, actor "cli", generation 0 -> 1.
        let mut body = b"\x01\x01\x00\x03cli\x00\x01".to_vec();
        body.push(kind);
        write_uvarint(&mut body, catalog.len() as u64);
        body.extend_from_slice(&catalog[catalog.len() - 4..]);
        if kind == 7 {
            body.extend_from_slice(b"\x00\x01\x00");
        }
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame
    }

    /// Directories in the shapes earlier builds wrote — a `catalog.dsl`
    /// checkpoint file of one of its versions, alone or beside a log whose
    /// commit records are of a retired kind — are refused by every reader
    /// and writer with a typed error, and left as they are: a directory
    /// with files but no log is no database this build reads, and a log of
    /// a retired kind is no log it reads.
    #[test]
    fn directory_of_an_older_shape_is_refused_and_left_alone() {
        use dslog::{Dslog, DslogError};
        // The sum relation's backward table: the one table the segment of a
        // fresh single-edge ingest holds.
        let csv = write_sum_csv("older");
        let ingest = |db: &str| {
            let args = [
                "ingest", "--db", db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
            ];
            run(&s(&args))
        };
        let source = temp_db("older-source");
        ingest(&source).unwrap();
        let table = std::fs::read(std::path::Path::new(&source).join("segment-0.g1.seg")).unwrap();
        let _ = std::fs::remove_dir_all(&source);

        // The crc32 of the whole table, as catalogs of earlier builds
        // recorded it, and its body crc, as this build does.
        let whole = dslog_codecs::crc32::crc32(&table);
        let body = u32::from_le_bytes(table[table.len() - 4..].try_into().unwrap());
        let (v2, v3) = (b"DSLGDB2\0", b"DSLGDB3\0");
        let (edge, segment) = ("edge-0-b.g1.tbl", "segment-0.g1.seg");
        for (tag, magic, edge_mask, file, crc, log) in [
            ("older-v2", v2, 1, edge, whole, None),
            ("older-edge", v3, 1, edge, whole, None),
            ("kind-6", v3, 1, segment, body, Some(6)),
            ("head", v3, 1, segment, body, Some(7)),
            ("forward-mask", v3, 2, segment, body, None),
            ("both-mask", v3, 3, segment, body, None),
            ("residue", v3, 1, segment, whole, None),
        ] {
            let db = temp_db(tag);
            let dir = std::path::Path::new(&db);
            std::fs::create_dir_all(dir).unwrap();
            let catalog = older_catalog(magic, edge_mask, file, &table, crc);
            std::fs::write(dir.join(file), &table).unwrap();
            if let Some(kind) = log {
                std::fs::write(dir.join("ops.log"), older_log(kind, &catalog)).unwrap();
            }
            std::fs::write(dir.join("catalog.dsl"), catalog).unwrap();
            let before = dir_files(dir);

            let refusal = match log {
                Some(_) => "retired log record kind",
                None => "database files without an ops.log",
            };
            let typed = DslogError::Corrupt(refusal);
            let first_query = |db: Dslog| db.prov_query(&["B", "A"], &[vec![1]]).map(drop);
            for opened in [
                Dslog::options().open(dir).map(drop),
                Dslog::options().lazy(true).open(dir).and_then(first_query),
                Dslog::options().as_of(1).open(dir).map(drop),
            ] {
                assert_eq!(opened.unwrap_err(), typed, "{tag}");
            }
            let verified = dslog::storage::persist::verify(dir).map(drop);
            assert_eq!(verified.unwrap_err(), typed, "{tag}");
            // Neither writer takes it for a missing database to initialize.
            let err = ingest(&db).unwrap_err();
            assert!(err.contains(refusal), "{err}");
            let (replies, served) = serve_script(&db, "stats\n", &[]);
            assert!(served.unwrap_err().contains(refusal), "{tag}");
            assert!(replies.is_empty(), "{replies:?}");
            assert_eq!(dir_files(dir), before, "{tag}: the directory changed");
            let _ = std::fs::remove_dir_all(&db);
        }
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn full_ingest_stats_query_export_cycle() {
        let db = temp_db("cycle");
        let csv = write_sum_csv("cycle");

        let out = run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        assert!(out.contains("ingested"), "{out}");

        let stats = run(&s(&["stats", "--db", &db])).unwrap();
        assert!(stats.contains('A') && stats.contains('B'), "{stats}");
        assert!(stats.contains("1 edge"), "{stats}");

        // Backward query: B[1] -> A must hit row 1, both columns.
        let q = run(&s(&["query", "--db", &db, "--path", "B,A", "--cells", "1"])).unwrap();
        assert!(q.contains("(1, [0, 1])"), "{q}");

        // Export roundtrips the relation.
        let q2 = run(&s(&["export", "--db", &db, "--edge", "A,B"])).unwrap();
        assert_eq!(q2.lines().count(), 6, "{q2}");
        assert!(q2.lines().any(|l| l == "2,2,1"), "{q2}");

        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn compress_reports_all_formats() {
        let csv = write_sum_csv("compress");
        let out = run(&s(&["compress", "--csv", &csv, "--out-arity", "1"])).unwrap();
        for fmt in ["Raw", "Parquet", "Turbo-RC", "ProvRC"] {
            assert!(out.contains(fmt), "missing {fmt} in:\n{out}");
        }
        assert!(out.contains("rows/s"), "missing throughput in:\n{out}");
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn removed_ablation_switches_are_not_options() {
        // None is a switch any more, so option parsing stops at them.
        let err = run(&s(&[
            "compress",
            "--csv",
            "x.csv",
            "--out-arity",
            "1",
            "--no-fast",
        ]));
        assert!(err.unwrap_err().contains("--no-fast"));
        for flag in ["--scan", "--no-planner"] {
            assert_unknown_flag(
                &["query", "--db", "d", "--path", "B,A", "--cells", "1", flag],
                flag,
                "query",
            );
        }
    }

    /// `run(args)` fails naming `flag` as unknown for `command`.
    fn assert_unknown_flag(args: &[&str], flag: &str, command: &str) {
        let err = run(&s(args)).unwrap_err();
        assert_eq!(
            err,
            format!("unknown flag {flag} for {command}; see dslog help"),
            "{args:?}"
        );
    }

    #[test]
    fn ingest_rejects_unknown_flags_before_touching_the_database() {
        let db = temp_db("typo-ingest");
        let csv = write_sum_csv("typo-ingest");
        let base = [
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ];
        // A misspelt --retain must not ingest with the default retention.
        assert_unknown_flag(
            &[&base[..], &["--retian", "3"]].concat(),
            "--retian",
            "ingest",
        );
        // A flag of another command is unknown here too.
        assert_unknown_flag(&[&base[..], &["--lazy"]].concat(), "--lazy", "ingest");
        assert!(!std::path::Path::new(&db).exists(), "nothing was written");
        run(&s(&[&base[..], &["--retain", "3"]].concat())).unwrap();
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn reader_commands_reject_unknown_flags() {
        let db = temp_db("typo-read");
        let csv = write_sum_csv("typo-read");
        run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        assert_unknown_flag(&["stats", "--db", &db, "--lasy"], "--lasy", "stats");
        assert_unknown_flag(&["stats", "--db", &db, "--stats"], "--stats", "stats");
        assert_unknown_flag(
            &[
                "query",
                "--db",
                &db,
                "--path",
                "B,A",
                "--cells",
                "1",
                "--no-plan",
                "x",
            ],
            "--no-plan",
            "query",
        );
        assert_unknown_flag(
            &["export", "--db", &db, "--edge", "A,B", "--path", "B,A"],
            "--path",
            "export",
        );
        // Every flag the three do read still parses.
        run(&s(&["stats", "--db", &db, "--lazy"])).unwrap();
        run(&s(&[
            "query",
            "--db",
            &db,
            "--path",
            "B,A",
            "--cells",
            "1",
            "--no-merge",
            "--stats",
            "--lazy",
        ]))
        .unwrap();
        run(&s(&["export", "--db", &db, "--edge", "A,B", "--lazy"])).unwrap();
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn serve_and_client_reject_unknown_flags() {
        let db = temp_db("typo-serve");
        assert_unknown_flag(
            &["serve", "--db", &db, "--auto-comit-edges", "4"],
            "--auto-comit-edges",
            "serve",
        );
        assert!(
            !std::path::Path::new(&db).exists(),
            "no database was created"
        );
        assert_unknown_flag(
            &["client", "--addr", "127.0.0.1:1", "--retrys", "2"],
            "--retrys",
            "client",
        );
    }

    #[test]
    fn serve_rejects_listen_with_script_before_touching_the_database() {
        let db = temp_db("listen-script");
        let both = [
            "serve",
            "--db",
            &db,
            "--listen",
            "127.0.0.1:0",
            "--script",
            "x",
        ];
        let err = run(&s(&both)).unwrap_err();
        assert_eq!(err, "serve takes --listen or --script, not both");
        assert!(
            !std::path::Path::new(&db).exists(),
            "no database was created"
        );
    }

    #[test]
    fn db_compact_and_compress_reject_unknown_flags() {
        let db = temp_db("typo-compact");
        let csv = write_sum_csv("typo-compact");
        run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        assert_unknown_flag(
            &["db", "compact", &db, "--retian", "1"],
            "--retian",
            "db compact",
        );
        run(&s(&["db", "compact", &db, "--retain", "1"])).unwrap();
        assert_unknown_flag(
            &["compress", "--csv", &csv, "--out-arity", "1", "--gzip"],
            "--gzip",
            "compress",
        );
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn db_verify_passes_then_catches_corruption() {
        for gzip in [false, true] {
            let db = temp_db(if gzip { "verify-gz" } else { "verify" });
            let csv = write_sum_csv(if gzip { "verify-gz" } else { "verify" });
            let mut ingest = s(&[
                "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
            ]);
            if gzip {
                ingest.push("--gzip".to_string());
            }
            run(&ingest).unwrap();

            let out = run(&s(&["db", "verify", &db])).unwrap();
            let mode = if gzip { "gzip" } else { "plain" };
            assert!(out.contains(&format!("verified ({mode}, ")), "{out}");

            // Corrupt the table inside its segment: verify must now error.
            let segment = std::path::Path::new(&db).join("segment-0.g1.seg");
            let mut bytes = std::fs::read(&segment).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(&segment, &bytes).unwrap();
            let err = run(&s(&["db", "verify", &db])).unwrap_err();
            assert!(err.contains("edge file checksum mismatch"), "{err}");

            let _ = std::fs::remove_dir_all(&db);
            let _ = std::fs::remove_file(&csv);
        }
    }

    #[test]
    fn reader_commands_leave_a_dirty_directory_alone() {
        let db = temp_db("dirty-readers");
        let csv = write_sum_csv("dirty-readers");
        for out in ["B:3", "C:3"] {
            let args = [
                "ingest", "--db", &db, "--in", "A:3x2", "--out", out, "--csv", &csv, "--retain",
                "2",
            ];
            run(&s(&args)).unwrap();
        }
        // What a crashed process leaves: a torn log frame, an orphan
        // segment and retired log, temp files.
        let dir = std::path::Path::new(&db);
        let mut log = std::fs::read(dir.join("ops.log")).unwrap();
        log.extend_from_slice(b"\x30\0\0\0half a frame");
        std::fs::write(dir.join("ops.log"), log).unwrap();
        let debris = [
            "ops.g39.log",
            "ops.log.tmp",
            "segment-0.g40.seg",
            "segment-0.g41.seg.tmp",
        ];
        for name in debris {
            std::fs::write(dir.join(name), b"debris").unwrap();
        }
        let before = dir_files(dir);
        let query = ["query", "--db", &db, "--path", "B,A", "--cells", "1"];
        for reader in [
            [&query[..], &["--lazy"]].concat(),
            [&query[..], &["--as-of", "1"]].concat(),
            vec!["db", "verify", &db],
            vec!["db", "history", &db],
        ] {
            let out = run(&s(&reader)).unwrap();
            assert_eq!(dir_files(dir), before, "{reader:?} changed the directory");
            if reader[1] == "verify" {
                for name in debris {
                    assert!(
                        out.contains(&format!("warning: stale file {name} ")),
                        "{out}"
                    );
                }
            }
        }
        // The next commit deletes the debris and starts a fresh log: the
        // torn frame stays behind in the retired one.
        let args = [
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "D:3", "--csv", &csv,
        ];
        run(&s(&args)).unwrap();
        let out = run(&s(&["db", "verify", &db])).unwrap();
        assert!(!out.contains("warning: stale"), "{out}");
        let log = std::fs::read(dir.join("ops.log")).unwrap();
        assert_eq!(dslog::storage::wal::read_log(&log).1, log.len());
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn db_verify_usage_errors() {
        assert!(run(&s(&["db"])).is_err());
        assert!(run(&s(&["db", "frob"])).is_err());
        assert!(run(&s(&["db", "verify"])).is_err());
        assert!(run(&s(&["db", "verify", "/nonexistent/dslog-db"])).is_err());
        assert!(run(&s(&["db", "history"])).is_err());
        assert!(run(&s(&["db", "history", "/nonexistent/dslog-db"])).is_err());
    }

    #[test]
    fn db_history_lists_cli_operations() {
        let db = temp_db("history");
        let csv = write_sum_csv("history");
        run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        let out = run(&s(&["db", "history", &db])).unwrap();
        assert!(out.contains("cli define"), "{out}");
        assert!(out.contains("cli ingest"), "{out}");
        assert!(out.contains("cli commit"), "{out}");
        assert!(out.contains("gen 0->1"), "{out}");
        // The log opens with its checkpoint, one line of its own.
        assert!(
            out.lines().next().unwrap().ends_with(
                "cli checkpoint gen 0->0: checkpoint of generation 1 (2 arrays, 1 edges)"
            ),
            "{out}"
        );
        assert!(
            out.contains("5 record(s), 1 commit(s), the last to generation 1"),
            "{out}"
        );
        // verify reports the live log's record count alongside the table
        // walk.
        let v = run(&s(&["db", "verify", &db])).unwrap();
        assert!(v.contains("5 log record(s)"), "{v}");
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn query_as_of_reaches_retained_generation() {
        let db = temp_db("asof");
        let csv = write_sum_csv("asof");
        // Two generations: gen 1 has only A->B, gen 2 adds B->C and —
        // told to retain — keeps what gen 1 was.
        run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        let csv2 = std::env::temp_dir().join(format!("dslog-asof2-{}.csv", std::process::id()));
        std::fs::write(&csv2, "0,0\n1,2\n2,1\n").unwrap();
        run(&s(&[
            "ingest",
            "--db",
            &db,
            "--in",
            "B:3",
            "--out",
            "C:3",
            "--csv",
            csv2.to_str().unwrap(),
            "--retain",
            "4",
        ]))
        .unwrap();
        // Current database answers the two-hop path...
        let now = run(&s(&[
            "query", "--db", &db, "--path", "C,B,A", "--cells", "1",
        ]))
        .unwrap();
        assert!(now.contains("hop(s)"), "{now}");
        // ...but as of generation 1, C does not exist yet.
        let old = run(&s(&[
            "query", "--db", &db, "--path", "B,A", "--cells", "1", "--as-of", "1",
        ]))
        .unwrap();
        assert!(old.contains("(1, [0, 1])"), "{old}");
        assert!(run(&s(&[
            "query", "--db", &db, "--path", "C,B", "--cells", "1", "--as-of", "1",
        ]))
        .is_err());
        // An unretained generation is a clean error.
        assert!(run(&s(&[
            "query", "--db", &db, "--path", "B,A", "--cells", "1", "--as-of", "99",
        ]))
        .is_err());
        // A compaction keeps exactly the window it is told to retain.
        let as_of_1 = s(&[
            "query", "--db", &db, "--path", "B,A", "--cells", "1", "--as-of", "1",
        ]);
        run(&s(&["db", "compact", &db, "--retain", "4"])).unwrap();
        assert_eq!(run(&as_of_1).unwrap(), old);
        run(&s(&["db", "compact", &db])).unwrap();
        assert!(run(&as_of_1).is_err());
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
        let _ = std::fs::remove_file(&csv2);
    }

    #[test]
    fn db_compact_folds_generations_and_keeps_queries() {
        let db = temp_db("compact");
        let csv = write_sum_csv("compact");
        run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        let csv2 = std::env::temp_dir().join(format!("dslog-compact2-{}.csv", std::process::id()));
        std::fs::write(&csv2, "0,0\n1,2\n2,1\n").unwrap();
        run(&s(&[
            "ingest",
            "--db",
            &db,
            "--in",
            "B:3",
            "--out",
            "C:3",
            "--csv",
            csv2.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&["db", "compact", &db])).unwrap();
        assert!(out.contains("compacted to generation 3"), "{out}");
        assert!(out.contains("2 table(s) rewritten"), "{out}");
        // The two commits' segments are gone; the data now lives in the
        // compaction's one.
        let mut names: Vec<String> = std::fs::read_dir(&db)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let retired = ["ops.g1.log", "ops.g2.log"];
        let live = ["ops.log", "segment-0.g3.seg", "writer.lock"];
        assert_eq!(names, [&retired[..], &live[..]].concat());
        // Eager and lazy opens both answer over the compacted layout.
        for extra in [&[][..], &["--lazy"][..]] {
            let mut args = s(&["query", "--db", &db, "--path", "C,B,A", "--cells", "1"]);
            args.extend(extra.iter().map(|x| x.to_string()));
            let q = run(&args).unwrap();
            assert!(q.contains("hop(s)"), "{q}");
        }
        // Verify holds every range against the checkpoint and finds no dead
        // space; history shows the compact record.
        let v = run(&s(&["db", "verify", &db])).unwrap();
        assert!(v.contains("database OK"), "{v}");
        assert!(v.contains("2 table(s) verified"), "{v}");
        assert!(!v.contains("dead byte"), "{v}");
        let h = run(&s(&["db", "history", &db])).unwrap();
        assert!(h.contains("cli compact"), "{h}");
        // Conflicting open flags are one clean builder error.
        let err = run(&s(&[
            "query", "--db", &db, "--path", "B,A", "--cells", "1", "--as-of", "1", "--lazy",
        ]))
        .unwrap_err();
        assert!(err.contains("invalid options"), "{err}");
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
        let _ = std::fs::remove_file(&csv2);
    }

    #[test]
    fn client_retries_busy_rejection_until_admitted() {
        use std::io::{BufRead as _, Write as _};
        let db = temp_db("client-retry");
        let (server, addr) = spawn_listen(&db, &["--net-workers", "1", "--net-queue-depth", "0"]);
        // Occupy the only worker with a raw admitted session.
        let occupier = std::net::TcpStream::connect(&addr).unwrap();
        occupier
            .set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .unwrap();
        let mut occ_writer = occupier.try_clone().unwrap();
        let mut occ_reader = std::io::BufReader::new(occupier);
        occ_writer.write_all(b"stats\n").unwrap();
        let mut line = String::new();
        occ_reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");

        // The retrying client starts while the worker is occupied.
        let script =
            std::env::temp_dir().join(format!("dslog-retry-cli-{}.txt", std::process::id()));
        std::fs::write(&script, "stats\nshutdown\n").unwrap();
        let client = {
            let addr = addr.clone();
            let script = script.clone();
            std::thread::spawn(move || {
                run(&s(&[
                    "client",
                    "--addr",
                    &addr,
                    "--script",
                    script.to_str().unwrap(),
                    "--retries",
                    "50",
                    "--retry-ms",
                    "10",
                ]))
            })
        };
        // Hold the worker long enough that the client must retry at
        // least once, then release it.
        std::thread::sleep(std::time::Duration::from_millis(300));
        occ_writer.write_all(b"quit\n").unwrap();
        line.clear();
        occ_reader.read_line(&mut line).unwrap();
        drop((occ_reader, occ_writer));

        let out = client.join().unwrap().unwrap();
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"closing\":\"server\""), "{out}");
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("serve done"), "{summary}");
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&script);
    }

    #[test]
    fn lazy_query_matches_eager() {
        let db = temp_db("lazy");
        let csv = write_sum_csv("lazy");
        run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        let eager = run(&s(&["query", "--db", &db, "--path", "B,A", "--cells", "1"])).unwrap();
        let lazy = run(&s(&[
            "query", "--db", &db, "--path", "B,A", "--cells", "1", "--lazy",
        ]))
        .unwrap();
        assert_eq!(eager, lazy);
        let stats = run(&s(&["stats", "--db", &db, "--lazy"])).unwrap();
        assert!(stats.contains("1 edge"), "{stats}");
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn query_stats_plan_line_and_serve_query_batch() {
        let db = temp_db("planstats");
        let csv = write_sum_csv("planstats");
        run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        let on = run(&s(&[
            "query", "--db", &db, "--path", "B,A", "--cells", "1", "--stats",
        ]))
        .unwrap();
        assert!(on.contains("plan: path_order"), "{on}");
        assert!(on.contains("(1, [0, 1])"), "{on}");

        // serve scripts accept |-separated query batches.
        let (replies, result) = serve_script(&db, "query_batch B,A 1|2\nquit\n", &[]);
        result.unwrap();
        assert_eq!(
            replies[0],
            "{\"ok\":true,\"hops\":1,\"results\":[{\"cells\":2,\"boxes\":[[[1,1],[0,1]]]},\
             {\"cells\":2,\"boxes\":[[[2,2],[0,1]]]}]}"
        );
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn query_rejects_bad_cells() {
        let db = temp_db("badcells");
        let csv = write_sum_csv("badcells");
        run(&s(&[
            "ingest", "--db", &db, "--in", "A:3x2", "--out", "B:3", "--csv", &csv,
        ]))
        .unwrap();
        assert!(run(&s(&["query", "--db", &db, "--path", "B,A", "--cells", "9"])).is_err());
        assert!(run(&s(&["query", "--db", &db, "--path", "B", "--cells", "1"])).is_err());
        let _ = std::fs::remove_dir_all(&db);
        let _ = std::fs::remove_file(&csv);
    }
}
