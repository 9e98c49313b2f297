//! `cargo xtask lint` — dependency-free source-level invariant scanner.
//!
//! Scans `crates/**/src` plus `xtask/src` line by line (no syn, no regex
//! crates — a hand-rolled tokenizer good enough for the repo's rustfmt'd
//! style) and enforces seven invariants:
//!
//! - **raw-sync** — no raw `parking_lot::` / `std::sync::{Mutex, RwLock,
//!   Condvar}` outside `crates/sync`; all locks go through `dslog-sync` so
//!   the rank/IO instrumentation cannot be bypassed.
//! - **panic-path** — no `unwrap()` / `expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in non-test library code.
//!   Audited exceptions live in `lint-allow.txt` with a justification.
//! - **raw-spawn** — no `thread::spawn` / `thread::Builder` in library code
//!   outside the sanctioned net worker pool and service ticker (allowlisted);
//!   everything else fans out through `dslog`'s `par::map`.
//! - **raw-scope** — no `thread::scope` in library code outside
//!   `crates/core/src/par.rs`: one helper owns worker sizing, result order
//!   and panic propagation, and a site that threads names a measured grain.
//! - **decode-alloc** — in decode paths (`storage/format.rs`,
//!   `storage/persist.rs`, `storage/wal.rs`, `crates/codecs`, and the
//!   column codecs of `crates/baselines`: `bitpack`, `dict`, `hybrid`,
//!   `rle`), a
//!   `with_capacity` / `vec![_; n]` whose size came from a wire read must be
//!   bounds-checked between the read and the allocation (or carry a
//!   `lint:checked-alloc` marker).
//! - **wal-replay-arm** — every `OpKind` variant `storage/wal.rs` declares
//!   has its own arm inside `fn apply` of `storage/catalog.rs`, the one
//!   replay of the log that open, `as_of`, `verify` and commits run, and
//!   that function carries no `_ =>` wildcard — a new op kind must fail the
//!   lint loudly instead of silently becoming unreplayable.
//! - **env-read** — no `std::env::var` / `var_os` in non-test code under
//!   `crates/core/src` or `crates/cli/src`: a database is configured through
//!   `OpenOptions` (and the CLI's flags), never by the process environment.
//!
//! Test regions (`#[cfg(test)] mod` bodies) are skipped for every rule;
//! binary targets (`src/bin`, `src/main.rs`, the CLI crate) are skipped for
//! panic-path, raw-spawn and raw-scope (a panic there aborts one driver run,
//! not the serving process) but still checked for raw-sync.
//!
//! Exit status is non-zero if any violation survives the allowlist or if an
//! allowlist entry is stale (matches nothing). `--report <path>` writes the
//! findings to a file for CI artifact upload.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const ALLOWLIST_FILE: &str = "lint-allow.txt";

/// One lint violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Path relative to the workspace root, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub text: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.text
        )
    }
}

/// How a file is treated by the rules.
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    /// Inside `crates/sync` — the one place raw primitives are allowed.
    pub sync_crate: bool,
    /// Binary target: panic-path, raw-spawn and raw-scope are relaxed.
    pub bin_target: bool,
    /// `crates/core/src/par.rs` — the one home of `thread::scope`.
    pub par_module: bool,
    /// Wire-decode scope: the decode-alloc rule applies.
    pub decode_scope: bool,
    /// The library and its CLI: the env-read rule applies.
    pub env_scope: bool,
}

/// The column codecs the baseline formats are built from: decoders of
/// their own wire format, held to decode-alloc like `crates/codecs`.
const BASELINE_CODECS: [&str; 4] = [
    "crates/baselines/src/bitpack.rs",
    "crates/baselines/src/dict.rs",
    "crates/baselines/src/hybrid.rs",
    "crates/baselines/src/rle.rs",
];

pub fn classify(rel: &str) -> FileClass {
    FileClass {
        sync_crate: rel.starts_with("crates/sync/"),
        bin_target: rel.starts_with("crates/cli/src/")
            || rel.contains("/src/bin/")
            || rel.ends_with("src/main.rs"),
        par_module: rel == "crates/core/src/par.rs",
        decode_scope: rel == "crates/core/src/storage/format.rs"
            || rel == "crates/core/src/storage/persist.rs"
            || rel == "crates/core/src/storage/wal.rs"
            || rel.starts_with("crates/codecs/src/")
            || BASELINE_CODECS.contains(&rel),
        env_scope: rel.starts_with("crates/core/src/") || rel.starts_with("crates/cli/src/"),
    }
}

pub fn run(argv: Vec<String>) -> ExitCode {
    let mut report_path: Option<PathBuf> = None;
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => match it.next() {
                Some(p) => report_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--report requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => roots.push(PathBuf::from(other)),
        }
    }

    let workspace = workspace_root();
    if roots.is_empty() {
        roots.push(workspace.clone());
    }

    let mut findings = Vec::new();
    for root in &roots {
        match scan_workspace(root) {
            Ok(mut f) => findings.append(&mut f),
            Err(e) => {
                eprintln!("lint: failed to scan {}: {e}", root.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let allowlist = match load_allowlist(&workspace.join(ALLOWLIST_FILE)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lint: bad allowlist: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (survivors, stale) = apply_allowlist(findings, allowlist);

    let mut report = String::new();
    for f in &survivors {
        report.push_str(&f.to_string());
        report.push('\n');
    }
    for s in &stale {
        report.push_str(&format!("stale allowlist entry (matched nothing): {s}\n"));
    }
    if survivors.is_empty() && stale.is_empty() {
        report.push_str("lint OK: no violations\n");
    } else {
        report.push_str(&format!(
            "lint FAILED: {} violation(s), {} stale allowlist entr(ies)\n",
            survivors.len(),
            stale.len()
        ));
    }
    print!("{report}");
    if let Some(p) = report_path {
        if let Err(e) = fs::write(&p, &report) {
            eprintln!("lint: cannot write report {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    if survivors.is_empty() && stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: parent of the xtask crate.
pub(crate) fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Scan `crates/**/src` and `xtask/src` under `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let xtask_src = root.join("xtask/src");
    if xtask_src.is_dir() {
        collect_rs(&xtask_src, &mut files)?;
    }
    files.sort();

    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let content = fs::read_to_string(&file)?;
        findings.extend(scan_source(&rel, &content, classify(&rel)));
    }
    // wal-replay-arm: the enum and the replay sit in two files.
    if let Ok(op_kinds) = fs::read_to_string(root.join(OP_KIND_FILE)) {
        let replay = fs::read_to_string(root.join(REPLAY_FILE)).unwrap_or_default();
        findings.extend(check_replay_arms(
            (OP_KIND_FILE, &op_kinds),
            (REPLAY_FILE, &replay),
        ));
    }
    Ok(findings)
}

pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Strip line comments and string-literal *contents* (delimiters kept) so
/// token matching does not fire on prose. Line-local; multiline string
/// bodies are not tracked (the allowlist is the escape hatch for the rare
/// mis-parse).
fn sanitize(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                out.push('"');
                while let Some(sc) = chars.next() {
                    match sc {
                        '\\' => {
                            chars.next();
                        }
                        '"' => {
                            out.push('"');
                            break;
                        }
                        _ => {}
                    }
                }
            }
            '\'' => {
                // Distinguish char literals ('x', '\n') from lifetimes ('a).
                let mut ahead = chars.clone();
                match (ahead.next(), ahead.next(), ahead.next()) {
                    (Some('\\'), _, Some('\'')) => {
                        chars.nth(2);
                        out.push_str("' '");
                    }
                    (Some(_), Some('\''), _) => {
                        chars.nth(1);
                        out.push_str("' '");
                    }
                    _ => out.push('\''),
                }
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

fn brace_delta(sanitized: &str) -> i64 {
    let mut d = 0;
    for c in sanitized.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Scan one file's source. `rel` is only used to label findings.
pub fn scan_source(rel: &str, content: &str, class: FileClass) -> Vec<Finding> {
    let raw_lines: Vec<&str> = content.lines().collect();
    let sanitized: Vec<String> = raw_lines.iter().map(|l| sanitize(l)).collect();

    let mut findings = Vec::new();
    let mut depth: i64 = 0;
    let mut cfg_test_pending = false;
    let mut test_region_floor: Option<i64> = None;

    for (idx, raw) in raw_lines.iter().enumerate() {
        let s = &sanitized[idx];
        let in_test = test_region_floor.is_some();

        if !in_test {
            if s.contains("#[cfg(") && s.contains("test") {
                cfg_test_pending = true;
            }
            if cfg_test_pending && s.contains("mod ") && s.contains('{') {
                test_region_floor = Some(depth);
                cfg_test_pending = false;
            } else if cfg_test_pending && !s.trim_start().starts_with("#[") && !s.trim().is_empty()
            {
                // The cfg(test) attribute applied to a fn/use, not a mod;
                // treat just that item conservatively by leaving the flag
                // until the next block opens at this depth.
                if s.contains('{') {
                    test_region_floor = Some(depth);
                    cfg_test_pending = false;
                }
            }
        }
        let in_test = test_region_floor.is_some();
        depth += brace_delta(s);
        if let Some(floor) = test_region_floor {
            if depth <= floor {
                test_region_floor = None;
            }
        }
        if in_test {
            continue;
        }

        let mut push = |rule: &'static str, message: String| {
            findings.push(Finding {
                rule,
                path: rel.to_string(),
                line: idx + 1,
                text: raw.trim().to_string(),
                message,
            });
        };

        // raw-sync: instrumented lock layer must not be bypassed.
        if !class.sync_crate {
            if s.contains("parking_lot") {
                push(
                    "raw-sync",
                    "raw parking_lot primitive; use dslog_sync with a ranked LockMeta".into(),
                );
            } else if s.contains("std::sync")
                && ["Mutex", "RwLock", "Condvar"].iter().any(|t| s.contains(t))
            {
                push(
                    "raw-sync",
                    "raw std::sync lock/condvar; use dslog_sync with a ranked LockMeta".into(),
                );
            }
        }

        // panic-path: library code returns DslogError instead of aborting.
        if !class.bin_target {
            for token in [
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ] {
                if s.contains(token) {
                    push(
                        "panic-path",
                        format!("`{token}` in non-test library code; return DslogError or allowlist with an audit note"),
                    );
                }
            }
        }

        // raw-spawn: thread creation goes through sanctioned helpers.
        if !class.bin_target && (s.contains("thread::spawn") || s.contains("thread::Builder")) {
            push(
                "raw-spawn",
                "raw thread creation; use par::map or a sanctioned (allowlisted) pool".into(),
            );
        }

        // raw-scope: one fan-out helper, not a pool per call site.
        if !class.bin_target && !class.par_module && s.contains("thread::scope") {
            push(
                "raw-scope",
                "hand-rolled scoped threads; fan out through par::map (crates/core/src/par.rs)"
                    .into(),
            );
        }

        // env-read: configuration arrives through OpenOptions, not getenv.
        if class.env_scope && (s.contains("env::var(") || s.contains("env::var_os(")) {
            push(
                "env-read",
                "environment read in library/CLI code; take the value through OpenOptions or a flag"
                    .into(),
            );
        }

        // decode-alloc: wire-sized allocations must be validated first.
        if class.decode_scope {
            let prev = idx.checked_sub(1).map(|p| raw_lines[p]);
            findings.extend(check_allocs(rel, idx, raw_lines[idx], prev, &sanitized));
        }
    }
    findings
}

/// The file that declares `OpKind`, and the one whose [`REPLAY_FN`] is the
/// one replay of the log.
const OP_KIND_FILE: &str = "crates/core/src/storage/wal.rs";
const REPLAY_FILE: &str = "crates/core/src/storage/catalog.rs";
const REPLAY_FN: &str = "fn apply(";

/// wal-replay-arm rule: every `OpKind` variant the `(path, source)` pair
/// `op_kinds` declares must have its own `OpKind::<Variant>` arm inside
/// [`REPLAY_FN`] of `replay`, and that function must not contain a `_ =>`
/// wildcard. Together the two checks make "add an op kind without teaching
/// replay about it" a lint failure instead of a silently unreplayable log
/// record.
fn check_replay_arms(op_kinds: (&str, &str), replay: (&str, &str)) -> Vec<Finding> {
    let mut findings = Vec::new();
    let sanitized: Vec<String> = op_kinds.1.lines().map(sanitize).collect();

    // Variant names: identifiers at brace depth 1 inside `enum OpKind`.
    let Some(enum_line) = sanitized
        .iter()
        .position(|s| s.contains("enum OpKind") && s.contains('{'))
    else {
        return findings; // no OpKind here — nothing to enforce
    };
    let mut variants: Vec<String> = Vec::new();
    let mut depth = brace_delta(&sanitized[enum_line]);
    for s in &sanitized[enum_line + 1..] {
        if depth <= 0 {
            break;
        }
        if depth == 1 {
            let ident: String = s.trim().chars().take_while(|c| is_ident_char(*c)).collect();
            if ident.starts_with(|c: char| c.is_ascii_uppercase()) {
                variants.push(ident);
            }
        }
        depth += brace_delta(s);
    }

    let (rel, source) = replay;
    let raw_lines: Vec<&str> = source.lines().collect();
    let sanitized: Vec<String> = raw_lines.iter().map(|l| sanitize(l)).collect();
    let Some(fn_line) = sanitized.iter().position(|s| s.contains(REPLAY_FN)) else {
        findings.push(Finding {
            rule: "wal-replay-arm",
            path: op_kinds.0.to_string(),
            line: enum_line + 1,
            text: op_kinds
                .1
                .lines()
                .nth(enum_line)
                .unwrap_or("")
                .trim()
                .to_string(),
            message: format!("OpKind is declared but no `{REPLAY_FN}` in {rel} replays it"),
        });
        return findings;
    };

    // Block extent of the replay, brace-tracked from its signature line.
    let mut depth = 0i64;
    let mut opened = false;
    let mut fn_end = fn_line;
    for (i, s) in sanitized.iter().enumerate().skip(fn_line) {
        depth += brace_delta(s);
        opened |= s.contains('{');
        fn_end = i;
        if opened && depth <= 0 {
            break;
        }
    }
    let body = &sanitized[fn_line..=fn_end];

    for v in &variants {
        let arm = format!("OpKind::{v}");
        if !body.iter().any(|l| l.contains(&arm)) {
            findings.push(Finding {
                rule: "wal-replay-arm",
                path: rel.to_string(),
                line: fn_line + 1,
                text: raw_lines[fn_line].trim().to_string(),
                message: format!(
                    "`{REPLAY_FN}` has no arm for `OpKind::{v}`; every logged op kind must replay"
                ),
            });
        }
    }
    for (off, l) in body.iter().enumerate() {
        if l.trim_start().starts_with("_ =>") {
            findings.push(Finding {
                rule: "wal-replay-arm",
                path: rel.to_string(),
                line: fn_line + off + 1,
                text: raw_lines[fn_line + off].trim().to_string(),
                message: format!(
                    "wildcard `_ =>` in `{REPLAY_FN}`; a new OpKind must fail this lint, \
                     not silently skip replay"
                ),
            });
        }
    }
    findings
}

const WIRE_READ_MARKERS: [&str; 7] = [
    "from_le_bytes",
    "from_be_bytes",
    "read_u",
    "read_varint",
    "read_exact",
    "get_u",
    "decode_header",
];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn contains_word(haystack: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let abs = start + pos;
        let before_ok =
            abs == 0 || !is_ident_char(haystack[..abs].chars().next_back().unwrap_or(' '));
        let after = abs + word.len();
        let after_ok = after >= haystack.len()
            || !is_ident_char(haystack[after..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len().max(1);
    }
    false
}

/// decode-alloc rule for one line: find `with_capacity(...)` / `vec![_; n]`
/// whose size expression names an identifier that was read from the wire in
/// the preceding window without a bounds check in between.
fn check_allocs(
    rel: &str,
    idx: usize,
    raw: &str,
    prev_raw: Option<&str>,
    sanitized: &[String],
) -> Vec<Finding> {
    let s = &sanitized[idx];
    if raw.contains("lint:checked-alloc")
        || prev_raw.is_some_and(|p| p.contains("lint:checked-alloc"))
    {
        return Vec::new();
    }

    let mut args: Vec<String> = Vec::new();
    let mut from = 0;
    while let Some(pos) = s[from..].find("with_capacity(") {
        let start = from + pos + "with_capacity(".len();
        if let Some(arg) = balanced(&s[start..], '(', ')') {
            args.push(arg);
        }
        from = start;
    }
    from = 0;
    while let Some(pos) = s[from..].find("vec![") {
        let start = from + pos + "vec![".len();
        if let Some(body) = balanced(&s[start..], '[', ']') {
            if let Some(semi) = body.rfind(';') {
                args.push(body[semi + 1..].to_string());
            }
        }
        from = start;
    }
    if args.is_empty() {
        return Vec::new();
    }

    let mut findings = Vec::new();
    for arg in args {
        if let Some(ident) = unvalidated_wire_ident(&arg, idx, sanitized, raw) {
            findings.push(Finding {
                rule: "decode-alloc",
                path: rel.to_string(),
                line: idx + 1,
                text: raw.trim().to_string(),
                message: format!(
                    "allocation sized by wire-read `{ident}` without a bounds check between read and alloc (validate against remaining input, or mark `// lint:checked-alloc — why`)"
                ),
            });
        }
    }
    findings
}

/// Returns the offending identifier if `arg` is sized by an unvalidated wire
/// read; `None` if the allocation is safe.
fn unvalidated_wire_ident(
    arg: &str,
    idx: usize,
    sanitized: &[String],
    raw: &str,
) -> Option<String> {
    let arg = arg.trim();
    if arg.is_empty() || arg.contains(".len()") {
        return None; // sized from an in-memory buffer
    }
    if arg
        .chars()
        .all(|c| c.is_ascii_digit() || " _+-*/()<>.".contains(c))
    {
        return None; // literal arithmetic
    }
    if raw.contains("lint:checked-alloc") {
        return None;
    }

    // Identifiers in the size expression, skipping type names and casts.
    let mut idents: Vec<String> = Vec::new();
    let mut cur = String::new();
    for c in arg.chars() {
        if is_ident_char(c) {
            cur.push(c);
        } else if !cur.is_empty() {
            idents.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        idents.push(cur);
    }
    const SKIP: [&str; 14] = [
        "as",
        "usize",
        "u8",
        "u16",
        "u32",
        "u64",
        "i8",
        "i16",
        "i32",
        "i64",
        "min",
        "max",
        "len",
        "saturating_mul",
    ];
    idents.retain(|i| !SKIP.contains(&i.as_str()) && !i.starts_with(|c: char| c.is_ascii_digit()));

    const WINDOW: usize = 30;
    let lo = idx.saturating_sub(WINDOW);
    for ident in idents {
        // Most recent assignment of this identifier in the window.
        let mut def_line = None;
        for j in (lo..idx).rev() {
            let line = &sanitized[j];
            if contains_word(line, &ident)
                && (line.contains(&format!("let {ident}"))
                    || line.contains(&format!("let mut {ident}"))
                    || line.contains(&format!("{ident} =")))
            {
                def_line = Some(j);
                break;
            }
            if line.trim_start().starts_with("fn ") || line.contains("pub fn ") {
                break; // do not look past the enclosing function
            }
        }
        let Some(dj) = def_line else { continue };
        let wire = WIRE_READ_MARKERS.iter().any(|m| sanitized[dj].contains(m));
        if !wire {
            continue;
        }
        let validated = (dj + 1..=idx).any(|j| {
            let line = &sanitized[j];
            contains_word(line, &ident)
                && (line.contains("Err")
                    || line.contains(".min(")
                    || line.contains("ensure")
                    || line.contains("return None")
                    // an `if count > limit { ... }` guard (the Err/return
                    // usually sits on the next line after rustfmt)
                    || (line.contains("if ") && (line.contains('>') || line.contains('<'))))
        });
        if !validated {
            return Some(ident);
        }
    }
    None
}

/// The text up to (not including) the delimiter that closes the already-open
/// `open` at nesting level 1, or `None` if unbalanced on this line.
fn balanced(s: &str, open: char, close: char) -> Option<String> {
    let mut level = 1;
    let mut out = String::new();
    for c in s.chars() {
        if c == open {
            level += 1;
        } else if c == close {
            level -= 1;
            if level == 0 {
                return Some(out);
            }
        }
        out.push(c);
    }
    None
}

/// One allowlist entry: `rule path [substring...]`. An entry with no
/// substring exempts the whole file for that rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub substring: String,
    pub raw: String,
}

pub fn load_allowlist(path: &Path) -> Result<Vec<AllowEntry>, String> {
    let content = match fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    parse_allowlist(&content)
}

pub fn parse_allowlist(content: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (n, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(path)) = (parts.next(), parts.next()) else {
            return Err(format!("line {}: expected `rule path [substring]`", n + 1));
        };
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path: path.to_string(),
            substring: parts.next().unwrap_or("").trim().to_string(),
            raw: line.to_string(),
        });
    }
    Ok(entries)
}

/// Split findings into survivors and stale allowlist entries.
pub fn apply_allowlist(
    findings: Vec<Finding>,
    allowlist: Vec<AllowEntry>,
) -> (Vec<Finding>, Vec<String>) {
    let mut hits = vec![0usize; allowlist.len()];
    let mut survivors = Vec::new();
    'next: for f in findings {
        for (i, e) in allowlist.iter().enumerate() {
            if e.rule == f.rule
                && e.path == f.path
                && (e.substring.is_empty() || f.text.contains(&e.substring))
            {
                hits[i] += 1;
                continue 'next;
            }
        }
        survivors.push(f);
    }
    let stale = allowlist
        .iter()
        .zip(&hits)
        .filter(|(_, &h)| h == 0)
        .map(|(e, _)| e.raw.clone())
        .collect();
    (survivors, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_class() -> FileClass {
        FileClass {
            sync_crate: false,
            bin_target: false,
            par_module: false,
            decode_scope: false,
            env_scope: false,
        }
    }

    fn decode_class() -> FileClass {
        FileClass {
            decode_scope: true,
            ..lib_class()
        }
    }

    fn rules(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn fixture_raw_sync_is_flagged() {
        let src = include_str!("../fixtures/bad_sync.rs");
        let f = scan_source("fixtures/bad_sync.rs", src, lib_class());
        assert!(
            f.iter().filter(|f| f.rule == "raw-sync").count() >= 3,
            "{f:#?}"
        );
    }

    #[test]
    fn fixture_panic_path_is_flagged() {
        let src = include_str!("../fixtures/bad_panic.rs");
        let f = scan_source("fixtures/bad_panic.rs", src, lib_class());
        let rules = rules(&f);
        assert!(rules.contains(&"panic-path"), "{f:#?}");
        // unwraps inside #[cfg(test)] mod must NOT be flagged
        assert!(!f.iter().any(|f| f.text.contains("in_test_mod")), "{f:#?}");
    }

    #[test]
    fn fixture_raw_spawn_is_flagged() {
        let src = include_str!("../fixtures/bad_spawn.rs");
        let f = scan_source("fixtures/bad_spawn.rs", src, lib_class());
        assert!(rules(&f).contains(&"raw-spawn"), "{f:#?}");
    }

    #[test]
    fn fixture_raw_scope_is_flagged_outside_the_par_module() {
        let src = include_str!("../fixtures/bad_scope.rs");
        let f = scan_source("fixtures/bad_scope.rs", src, lib_class());
        assert_eq!(rules(&f), vec!["raw-scope"], "{f:#?}");
        // The helper's own file and binary targets may scope threads.
        for rel in ["crates/core/src/par.rs", "crates/bench/src/bin/x.rs"] {
            assert_eq!(scan_source(rel, src, classify(rel)), [], "{rel}");
        }
    }

    #[test]
    fn fixture_decode_alloc_is_flagged() {
        let src = include_str!("../fixtures/bad_alloc.rs");
        let f = scan_source("fixtures/bad_alloc.rs", src, decode_class());
        let decode: Vec<_> = f.iter().filter(|f| f.rule == "decode-alloc").collect();
        assert_eq!(decode.len(), 2, "{f:#?}");
        assert!(decode.iter().any(|f| f.message.contains("`n`")));
        assert!(decode.iter().any(|f| f.message.contains("`count`")));
    }

    /// The wal-replay-arm findings for `src` holding both the enum and the
    /// replay, as their messages.
    fn replay_findings(src: &str) -> Vec<String> {
        let file = ("fixtures/bad_wal.rs", src);
        let f = check_replay_arms(file, file);
        assert!(f.iter().all(|f| f.rule == "wal-replay-arm"), "{f:#?}");
        f.into_iter().map(|f| f.message).collect()
    }

    #[test]
    fn fixture_wal_replay_arm_is_flagged() {
        let src = include_str!("../fixtures/bad_wal.rs");
        let missing =
            |m: &Vec<String>, v: &str| m.iter().any(|m| m.contains(&format!("`OpKind::{v}`")));
        let wildcard = |m: &Vec<String>| m.iter().any(|m| m.contains("wildcard"));
        let found = replay_findings(src);
        assert!(missing(&found, "Composite"), "{found:#?}");
        assert!(missing(&found, "Truncate"), "{found:#?}");
        assert!(wildcard(&found), "{found:#?}");
        // Covered variants are not flagged.
        assert!(!missing(&found, "Define") && !missing(&found, "Ingest"));

        // Each defect fails the lint on its own, and the replay with every
        // arm and no wildcard passes.
        let wildcard_arm = "                _ => {}\n";
        let arms = "                OpKind::Composite { .. } | OpKind::Truncate => {}\n";
        assert!(src.contains(wildcard_arm));
        let no_wildcard = replay_findings(&src.replace(wildcard_arm, ""));
        assert_eq!(no_wildcard.len(), 2, "{no_wildcard:#?}");
        assert!(missing(&no_wildcard, "Composite") && missing(&no_wildcard, "Truncate"));
        let every_arm = src.replace(wildcard_arm, &format!("{arms}{wildcard_arm}"));
        let only_wildcard = replay_findings(&every_arm);
        assert_eq!(only_wildcard.len(), 1, "{only_wildcard:#?}");
        assert!(wildcard(&only_wildcard));
        assert_eq!(
            replay_findings(&src.replace(wildcard_arm, arms)),
            Vec::<String>::new()
        );

        // A replay that is not there fails too.
        let gone = replay_findings(&src.replace("fn apply(", "fn other("));
        assert!(gone[0].contains("no `fn apply(`"), "{gone:#?}");
    }

    #[test]
    fn fixture_env_read_is_flagged() {
        let src = include_str!("../fixtures/bad_env.rs");
        let class = FileClass {
            env_scope: true,
            ..lib_class()
        };
        let f = scan_source("fixtures/bad_env.rs", src, class);
        let env: Vec<_> = f.iter().filter(|f| f.rule == "env-read").collect();
        assert_eq!(env.len(), 2, "{f:#?}");
        // The read inside #[cfg(test)] mod and `env::args` are not flagged.
        assert!(!f.iter().any(|f| f.text.contains("IN_TEST_MOD")), "{f:#?}");
        // Outside the library and its CLI the rule does not apply.
        assert_eq!(scan_source("fixtures/bad_env.rs", src, lib_class()), []);
    }

    #[test]
    fn fixture_clean_passes_every_rule() {
        let src = include_str!("../fixtures/clean.rs");
        let f = scan_source("fixtures/clean.rs", src, decode_class());
        assert_eq!(f, Vec::new());
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let src = r#"
fn f() -> &'static str {
    // calling unwrap() here would be bad; std::sync::Mutex too
    "panic!(never) std::sync::RwLock thread::spawn"
}
"#;
        let f = scan_source("x.rs", src, lib_class());
        assert_eq!(f, Vec::new());
    }

    #[test]
    fn bin_targets_relax_panic_and_spawn_but_not_sync() {
        let src = "fn main() { let x: Option<u8> = None; x.unwrap(); std::thread::spawn(|| {}); let _m = std::sync::Mutex::new(()); }\n";
        let class = FileClass {
            bin_target: true,
            ..lib_class()
        };
        let f = scan_source("crates/cli/src/main.rs", src, class);
        assert_eq!(rules(&f), vec!["raw-sync"], "{f:#?}");
    }

    #[test]
    fn allowlist_filters_and_reports_stale() {
        let findings = vec![Finding {
            rule: "panic-path",
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            text: "foo.unwrap();".into(),
            message: String::new(),
        }];
        let allow = parse_allowlist(
            "# audited\npanic-path crates/x/src/lib.rs foo.unwrap\npanic-path crates/x/src/lib.rs never-matches\n",
        )
        .unwrap();
        let (survivors, stale) = apply_allowlist(findings, allow);
        assert_eq!(survivors, Vec::new());
        assert_eq!(stale.len(), 1);
        assert!(stale[0].contains("never-matches"));
    }

    #[test]
    fn real_tree_is_lint_clean() {
        let root = workspace_root();
        let findings = scan_workspace(&root).expect("scan workspace");
        let allow = load_allowlist(&root.join(ALLOWLIST_FILE)).expect("allowlist");
        let (survivors, stale) = apply_allowlist(findings, allow);
        assert!(
            survivors.is_empty() && stale.is_empty(),
            "lint violations in tree:\n{}\nstale:\n{}",
            survivors
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
            stale.join("\n")
        );
    }
}
