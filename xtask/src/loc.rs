//! `cargo xtask loc` — the size of the library's core, as its history
//! quotes it: the lines of each `crates/core/src` file up to its first
//! `#[cfg(test)]` line, per file and in total. By this repository's layout
//! a file's test module comes last, so the count is its non-test code,
//! doc comments and blank lines included.

use crate::lint::{collect_rs, workspace_root};
use std::fs;
use std::process::ExitCode;

const CORE_SRC: &str = "crates/core/src";

pub fn run() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    if let Err(e) = collect_rs(&root.join(CORE_SRC), &mut files) {
        eprintln!("loc: cannot list {CORE_SRC}: {e}");
        return ExitCode::FAILURE;
    }
    files.sort();
    let mut total = 0;
    for file in &files {
        let text = match fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("loc: cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let lines = non_test_lines(&text);
        let rel = file.strip_prefix(&root).unwrap_or(file);
        println!("{lines:>6}  {}", rel.display());
        total += lines;
    }
    println!("{total:>6}  total, {} files", files.len());
    ExitCode::SUCCESS
}

/// Lines before the first `#[cfg(test)]` line.
fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_up_to_the_first_test_attribute() {
        let text = "//! doc\n\nfn f() {}\n#[cfg(test)]\nmod tests {\n}\n";
        assert_eq!(non_test_lines(text), 3);
        assert_eq!(non_test_lines("fn f() {}\n"), 1);
    }
}
