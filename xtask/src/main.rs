//! Repo automation entry point. See `lint.rs` for the invariant scanner and
//! `loc.rs` for the line count.

#![forbid(unsafe_code)]

mod lint;
mod loc;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint::run(args.collect::<Vec<_>>()),
        Some("loc") => loc::run(),
        Some(other) => {
            eprintln!("unknown xtask: {other}\n");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask <task>\n");
    eprintln!("tasks:");
    eprintln!("  lint [--report <path>] [dirs...]   enforce repo source invariants");
    eprintln!("  loc                                crates/core/src non-test lines per file");
}
