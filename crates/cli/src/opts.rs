//! Minimal `--flag value` argument parsing (no third-party parser: the
//! offline dependency set has none, and the grammar here is tiny).

use std::collections::BTreeMap;

/// Parsed flags: `--key value` pairs plus bare `--switch` booleans.
#[derive(Debug, Default)]
pub struct Opts {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["gzip", "no-merge", "no-planner", "stats", "lazy"];

impl Opts {
    /// Parse the `--key value` / `--switch` arguments of `command`, which
    /// reads the flags in `known`; rejects positionals and every other
    /// flag (a typo must not run the command with the default instead).
    pub fn parse(command: &str, known: &[&str], args: &[String]) -> Result<Self, String> {
        let mut opts = Opts::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if !known.contains(&key) {
                return Err(format!(
                    "unknown flag --{key} for {command}; see dslog help"
                ));
            }
            if SWITCHES.contains(&key) {
                opts.switches.push(key.to_string());
                i += 1;
                continue;
            }
            let Some(value) = args.get(i + 1) else {
                return Err(format!("flag --{key} needs a value"));
            };
            if opts.values.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
            i += 2;
        }
        Ok(opts)
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// A required `usize` flag.
    pub fn required_usize(&self, key: &str) -> Result<usize, String> {
        self.required(key)?
            .parse()
            .map_err(|_| format!("flag --{key} must be an integer"))
    }

    /// An optional integer flag.
    pub fn optional_int<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.optional(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("flag --{key} must be an integer"))
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let known = ["db", "gzip", "no-merge", "path"];
        let o = Opts::parse(
            "test",
            &known,
            &s(&["--db", "/tmp/x", "--gzip", "--path", "B,A"]),
        )
        .unwrap();
        assert_eq!(o.required("db").unwrap(), "/tmp/x");
        assert_eq!(o.required("path").unwrap(), "B,A");
        assert!(o.switch("gzip"));
        assert!(!o.switch("no-merge"));
        assert!(o.optional("missing").is_none());
    }

    #[test]
    fn rejects_positionals_duplicates_and_dangling() {
        let parse = |args: &[&str]| Opts::parse("test", &["db", "lazy"], &s(args));
        assert!(parse(&["positional"]).is_err());
        assert!(parse(&["--db", "a", "--db", "b"]).is_err());
        assert!(parse(&["--db"]).is_err());
    }

    #[test]
    fn rejects_flags_the_command_does_not_read() {
        let parse = |args: &[&str]| Opts::parse("stats", &["db", "lazy"], &s(args));
        assert!(parse(&["--db", "a", "--lazy"]).is_ok());
        // A misspelt flag, and a real flag of another command.
        for bad in [&["--dbb", "a"][..], &["--db", "a", "--gzip"]] {
            let err = parse(bad).unwrap_err();
            assert!(err.starts_with("unknown flag --"), "{err}");
            assert!(err.ends_with("for stats; see dslog help"), "{err}");
        }
    }
}
