//! Plain run-length encoding of `i64` columns.
//!
//! This is the first stage of the Turbo-RC baseline (“run-length encoding
//! combined with integer entropy coding”, paper §VII.B): a column is reduced
//! to `(value, run_length)` pairs, serialized as zig-zag varints, and the
//! resulting byte stream is typically fed into the Huffman entropy stage.

use dslog_codecs::varint::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};
use dslog_codecs::Result;

/// One maximal run of a repeated value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The repeated value.
    pub value: i64,
    /// Number of consecutive occurrences (≥ 1).
    pub len: u64,
}

/// Collapse `values` into maximal runs.
pub fn runs_of(values: &[i64]) -> Vec<Run> {
    let mut out = Vec::new();
    let mut iter = values.iter().copied();
    let Some(first) = iter.next() else {
        return out;
    };
    let mut cur = Run {
        value: first,
        len: 1,
    };
    for v in iter {
        if v == cur.value {
            cur.len += 1;
        } else {
            out.push(cur);
            cur = Run { value: v, len: 1 };
        }
    }
    out.push(cur);
    out
}

/// Encode a column: varint run count, then (zig-zag value, varint length) pairs.
pub fn encode(values: &[i64]) -> Vec<u8> {
    let runs = runs_of(values);
    let mut buf = Vec::with_capacity(runs.len() * 3 + 8);
    write_uvarint(&mut buf, runs.len() as u64);
    for run in &runs {
        write_ivarint(&mut buf, run.value);
        write_uvarint(&mut buf, run.len);
    }
    buf
}

/// Decode a column produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<i64>> {
    let mut pos = 0;
    let n_runs = read_uvarint(data, &mut pos)? as usize;
    let mut out = Vec::new();
    for _ in 0..n_runs {
        let value = read_ivarint(data, &mut pos)?;
        let len = read_uvarint(data, &mut pos)? as usize;
        out.resize(out.len() + len, value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_column() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn single_long_run() {
        let values = vec![-7i64; 10_000];
        let enc = encode(&values);
        assert!(
            enc.len() < 16,
            "one run should be a few bytes, got {}",
            enc.len()
        );
        assert_eq!(decode(&enc).unwrap(), values);
    }

    #[test]
    fn alternating_worst_case() {
        let values: Vec<i64> = (0..1000).map(|i| i % 2).collect();
        let enc = encode(&values);
        assert_eq!(decode(&enc).unwrap(), values);
        // Worst case costs ~3 bytes per element (run header per element).
        assert!(enc.len() >= values.len());
    }

    #[test]
    fn runs_of_groups_correctly() {
        let runs = runs_of(&[1, 1, 1, 2, 3, 3]);
        assert_eq!(
            runs,
            vec![
                Run { value: 1, len: 3 },
                Run { value: 2, len: 1 },
                Run { value: 3, len: 2 },
            ]
        );
    }

    #[test]
    fn negative_values_roundtrip() {
        let values: Vec<i64> = vec![i64::MIN, i64::MIN, 0, i64::MAX, -1, -1, -1];
        assert_eq!(decode(&encode(&values)).unwrap(), values);
    }
}
