//! Fixed-width bit packing of unsigned integer slices.

use dslog_codecs::bitio::{BitReader, BitWriter};
use dslog_codecs::Result;

/// Number of bits needed to represent `v` (0 needs 0 bits).
#[inline]
pub fn bits_needed(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Width (bits) needed for the maximum value in `values`; 0 for empty input.
pub fn width_for(values: &[u64]) -> u32 {
    values.iter().copied().max().map_or(0, bits_needed)
}

/// Pack each value into exactly `width` bits, LSB-first.
///
/// `width == 0` produces an empty buffer (all values must be zero).
pub fn pack(values: &[u64], width: u32) -> Vec<u8> {
    debug_assert!(width <= 57);
    if width == 0 {
        debug_assert!(values.iter().all(|&v| v == 0));
        return Vec::new();
    }
    let mut w = BitWriter::with_capacity((values.len() * width as usize).div_ceil(8));
    for &v in values {
        w.write_bits(v, width);
    }
    w.finish()
}

/// Unpack `count` values of `width` bits each from `data`.
pub fn unpack(data: &[u8], width: u32, count: usize) -> Result<Vec<u64>> {
    if width == 0 {
        return Ok(vec![0; count]);
    }
    let mut r = BitReader::new(data);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(r.read_bits(width)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_needed_values() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(3), 2);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
    }

    #[test]
    fn roundtrip_various_widths() {
        for width in [1u32, 3, 7, 8, 13, 24, 33, 57] {
            let max = if width >= 57 {
                u64::MAX >> 7
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..100).map(|i| (i * 2654435761u64) % (max + 1)).collect();
            let packed = pack(&values, width);
            assert_eq!(unpack(&packed, width, values.len()).unwrap(), values);
        }
    }

    #[test]
    fn zero_width_all_zero() {
        let values = vec![0u64; 17];
        let packed = pack(&values, 0);
        assert!(packed.is_empty());
        assert_eq!(unpack(&packed, 0, 17).unwrap(), values);
    }

    #[test]
    fn packed_size_is_tight() {
        let values = vec![5u64; 100];
        let packed = pack(&values, 3);
        assert_eq!(packed.len(), (100usize * 3).div_ceil(8));
    }

    #[test]
    fn truncated_input_errors() {
        let values = vec![1u64; 10];
        let packed = pack(&values, 8);
        assert!(unpack(&packed[..5], 8, 10).is_err());
    }
}
