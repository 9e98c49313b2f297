//! The benchmark's own random numbers, so that one `--seed` fixes every
//! input no matter which `rand` the repository vendors.

/// SplitMix64: one 64-bit state, full period, good enough to draw requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named part of a workload, so adding
    /// draws to one part never shifts the inputs of another.
    pub fn stream(seed: u64, tag: &str) -> Self {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in tag.bytes() {
            h = mix(h ^ u64::from(b));
        }
        Self(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes: the request-stream fingerprint of the determinism
/// tests.
#[cfg(test)]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = if hash == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        hash
    };
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
