// Fixture: idiomatic dslog code — instrumented locks, error returns, the
// shared fan-out helper, and bounds-checked wire-sized allocations. Must produce zero
// findings even with the decode-alloc rule active.
use dslog_sync::{ranks, Mutex};

pub fn decode(data: &[u8]) -> Result<Vec<u64>, String> {
    let n = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
    if n > data.len() / 8 {
        return Err("element count exceeds payload".to_string());
    }
    let mut out = Vec::with_capacity(n);
    out.push(0);
    Ok(out)
}

pub fn guarded_counter() -> Mutex<u64> {
    Mutex::new(&ranks::STORAGE_SLOT, 0)
}

pub fn fan_out(items: &[u64]) -> u64 {
    crate::par::map(items.len(), 2, |i| items[i] * 2).iter().sum()
}
