// Fixture: a hand-rolled scoped-thread pool in library code must be
// flagged; fan-outs go through `par::map`.
pub fn fan_out(items: &[u64]) -> u64 {
    std::thread::scope(|s| {
        let h = s.spawn(|| items.iter().sum::<u64>());
        h.join().unwrap_or_default()
    })
}
