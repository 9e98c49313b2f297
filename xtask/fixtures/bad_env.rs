// Fixture: library code must not configure itself from the process
// environment (reading the argument list is fine).
pub fn retention() -> u32 {
    std::env::var("APP_RETAIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

pub fn threads() -> Option<std::ffi::OsString> {
    std::env::var_os("APP_THREADS")
}

pub fn first_arg() -> Option<String> {
    std::env::args().nth(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_env_in_test() {
        let _ = std::env::var("IN_TEST_MOD");
    }
}
