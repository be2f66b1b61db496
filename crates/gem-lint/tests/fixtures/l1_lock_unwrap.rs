// L1 fixture: bare lock unwraps in gem-serve production code. Linted under the path
// `crates/gem-serve/src/metrics.rs`; the violations are on lines 6 and 9.

struct Counters { inner: std::sync::Mutex<u64> }
impl Counters {
    fn bump(&self) { *self.inner.lock().unwrap() += 1; }
    fn read(&self) -> u64 {
        // The expect message does not make call-site poisoning policy acceptable.
        *self.inner.lock().expect("counter mutex poisoned")
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let m = std::sync::Mutex::new(1u64);
        assert_eq!(*m.lock().unwrap(), 1);
    }
}
