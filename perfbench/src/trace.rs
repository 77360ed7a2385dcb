//! Spans and counts recorded from the benchmark's side of each layer
//! boundary, and the digest that pins a unit's simulated statistics.

use std::collections::BTreeMap;

use crate::clock::timed;

/// Spans (process CPU time per named layer call) and exact counts of one
/// pass.  Counts are recorded whether or not tracing is on, so a traced
/// and an untraced pass can be compared count for count; spans only read
/// the clock when tracing is on.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    spans: BTreeMap<&'static str, (f64, u64)>,
    counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// A recorder whose spans are on (`true`) or compiled down to the
    /// bare call (`false`).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Runs `f`, adding its CPU time to span `name` when tracing is on.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let (result, seconds) = timed(f);
        let entry = self.spans.entry(name).or_default();
        entry.0 += seconds;
        entry.1 += 1;
        result
    }

    /// Adds `n` to count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Total CPU seconds of span `name` (0 when it never ran).
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.0)
    }

    /// Calls recorded under span `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.1)
    }

    /// Total CPU seconds of every span.
    pub fn total_seconds(&self) -> f64 {
        self.spans.values().map(|s| s.0).sum()
    }

    /// Count `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every count, by name.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

/// FNV-1a over the simulated statistics of one unit: equal digests mean
/// the unit simulated the same cycles, firings and results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in raw bytes.
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes in an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes in a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Mixes in a string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
