//! A set-associative LRU cache model (tags only, no data).

use gpumech_isa::CacheConfig;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent (and filled, if the access allocates).
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// Tag-array-only set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Way>,
    assoc: usize,
    num_sets: usize,
    line_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or the line size is not
    /// a power of two (use [`gpumech_isa::SimConfig::validate`] first).
    #[must_use]
    pub fn new(cfg: &CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        let num_sets = cfg.num_sets();
        Self {
            sets: vec![Way { tag: 0, valid: false, lru: 0 }; num_sets * cfg.assoc],
            assoc: cfg.assoc,
            num_sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) % self.num_sets as u64) as usize
    }

    fn tag(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) / self.num_sets as u64
    }

    /// Looks up the line containing `addr`. On a miss, the line is filled
    /// (evicting the LRU way) when `allocate` is true and left absent
    /// otherwise (no-write-allocate stores).
    pub fn access(&mut self, addr: u64, allocate: bool) -> Access {
        self.tick += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let ways = &mut self.sets[set * self.assoc..(set + 1) * self.assoc];

        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.tick;
            self.hits += 1;
            return Access::Hit;
        }
        self.misses += 1;
        if allocate {
            if let Some(victim) = ways.iter_mut().min_by_key(|w| if w.valid { w.lru } else { 0 }) {
                victim.tag = tag;
                victim.valid = true;
                victim.lru = self.tick;
            }
        }
        Access::Miss
    }

    /// `true` if the line containing `addr` is present (no LRU update).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        self.sets[set * self.assoc..(set + 1) * self.assoc]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Lifetime (hits, misses) counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_trace::splitmix64;

    // The randomized properties below draw addresses from an iterated
    // splitmix64 stream — the build environment has no property-testing
    // crate, so they run over a fixed set of generated cases instead.

    fn small() -> Cache {
        // 2 sets x 2 ways x 128 B lines.
        Cache::new(&CacheConfig { size_bytes: 512, line_bytes: 128, assoc: 2, latency: 1 })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small();
        assert_eq!(c.access(0x1000, true), Access::Miss);
        assert_eq!(c.access(0x1000, true), Access::Hit);
        assert_eq!(c.access(0x107F, true), Access::Hit, "same line, different offset");
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn no_allocate_leaves_line_absent() {
        let mut c = small();
        assert_eq!(c.access(0x2000, false), Access::Miss);
        assert_eq!(c.access(0x2000, true), Access::Miss, "still absent");
        assert_eq!(c.access(0x2000, false), Access::Hit, "now filled");
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut c = small();
        // Set 0 lines: line addresses with (addr>>7) % 2 == 0.
        let a = 0u64; // set 0
        let b = 256u64; // set 0
        let d = 512u64; // set 0
        assert_eq!(c.access(a, true), Access::Miss);
        assert_eq!(c.access(b, true), Access::Miss);
        assert_eq!(c.access(a, true), Access::Hit); // a now MRU
        assert_eq!(c.access(d, true), Access::Miss); // evicts b
        assert_eq!(c.access(a, true), Access::Hit, "a survived");
        assert_eq!(c.access(b, true), Access::Miss, "b was evicted");
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        assert_eq!(c.access(0, true), Access::Miss); // set 0
        assert_eq!(c.access(128, true), Access::Miss); // set 1
        assert_eq!(c.access(0, true), Access::Hit);
        assert_eq!(c.access(128, true), Access::Hit);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small();
        c.access(0, true);
        c.access(256, true);
        assert!(c.probe(0));
        // Probing 0 must not refresh it: access order is 0 then 256, so a
        // new line evicts 0 (LRU), not 256.
        c.access(512, true);
        assert!(!c.probe(0));
        assert!(c.probe(256));
    }

    #[test]
    fn working_set_within_capacity_fully_hits_after_warmup() {
        let cfg = CacheConfig { size_bytes: 32 * 1024, line_bytes: 128, assoc: 8, latency: 1 };
        let mut c = Cache::new(&cfg);
        let lines: Vec<u64> = (0..cfg.num_lines() as u64).map(|i| i * 128).collect();
        for &l in &lines {
            c.access(l, true);
        }
        for &l in &lines {
            assert_eq!(c.access(l, true), Access::Hit, "line {l:#x} should be resident");
        }
    }

    #[test]
    fn hit_immediately_after_allocating_access() {
        for case in 0..32u64 {
            let mut s = case;
            let mut c = small();
            for _ in 0..(1 + case as usize * 6 % 200) {
                s = splitmix64(s);
                c.access(s, true);
                assert!(c.probe(s));
            }
        }
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        for case in 0..32u64 {
            let mut s = 0x5EED + case;
            let mut c = small();
            let n = 1 + case * 9 % 300;
            for _ in 0..n {
                s = splitmix64(s);
                c.access(s % 4096, true);
            }
            let (h, m) = c.stats();
            assert_eq!(h + m, n);
        }
    }
}
