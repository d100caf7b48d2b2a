//! The content-addressed result cache: bounded, LRU-evicting, and
//! collision-checked.
//!
//! A completed, non-quarantined [`RunRecord`] is stored under the 64-bit
//! FNV-1a digest of its spec's cache preimage; a later submission of the
//! same spec is answered from the cache without re-executing (unless the
//! client passes `?fresh=1`). The preimage is the workspace's canonical
//! cell key ([`sdvbs_runner::cell_key`] via `Job::cache_key`) **plus the
//! iteration count** — two requests for the same cell at different
//! iteration counts measure different things and must not share a cache
//! line.
//!
//! Two production properties the first version lacked:
//!
//! * **Bounded memory.** The cache holds at most `capacity` records; an
//!   insert past capacity evicts the least-recently-used entry (access
//!   order is a monotone stamp, eviction is an O(capacity) scan — fine at
//!   the few-thousand-entry scale this serves). A long-lived daemon's
//!   cache no longer grows without limit.
//! * **Collision safety.** A 64-bit digest *will* collide eventually
//!   (birthday bound ≈ 5 billion distinct specs, but adversarial keys can
//!   force it). Every entry stores its canonical preimage string, and a
//!   lookup whose digest matches but whose preimage differs is a
//!   [`CacheLookup::Collision`] — treated as a miss so the right spec
//!   executes, and counted so `/metrics` surfaces it.
//!
//! The cache is plain owned data with no lock of its own: the backends
//! reach it only through their job table, under the lock that already
//! guards that table.

use sdvbs_runner::{Job, RunRecord, RunStatus};
use std::collections::HashMap;
use std::sync::Arc;

/// Default cache capacity when no `--cache-capacity` flag is given.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical cache preimage of a job spec:
/// `benchmark|size|policy|seed|iters:N`. This exact string is stored
/// beside each cache entry and verified on every hit.
pub fn cache_preimage(spec: &Job) -> String {
    format!("{}|iters:{}", spec.cache_key(None), spec.iterations.max(1))
}

/// The cache digest of a job spec: FNV-1a over [`cache_preimage`].
pub fn spec_digest(spec: &Job) -> u64 {
    fnv1a(cache_preimage(spec).as_bytes())
}

/// A finished job's [`RunRecord`] together with its JSON line, serialized
/// once when the job completes. The job table, the result cache, cache
/// hits and job snapshots all share one `Arc` of it, so answering a hit or
/// a `done` poll writes the stored bytes instead of cloning and
/// re-serializing the record.
#[derive(Debug)]
pub struct ServedRecord {
    record: RunRecord,
    json: String,
}

impl ServedRecord {
    /// Serializes `record` ([`RunRecord::to_json_line`]) and wraps both
    /// for sharing.
    pub fn new(record: RunRecord) -> Arc<ServedRecord> {
        let json = record.to_json_line();
        Arc::new(ServedRecord { record, json })
    }

    /// The record.
    pub fn record(&self) -> &RunRecord {
        &self.record
    }

    /// The record's JSON line, exactly as [`RunRecord::to_json_line`]
    /// writes it.
    pub fn json(&self) -> &str {
        &self.json
    }
}

/// What a cache lookup found.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Digest and preimage both match: a true hit.
    Hit(Arc<ServedRecord>),
    /// Digest matches but the stored preimage differs — a 64-bit
    /// collision. The caller must execute (miss semantics) and should
    /// count it.
    Collision,
    /// Nothing stored under this digest.
    Miss,
}

/// What a [`ResultCache::put`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PutOutcome {
    /// The record was stored (completed, non-quarantined).
    pub stored: bool,
    /// Storing it evicted the least-recently-used entry.
    pub evicted: bool,
    /// The slot previously held a different preimage (digest collision);
    /// the newer record replaced it.
    pub collided: bool,
}

#[derive(Debug)]
struct CacheEntry {
    /// The canonical preimage, verified on every hit.
    key: String,
    record: Arc<ServedRecord>,
    /// Monotone access stamp; smallest = least recently used.
    last_used: u64,
}

/// A digest-addressed, capacity-bounded store of completed run records.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<u64, CacheEntry>,
    capacity: usize,
    tick: u64,
    evictions: u64,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl ResultCache {
    /// A cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache holding at most `capacity` records (clamped ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            evictions: 0,
        }
    }

    /// Looks up `digest`, verifying the stored preimage against `key`.
    /// A hit refreshes the entry's LRU stamp.
    pub fn get(&mut self, digest: u64, key: &str) -> CacheLookup {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&digest) {
            None => CacheLookup::Miss,
            Some(entry) if entry.key != key => CacheLookup::Collision,
            Some(entry) => {
                entry.last_used = tick;
                CacheLookup::Hit(Arc::clone(&entry.record))
            }
        }
    }

    /// Stores `record` under `digest`/`key` — but only a completed,
    /// non-quarantined record is worth serving again; failures must
    /// re-execute on resubmission. At capacity, the least-recently-used
    /// entry is evicted first.
    pub fn put(&mut self, digest: u64, key: &str, record: &Arc<ServedRecord>) -> PutOutcome {
        if record.record.status != RunStatus::Completed || record.record.quarantined {
            return PutOutcome::default();
        }
        self.tick += 1;
        let tick = self.tick;
        let mut outcome = PutOutcome {
            stored: true,
            ..PutOutcome::default()
        };
        if let Some(existing) = self.entries.get(&digest) {
            // Same digest: replace in place (collision or refresh);
            // capacity is unchanged either way.
            outcome.collided = existing.key != key;
        } else if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&d, _)| d)
                .expect("cache at capacity is non-empty");
            self.entries.remove(&lru);
            self.evictions += 1;
            outcome.evicted = true;
        }
        self.entries.insert(
            digest,
            CacheEntry {
                key: key.to_string(),
                record: Arc::clone(record),
                last_used: tick,
            },
        );
        outcome
    }

    /// Lifetime count of LRU evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_core::{ExecPolicy, InputSize};
    use sdvbs_runner::HostMeta;

    fn spec(seed: u64, iterations: usize) -> Job {
        Job::new(
            "Disparity Map",
            InputSize::Sqcif,
            ExecPolicy::Serial,
            seed,
            iterations,
        )
    }

    fn record(status: RunStatus, quarantined: bool) -> Arc<ServedRecord> {
        ServedRecord::new(RunRecord {
            job_id: 0,
            benchmark: "Disparity Map".into(),
            size: "sqcif".into(),
            policy: "serial".into(),
            threads: 1,
            seed: 1,
            iterations: 1,
            status,
            times_ms: vec![1.0],
            min_ms: 1.0,
            p50_ms: 1.0,
            mean_ms: 1.0,
            max_ms: 1.0,
            wall_ms: 2.0,
            quality: None,
            detail: String::new(),
            kernels: Vec::new(),
            non_kernel_percent: 0.0,
            occupancy_mode: "wall-clock".into(),
            host: HostMeta {
                os: "t".into(),
                cpu: "t".into(),
                logical_cpus: 1,
            },
            attempts: 1,
            injected: Vec::new(),
            quarantined,
        })
    }

    fn clean() -> Arc<ServedRecord> {
        record(RunStatus::Completed, false)
    }

    #[test]
    fn digests_separate_cells_and_iteration_counts() {
        assert_eq!(spec_digest(&spec(1, 3)), spec_digest(&spec(1, 3)));
        assert_ne!(spec_digest(&spec(1, 3)), spec_digest(&spec(2, 3)));
        // Same cell, different iteration count: distinct cache lines.
        assert_ne!(spec_digest(&spec(1, 3)), spec_digest(&spec(1, 5)));
        // Iterations are clamped to >= 1 everywhere, so 0 and 1 agree.
        assert_eq!(spec_digest(&spec(1, 0)), spec_digest(&spec(1, 1)));
        assert_eq!(cache_preimage(&spec(1, 0)), cache_preimage(&spec(1, 1)));
    }

    #[test]
    fn only_clean_completed_records_are_cached() {
        let mut cache = ResultCache::new();
        assert!(!cache.put(7, "k", &record(RunStatus::Failed, false)).stored);
        assert!(
            !cache
                .put(7, "k", &record(RunStatus::Completed, true))
                .stored
        );
        assert!(matches!(cache.get(7, "k"), CacheLookup::Miss));
        assert!(cache.put(7, "k", &clean()).stored);
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.get(7, "k"), CacheLookup::Hit(_)));
        assert!(matches!(cache.get(8, "k"), CacheLookup::Miss));
    }

    #[test]
    fn filling_past_capacity_evicts_the_least_recently_used() {
        let mut cache = ResultCache::with_capacity(3);
        for digest in 0..3u64 {
            assert!(!cache.put(digest, &format!("k{digest}"), &clean()).evicted);
        }
        assert_eq!(cache.len(), 3);
        // Touch 0 so 1 becomes the LRU entry.
        assert!(matches!(cache.get(0, "k0"), CacheLookup::Hit(_)));
        let outcome = cache.put(3, "k3", &clean());
        assert!(outcome.stored && outcome.evicted);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1);
        assert!(matches!(cache.get(1, "k1"), CacheLookup::Miss));
        assert!(matches!(cache.get(0, "k0"), CacheLookup::Hit(_)));
        assert!(matches!(cache.get(3, "k3"), CacheLookup::Hit(_)));
        // Keep filling: the cache never exceeds its capacity.
        for digest in 4..40u64 {
            cache.put(digest, &format!("k{digest}"), &clean());
            assert!(cache.len() <= 3);
        }
        assert_eq!(cache.evictions(), 37);
    }

    #[test]
    fn colliding_keys_never_serve_each_others_records() {
        // Two hand-constructed colliding keys: distinct canonical
        // preimages assigned the same 64-bit digest (what an FNV-1a
        // collision produces; finding a natural one needs ~2^32 work, so
        // the test injects the collision at the digest layer the engine
        // actually trusts).
        let mut cache = ResultCache::new();
        let key_a = "Disparity Map|sqcif|serial|seed1|iters:1";
        let key_b = "Image Stitch|cif|serial|seed9|iters:1";
        assert!(cache.put(0xdead_beef, key_a, &clean()).stored);
        // The colliding spec must MISS, not read A's record.
        assert!(matches!(
            cache.get(0xdead_beef, key_b),
            CacheLookup::Collision
        ));
        assert!(matches!(cache.get(0xdead_beef, key_a), CacheLookup::Hit(_)));
        // Writing B's record through the same digest replaces the slot
        // and reports the collision; now A is the one that must miss.
        let outcome = cache.put(0xdead_beef, key_b, &clean());
        assert!(outcome.stored && outcome.collided && !outcome.evicted);
        assert!(matches!(
            cache.get(0xdead_beef, key_a),
            CacheLookup::Collision
        ));
        assert!(matches!(cache.get(0xdead_beef, key_b), CacheLookup::Hit(_)));
        assert_eq!(cache.len(), 1);
    }
}
