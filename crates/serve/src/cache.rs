//! Plan cache with canonicalized keys.
//!
//! Planning a compound sparse attention (slicing grains, building CSR /
//! BSR metadata) is the expensive, input-dependent part of serving.
//! Real inputs rarely repeat exactly, but they cluster: question prefixes
//! of similar length, markers at similar densities, valid lengths near
//! the window size. Canonicalizing a sample before planning — bucketing
//! its valid length and regularizing its special-token layout — collapses
//! that cluster onto a handful of plans that an LRU cache can serve with
//! a high hit rate, at the cost of slightly over-provisioned patterns.

use crate::request::Request;
use crate::tune::Tuner;
use mg_models::workload::WorkloadSample;
use mg_models::SparseTransformer;
use mg_sparse::SparseError;
use multigrain::{Attention, AttentionProblem, Method};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Key identifying one cached plan: the method, a structural signature of
/// the canonical pattern, the bucketed valid length, and a hash of the
/// canonical special-token layout.
///
/// Keys are totally ordered (`Ord`) so the cache can live in a
/// `BTreeMap` and eviction ties can break by key order — the map's
/// iteration order must never leak hasher state into which plan gets
/// dropped (`clippy.toml` bans `HashMap` outright).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanKey {
    /// Attention method the plan was built for.
    pub method: Method,
    /// [`AttentionProblem::signature_with_bucket`] of the canonicalized
    /// problem at the cache's length bucket — the same derivation the
    /// autotune layer keys its tuning database by, so the two key
    /// spaces cannot diverge.
    pub pattern_sig: u64,
    /// Valid length after bucketing.
    pub len_bucket: usize,
    /// Hash of the canonical special-token layout (prefix length and
    /// marker stride).
    pub layout_hash: u64,
}

/// Hit/miss/eviction accounting of a [`PlanCache`].
///
/// `hits`/`misses` are the aggregate counters; the `prefill_*` /
/// `decode_*` pairs split the same lookups by serving phase (prefill
/// planning versus per-token decode steps), so `hits == prefill_hits +
/// decode_hits` and likewise for misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
    /// Plans evicted to respect the capacity bound.
    pub evictions: u64,
    /// Prefill-phase lookups answered from the cache.
    pub prefill_hits: u64,
    /// Prefill-phase lookups that planned from scratch.
    pub prefill_misses: u64,
    /// Decode-step lookups answered from the cache (including the
    /// prefix-aware session fast path).
    pub decode_hits: u64,
    /// Decode-step lookups that planned from scratch (bucket
    /// boundaries and cold sessions).
    pub decode_misses: u64,
}

impl CacheStats {
    /// Hits over lookups, `1.0` for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Prefill-phase hit rate, `1.0` when no prefill lookups happened.
    pub fn prefill_hit_rate(&self) -> f64 {
        let total = self.prefill_hits + self.prefill_misses;
        if total == 0 {
            1.0
        } else {
            self.prefill_hits as f64 / total as f64
        }
    }

    /// Decode-phase hit rate, `1.0` when no decode lookups happened.
    pub fn decode_hit_rate(&self) -> f64 {
        let total = self.decode_hits + self.decode_misses;
        if total == 0 {
            1.0
        } else {
            self.decode_hits as f64 / total as f64
        }
    }
}

/// Which serving phase a plan lookup belongs to, for the split stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Prefill,
    Decode,
}

/// Canonicalizes a sample for plan reuse.
///
/// Three regularizations, each conservative in *cost*: the canonical
/// pattern is at least as dense as the original on average, so plans
/// built from it never under-provision, while near-identical inputs
/// collapse onto one canonical form (this is the standard bucketing
/// trade-off of serving systems — slightly more compute per request in
/// exchange for plan reuse):
///
/// 1. `valid_len` is rounded **up** to a multiple of `len_bucket`
///    (clamped to `max_seq_len`), so nearby lengths share a plan.
/// 2. The contiguous special-token prefix (question/query tokens) is
///    rounded **up** to a multiple of 8.
/// 3. Markers spread through the context are replaced by a uniform comb
///    whose stride is the mean observed gap rounded **down** to a power
///    of two — at least as dense as the original on average.
pub fn canonicalize(
    sample: &WorkloadSample,
    max_seq_len: usize,
    len_bucket: usize,
) -> WorkloadSample {
    let len_bucket = len_bucket.max(1);
    let valid_len = sample
        .valid_len
        .div_ceil(len_bucket)
        .saturating_mul(len_bucket)
        .clamp(1, max_seq_len);

    // Split the layout into a contiguous prefix and spread markers.
    let mut prefix = 0usize;
    for &t in &sample.special_tokens {
        if t == prefix {
            prefix += 1;
        } else {
            break;
        }
    }
    let spread = &sample.special_tokens[prefix..];
    let canon_prefix = if prefix == 0 {
        0
    } else {
        prefix.div_ceil(8).saturating_mul(8).min(valid_len)
    };

    let mut special: Vec<usize> = (0..canon_prefix).collect();
    if spread.len() >= 2 {
        let span = spread.last().unwrap() - spread[0];
        let mean_gap = (span / (spread.len() - 1)).max(1);
        // Round down to a power of two: denser than observed on average.
        let stride = if mean_gap <= 1 {
            1
        } else {
            1usize << (usize::BITS - 1 - mean_gap.leading_zeros())
        };
        // The comb starts a full stride past the prefix so it never
        // merges into it (which keeps canonicalization idempotent).
        let mut pos = if canon_prefix == 0 {
            stride
        } else {
            canon_prefix + stride
        };
        let mut comb = Vec::new();
        while pos < valid_len {
            comb.push(pos);
            pos += stride;
        }
        if comb.len() >= 2 {
            special.extend(comb);
        } else if let Some(&tooth) = comb.first() {
            // A comb with a single tooth in range reads as a lone marker
            // on the next pass, so it must be bucketed by the lone-marker
            // rule *now* or canonicalization would not be idempotent.
            push_lone_marker(&mut special, tooth, canon_prefix, valid_len);
        }
    } else if let Some(&lone) = spread.first() {
        push_lone_marker(&mut special, lone, canon_prefix, valid_len);
    }

    WorkloadSample {
        valid_len,
        special_tokens: special,
    }
}

/// Buckets a lone spread marker to a multiple of 8 clear of the prefix;
/// drops it when no such slot fits in the valid range. Every slot this
/// rule produces is a fixed point of it, which keeps [`canonicalize`]
/// idempotent.
fn push_lone_marker(
    special: &mut Vec<usize>,
    marker: usize,
    canon_prefix: usize,
    valid_len: usize,
) {
    let slot = (marker / 8 * 8).max(canon_prefix + 8);
    if slot < valid_len {
        special.push(slot);
    }
}

/// An LRU cache of built [`Attention`] plans keyed by [`PlanKey`].
///
/// Plans are shared out as `Arc<Attention>`: every request whose
/// canonical form matches executes the same plan object, and the handle
/// is `Send + Sync`, so a plan can be handed to any thread.
pub struct PlanCache {
    model: SparseTransformer,
    capacity: usize,
    len_bucket: usize,
    entries: BTreeMap<PlanKey, (Arc<Attention>, u64)>,
    tick: u64,
    stats: CacheStats,
    tuner: Option<Tuner>,
    // Prefix-aware decode memo: per-session (bucketed length, key,
    // plan). Consecutive decode steps inside one length bucket
    // canonicalize to the same sample — the memo skips the
    // re-canonicalization, pattern build, and signature hash entirely
    // and re-serves the session's plan until the bucket boundary.
    sessions: BTreeMap<u64, SessionPlan>,
}

#[derive(Clone)]
struct SessionPlan {
    bucketed_len: usize,
    key: PlanKey,
    plan: Arc<Attention>,
}

impl PlanCache {
    /// Creates a cache over `model` holding at most `capacity` plans,
    /// bucketing valid lengths to multiples of `len_bucket`.
    ///
    /// A `len_bucket` of an eighth of the model's padded length is a
    /// reasonable default: coarse enough to cluster, fine enough that the
    /// canonical pattern stays close to the real one.
    pub fn new(model: SparseTransformer, capacity: usize, len_bucket: usize) -> PlanCache {
        PlanCache {
            model,
            capacity: capacity.max(1),
            len_bucket: len_bucket.max(1),
            entries: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            tuner: None,
            sessions: BTreeMap::new(),
        }
    }

    /// Attaches a [`Tuner`]: every subsequent plan request consults the
    /// tuning database *first*, and the tuned `(method, block size)` —
    /// not the request's — is what gets planned and cached.
    #[must_use]
    pub fn with_tuner(mut self, tuner: Tuner) -> PlanCache {
        self.tuner = Some(tuner);
        self
    }

    /// The attached tuner, if any.
    pub fn tuner(&self) -> Option<&Tuner> {
        self.tuner.as_ref()
    }

    /// The model plans are built against.
    pub fn model(&self) -> &SparseTransformer {
        &self.model
    }

    /// Computes the cache key for a request without planning anything
    /// (at the model's configured block size).
    pub fn key_for(&self, method: Method, sample: &WorkloadSample) -> PlanKey {
        self.key_with_block(method, sample, self.model.config().block_size)
    }

    /// [`PlanCache::key_for`] at an explicit coarse block size (tuned
    /// plans are keyed by the block they were actually built with).
    fn key_with_block(
        &self,
        method: Method,
        sample: &WorkloadSample,
        block_size: usize,
    ) -> PlanKey {
        let canon = canonicalize(sample, self.model.config().max_seq_len, self.len_bucket);
        let problem = self.canonical_problem(&canon, block_size);
        let mut h = DefaultHasher::new();
        canon.special_tokens.hash(&mut h);
        PlanKey {
            method,
            pattern_sig: problem.signature_with_bucket(self.len_bucket),
            len_bucket: canon.valid_len,
            layout_hash: h.finish(),
        }
    }

    /// The canonical [`AttentionProblem`] of an already-canonicalized
    /// sample, at the given block size. This is the problem the tuning
    /// layer keys by and the plan the cache builds on a miss.
    fn canonical_problem(&self, canon: &WorkloadSample, block_size: usize) -> AttentionProblem {
        let cfg = self.model.config();
        AttentionProblem::new(
            self.model.pattern_for(canon),
            cfg.head_dim,
            1,
            cfg.heads,
            block_size,
        )
    }

    /// Returns the plan for `request`, building and inserting it on miss.
    pub fn get_or_plan(&mut self, request: &Request) -> Result<Arc<Attention>, SparseError> {
        self.get_or_plan_sample(request.method, &request.sample)
    }

    /// Returns the plan for a `(method, sample)` pair, building on miss.
    ///
    /// With a [`Tuner`] attached, the tuning database picks the method
    /// and block size and `method` is only a fallback: it is what gets
    /// planned if the tuned configuration turns out unplannable (a stale
    /// database entry merged from elsewhere, say) — serving degrades
    /// instead of erroring.
    pub fn get_or_plan_sample(
        &mut self,
        method: Method,
        sample: &WorkloadSample,
    ) -> Result<Arc<Attention>, SparseError> {
        self.plan_full(method, sample, Phase::Prefill)
            .map(|(_, plan)| plan)
    }

    /// The bucketed canonical length a raw `valid_len` lands on — the
    /// quantity that must change before a decode step can see a
    /// different plan key.
    pub fn bucketed_len(&self, valid_len: usize) -> usize {
        valid_len
            .div_ceil(self.len_bucket)
            .saturating_mul(self.len_bucket)
            .clamp(1, self.model.config().max_seq_len)
    }

    /// Prefix-aware decode lookup: returns the plan for one decode step
    /// of `session` at the sample's current (grown) `valid_len`.
    ///
    /// While consecutive steps stay inside one length bucket the
    /// session memo re-serves the previous step's plan without
    /// re-canonicalizing, rebuilding the canonical pattern, or hashing
    /// a key — the steady-state decode cost of a plan lookup is a
    /// session-map probe. Only at bucket boundaries (and on the first
    /// step) does the lookup fall through to the full canonicalize /
    /// tune / plan path. Stats land in the `decode_*` counters.
    pub fn get_or_plan_decode(
        &mut self,
        session: u64,
        method: Method,
        sample: &WorkloadSample,
    ) -> Result<Arc<Attention>, SparseError> {
        let bucketed = self.bucketed_len(sample.valid_len);
        if let Some(sp) = self.sessions.get(&session) {
            if sp.bucketed_len == bucketed {
                let key = sp.key;
                let plan = Arc::clone(&sp.plan);
                self.tick += 1;
                // Keep the shared entry hot in the LRU while the
                // session decodes (it may have been evicted; the
                // session's Arc keeps the plan alive regardless).
                if let Some((_, last_used)) = self.entries.get_mut(&key) {
                    *last_used = self.tick;
                }
                self.stats.hits += 1;
                self.stats.decode_hits += 1;
                return Ok(plan);
            }
        }
        let (key, plan) = self.plan_full(method, sample, Phase::Decode)?;
        self.sessions.insert(
            session,
            SessionPlan {
                bucketed_len: bucketed,
                key,
                plan: Arc::clone(&plan),
            },
        );
        Ok(plan)
    }

    /// Drops a finished session's memo (the cached plan itself stays in
    /// the LRU for other sessions).
    pub fn end_session(&mut self, session: u64) {
        self.sessions.remove(&session);
    }

    /// Number of sessions currently holding a decode memo.
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    fn plan_full(
        &mut self,
        method: Method,
        sample: &WorkloadSample,
        phase: Phase,
    ) -> Result<(PlanKey, Arc<Attention>), SparseError> {
        let default_block = self.model.config().block_size;
        let tuned = match self.tuner {
            Some(_) => {
                let canon = canonicalize(sample, self.model.config().max_seq_len, self.len_bucket);
                let problem = self.canonical_problem(&canon, default_block);
                let len_bucket = self.len_bucket;
                self.tuner
                    .as_mut()
                    .map(|tuner| tuner.choose(&problem, len_bucket))
            }
            None => None,
        };
        match tuned {
            Some(config) => {
                match self.lookup_or_plan(config.method, sample, config.block_size, phase) {
                    Ok(entry) => Ok(entry),
                    // A tuned config the model cannot plan: degrade to
                    // the request's own method at the default block.
                    Err(_) => self.lookup_or_plan(method, sample, default_block, phase),
                }
            }
            None => self.lookup_or_plan(method, sample, default_block, phase),
        }
    }

    fn lookup_or_plan(
        &mut self,
        method: Method,
        sample: &WorkloadSample,
        block_size: usize,
        phase: Phase,
    ) -> Result<(PlanKey, Arc<Attention>), SparseError> {
        let key = self.key_with_block(method, sample, block_size);
        self.tick += 1;
        if let Some((plan, last_used)) = self.entries.get_mut(&key) {
            self.stats.hits += 1;
            match phase {
                Phase::Prefill => self.stats.prefill_hits += 1,
                Phase::Decode => self.stats.decode_hits += 1,
            }
            *last_used = self.tick;
            return Ok((key, Arc::clone(plan)));
        }
        self.stats.misses += 1;
        match phase {
            Phase::Prefill => self.stats.prefill_misses += 1,
            Phase::Decode => self.stats.decode_misses += 1,
        }
        let canon = canonicalize(sample, self.model.config().max_seq_len, self.len_bucket);
        let plan = Arc::new(
            self.model
                .plan_attention_with_block(method, &canon, 1, block_size)?,
        );
        if self.entries.len() >= self.capacity {
            // Ties in `last_used` break by PlanKey order, explicitly:
            // eviction must not depend on insertion order (let alone
            // hasher state, which the BTreeMap rules out wholesale).
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(k, (_, used))| (*used, **k))
                .map(|(k, _)| *k)
                .expect("non-empty at capacity");
            self.entries.remove(&oldest);
            self.stats.evictions += 1;
        }
        self.entries.insert(key, (Arc::clone(&plan), self.tick));
        Ok((key, plan))
    }

    /// Current accounting.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_models::ModelConfig;

    fn tiny_cache(capacity: usize) -> PlanCache {
        let model = SparseTransformer::new(ModelConfig::tiny());
        let bucket = model.config().max_seq_len / 8;
        PlanCache::new(model, capacity, bucket)
    }

    #[test]
    fn canonicalize_widens_never_narrows() {
        let sample = WorkloadSample {
            valid_len: 100,
            special_tokens: vec![0, 1, 2, 40, 75, 99],
        };
        let canon = canonicalize(&sample, 256, 32);
        assert!(canon.valid_len >= sample.valid_len);
        assert_eq!(canon.valid_len % 32, 0);
        // Prefix rounded up to a multiple of 8.
        assert!(canon
            .special_tokens
            .iter()
            .take(8)
            .eq((0..8).collect::<Vec<_>>().iter()));
        // Spread markers become a uniform power-of-two comb (gap ~29 -> 16).
        let spread: Vec<usize> = canon
            .special_tokens
            .iter()
            .copied()
            .filter(|&t| t >= 8)
            .collect();
        assert!(spread.windows(2).all(|w| w[1] - w[0] == 16), "{spread:?}");
    }

    #[test]
    fn single_tooth_combs_are_bucketed_like_lone_markers() {
        // Two spread markers whose comb has exactly one tooth in range:
        // gap 4 -> stride 4, comb starts at 8 + 4 = 12, next tooth 16 is
        // out of range. A second pass sees [12] as a lone marker and
        // buckets it to slot 16 >= valid_len, dropping it — so before the
        // fix the first pass and second pass disagreed.
        let sample = WorkloadSample {
            valid_len: 16,
            special_tokens: vec![0, 1, 2, 3, 4, 5, 6, 7, 9, 13],
        };
        let once = canonicalize(&sample, 64, 16);
        let twice = canonicalize(&once, 64, 16);
        assert_eq!(once, twice, "canonicalize must be idempotent");
    }

    #[test]
    fn canonicalize_is_idempotent_over_many_layouts() {
        // Deterministic sweep over marker layouts, lengths, and buckets:
        // canonical forms must be fixed points, or near-identical inputs
        // ping-pong between cache keys instead of sharing a plan.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as usize) % bound.max(1)
        };
        for _ in 0..2000 {
            let max_seq_len = 256;
            let valid_len = 1 + next(max_seq_len);
            let prefix = next(12);
            let mut special: Vec<usize> = (0..prefix).collect();
            let mut pos = prefix;
            for _ in 0..next(6) {
                pos += 1 + next(40);
                if pos < max_seq_len {
                    special.push(pos);
                }
            }
            let sample = WorkloadSample {
                valid_len,
                special_tokens: special,
            };
            for bucket in [1, 8, 32] {
                let once = canonicalize(&sample, max_seq_len, bucket);
                let twice = canonicalize(&once, max_seq_len, bucket);
                assert_eq!(once, twice, "not a fixed point: {sample:?} bucket {bucket}");
            }
        }
    }

    #[test]
    fn nearby_samples_share_a_key() {
        let cache = tiny_cache(8);
        let a = WorkloadSample {
            valid_len: 50,
            special_tokens: vec![0, 1, 2],
        };
        let b = WorkloadSample {
            valid_len: 55,
            special_tokens: vec![0, 1, 2, 3],
        };
        assert_eq!(
            cache.key_for(Method::Multigrain, &a),
            cache.key_for(Method::Multigrain, &b)
        );
        assert_ne!(
            cache.key_for(Method::Multigrain, &a),
            cache.key_for(Method::SputnikStyle, &a)
        );
    }

    #[test]
    fn lru_evicts_the_least_recent_plan() {
        let mut cache = tiny_cache(2);
        let s = |valid_len| WorkloadSample {
            valid_len,
            special_tokens: vec![0, 1],
        };
        // Three distinct length buckets at capacity two.
        cache.get_or_plan_sample(Method::Multigrain, &s(8)).unwrap();
        cache
            .get_or_plan_sample(Method::Multigrain, &s(30))
            .unwrap();
        cache.get_or_plan_sample(Method::Multigrain, &s(8)).unwrap(); // refresh
        cache
            .get_or_plan_sample(Method::Multigrain, &s(60))
            .unwrap(); // evicts 30
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        cache.get_or_plan_sample(Method::Multigrain, &s(8)).unwrap(); // still hot
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3); // first touches of 8, 30, 60
    }

    #[test]
    fn equal_tick_eviction_is_key_ordered_not_insertion_ordered() {
        // Regression for the hash-order bug that motivated the type ban: with
        // the cache full of entries whose `last_used` ticks are all
        // equal, the evicted plan must be the smallest PlanKey — for
        // every insertion order. The pre-fix HashMap broke ties by
        // hasher iteration order, so the victim varied run to run.
        let lens = [8usize, 30, 60];
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let s = |valid_len| WorkloadSample {
            valid_len,
            special_tokens: vec![0, 1],
        };
        let mut victims = Vec::new();
        for order in orders {
            let mut cache = tiny_cache(3);
            for &i in &order {
                cache
                    .get_or_plan_sample(Method::Multigrain, &s(lens[i]))
                    .unwrap();
            }
            // Force an exact tie on every resident entry.
            for (_, used) in cache.entries.values_mut() {
                *used = 7;
            }
            let resident: Vec<PlanKey> = cache.entries.keys().copied().collect();
            let expected_victim = *resident.iter().min().unwrap();
            // A fourth distinct bucket (40 -> 40; the others land on
            // 8, 32, 64) evicts exactly one tied entry.
            cache
                .get_or_plan_sample(Method::Multigrain, &s(40))
                .unwrap();
            assert_eq!(cache.stats().evictions, 1);
            let evicted: Vec<PlanKey> = resident
                .iter()
                .copied()
                .filter(|k| !cache.entries.contains_key(k))
                .collect();
            assert_eq!(evicted, vec![expected_victim], "order {order:?}");
            victims.push(evicted[0]);
        }
        // Insertion order never changed the victim.
        assert!(victims.windows(2).all(|w| w[0] == w[1]), "{victims:?}");
    }

    #[test]
    fn plan_key_and_tune_key_derive_the_same_signature() {
        // Satellite regression: the plan cache and the tuning database
        // must key by the same pattern signature, or a tuned entry and
        // the plan it selects could drift apart. Both sides go through
        // `AttentionProblem::signature_with_bucket` over the
        // canonicalized sample — assert they agree exactly.
        use mg_autotune::TuneKey;
        use mg_gpusim::DeviceSpec;

        let cache = tiny_cache(8);
        let spec = DeviceSpec::a100();
        for valid_len in [13, 40, 64] {
            let sample = WorkloadSample {
                valid_len,
                special_tokens: vec![0, 1, 2],
            };
            let plan_key = cache.key_for(Method::Multigrain, &sample);
            let canon = canonicalize(&sample, cache.model.config().max_seq_len, cache.len_bucket);
            let problem = cache.canonical_problem(&canon, cache.model.config().block_size);
            let tune_key = TuneKey::for_problem(&problem, cache.len_bucket, &spec);
            assert_eq!(
                plan_key.pattern_sig, tune_key.pattern_sig,
                "key derivations diverged at valid_len {valid_len}"
            );
            assert_eq!(tune_key.device_fp, spec.fingerprint());
        }
    }

    #[test]
    fn tuned_cache_consults_the_database_before_the_plan_cache() {
        use crate::dispatch::StreamPolicy;
        use crate::tune::{TunePolicy, Tuner};
        use mg_autotune::TuningDb;
        use mg_gpusim::DeviceSpec;

        let mut cache = tiny_cache(8).with_tuner(Tuner::new(
            TunePolicy::online(TuningDb::new()),
            DeviceSpec::a100(),
            StreamPolicy::RoleStreams,
        ));
        let sample = WorkloadSample {
            valid_len: 48,
            special_tokens: vec![0, 1, 2],
        };
        cache
            .get_or_plan_sample(Method::Multigrain, &sample)
            .unwrap();
        let t = cache.tuner().unwrap().stats();
        assert_eq!((t.misses, t.online_tunes), (1, 1), "cold miss tunes");
        // Second request: tuning-database hit feeding a plan-cache hit.
        cache
            .get_or_plan_sample(Method::Multigrain, &sample)
            .unwrap();
        let t = cache.tuner().unwrap().stats();
        assert_eq!((t.hits, t.misses), (1, 1));
        assert_eq!(cache.stats().hits, 1);
        // The tuned winner is what got planned and keyed.
        let config = cache.tuner().unwrap().db().iter().next().unwrap().1.config;
        let key = cache.key_with_block(config.method, &sample, config.block_size);
        assert!(cache.entries.contains_key(&key));
    }

    #[test]
    fn repeated_traffic_hits_after_warmup() {
        let mut cache = tiny_cache(64);
        let samples = mg_models::workload::msmarco_like(64, 60, 5);
        for s in &samples {
            cache.get_or_plan_sample(Method::Multigrain, s).unwrap();
        }
        let stats = cache.stats();
        assert!(
            stats.hit_rate() > 0.5,
            "msmarco traffic should mostly collapse: {stats:?}"
        );
    }
}
