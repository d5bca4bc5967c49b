package encode

import (
	"mcbound/internal/job"
	"mcbound/internal/par"
)

// Encoder is the MCBound Feature Encoder component: it filters the job
// features, renders the comma-separated string and embeds it. Encodings
// are memoized in a sharded LRU keyed by the canonical feature string —
// the paper caches characterizations and encodings across workflow
// triggers to avoid redundant computation, and live submission streams
// repeat feature strings heavily — and batch encoding is parallelized
// across cores. All methods are safe for concurrent use.
type Encoder struct {
	features []Feature
	embedder Embedder
	cache    *shardedCache
}

// NewEncoder builds an Encoder over the given feature subset and
// embedder. Nil features defaults to DefaultFeatures; nil embedder to the
// hashing embedder. The embedding cache starts at DefaultCacheCapacity.
func NewEncoder(features []Feature, embedder Embedder) *Encoder {
	if features == nil {
		features = DefaultFeatures()
	}
	if embedder == nil {
		he := NewHashingEmbedder()
		he.FieldWeights = FieldWeightsFor(features)
		embedder = he
	}
	return &Encoder{
		features: features,
		embedder: embedder,
		cache:    newShardedCache(DefaultCacheCapacity),
	}
}

// Features returns the encoder's feature subset.
func (e *Encoder) Features() []Feature { return e.features }

// Dim returns the encoding dimensionality.
func (e *Encoder) Dim() int { return e.embedder.Dim() }

// EncodeJob returns the embedding of a single job, from cache when the
// identical feature string was seen before. The returned slice is shared
// with the cache and must not be mutated.
func (e *Encoder) EncodeJob(j *job.Job) []float32 {
	key := FeatureString(j, e.features)
	if v, ok := e.cache.get(key); ok {
		return v
	}
	// Concurrent misses on the same key may both embed; the embedding is
	// deterministic, so the duplicate work is harmless and lock-free.
	v := e.embedder.Embed(key)
	e.cache.put(key, v)
	return v
}

// Encode embeds a batch of jobs, fanned out across cores with par.For
// (a single job runs inline). Result row i corresponds to jobs[i].
func (e *Encoder) Encode(jobs []*job.Job) [][]float32 {
	out := make([][]float32, len(jobs))
	par.For(len(jobs), func(i int) {
		out[i] = e.EncodeJob(jobs[i])
	})
	return out
}

// SetCacheCapacity resizes the embedding cache to about n entries in
// total (split across shards); n <= 0 disables memoization. Shrinking
// evicts lazily as shards are next written.
func (e *Encoder) SetCacheCapacity(n int) { e.cache.setCapacity(n) }

// CacheStats snapshots hit/miss/eviction counters and the entry count.
func (e *Encoder) CacheStats() CacheStats { return e.cache.stats() }

// CacheSize returns the number of memoized feature strings.
func (e *Encoder) CacheSize() int { return e.cache.len() }

// ResetCache drops every memoized encoding (counters keep accumulating).
func (e *Encoder) ResetCache() { e.cache.reset() }
