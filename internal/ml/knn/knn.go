// Package knn implements the k-Nearest-Neighbors Classification Model of
// MCBound: training stores the encoded data points; inference is a
// majority vote among the k most similar points under the Minkowski
// distance (paper §III-D). Distance scans are parallelized across cores
// and run over a single contiguous buffer for cache locality.
package knn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"mcbound/internal/job"
	"mcbound/internal/linalg"
	"mcbound/internal/ml"
	"mcbound/internal/ml/ivf"
	"mcbound/internal/par"
)

// Config holds the KNN hyper-parameters. The defaults match
// scikit-learn's KNeighborsClassifier defaults used by the paper.
type Config struct {
	K     int         // number of neighbors (default 5)
	P     float64     // Minkowski order (default 2, Euclidean)
	Index IndexConfig // sub-linear search structure (zero value = auto)
}

// IndexMode selects when Train builds an IVF index over the group
// matrix instead of leaving Predict on the brute-force scan.
type IndexMode string

const (
	// IndexAuto (the zero value) builds the index only when the trained
	// group count reaches IndexConfig.MinGroups — small windows stay on
	// the exact scan, which is both faster and exact at that size.
	IndexAuto IndexMode = "auto"
	// IndexOn always builds the index (when the metric supports it).
	IndexOn IndexMode = "on"
	// IndexOff never builds it.
	IndexOff IndexMode = "off"
)

// DefaultMinGroups is the auto-mode threshold: below this many unique
// vectors a brute-force scan beats the index's probe overhead.
const DefaultMinGroups = 4096

// IndexConfig controls the optional IVF index. Only the Euclidean
// metric (P == 2) is indexable; other Minkowski orders always fall back
// to brute force.
type IndexConfig struct {
	Mode      IndexMode // ""/auto, on, off
	MinGroups int       // auto threshold; 0 = DefaultMinGroups
	NClusters int       // ivf.Config.NClusters
	NProbe    int       // ivf.Config.NProbe
	Rerank    int       // ivf.Config.Rerank
	Seed      uint64    // ivf.Config.Seed
}

// enabled reports whether a model with the given metric and group count
// should carry an index.
func (ic IndexConfig) enabled(p float64, groups int) bool {
	if p != 2 || groups < 1 {
		return false
	}
	switch ic.Mode {
	case IndexOn:
		return true
	case IndexOff:
		return false
	default:
		min := ic.MinGroups
		if min <= 0 {
			min = DefaultMinGroups
		}
		return groups >= min
	}
}

// DefaultConfig returns the scikit-learn defaults.
func DefaultConfig() Config { return Config{K: 5, P: 2} }

// Classifier is a KNN model. The zero value is unusable; use New.
//
// Training deduplicates identical vectors into groups carrying per-label
// multiplicities: HPC jobs arrive in batches of identical submissions, so
// the stored matrix shrinks by one to two orders of magnitude while the
// k-nearest vote stays exact up to tie-breaking among equidistant
// duplicates (which brute-force KNN leaves unspecified anyway — within a
// duplicate group votes are consumed majority-label first).
type Classifier struct {
	cfg Config

	mu     sync.RWMutex
	dim    int
	n      int        // total training points (with multiplicity)
	groups int        // unique vectors
	data   []float32  // groups*dim row-major unique-vector matrix
	counts [][2]int32 // per group: votes for memory-/compute-bound
	index  *ivf.Index // sub-linear search over data; nil = brute force
}

// New builds an untrained KNN classifier. Invalid config values fall back
// to the defaults.
func New(cfg Config) *Classifier {
	if cfg.K <= 0 {
		cfg.K = DefaultConfig().K
	}
	if cfg.P <= 0 {
		cfg.P = DefaultConfig().P
	}
	return &Classifier{cfg: cfg}
}

// Name implements ml.Classifier.
func (c *Classifier) Name() string { return "knn" }

// Config returns the model's hyper-parameters.
func (c *Classifier) Config() Config { return c.cfg }

// TrainSize returns the number of stored training points (with
// multiplicity).
func (c *Classifier) TrainSize() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Groups returns the number of unique stored vectors.
func (c *Classifier) Groups() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.groups
}

// Train implements ml.Classifier: it copies the training set into a
// contiguous matrix of unique vectors with per-label multiplicities.
// KNN "training" is exactly this storage step, which is why the paper
// measures it in fractions of a second.
func (c *Classifier) Train(x [][]float32, y []job.Label) error {
	if err := ml.CheckTrainingData(x, y); err != nil {
		return err
	}
	dim := len(x[0])

	type group struct {
		first  int // row index of the representative vector
		counts [2]int32
	}
	byHash := make(map[uint64][]int, len(x)) // hash -> group indices
	groups := make([]group, 0, len(x)/4)
	n := 0
	for i, row := range x {
		if y[i] == job.Unknown {
			continue
		}
		n++
		h := hashVec(row)
		gi := -1
		for _, g := range byHash[h] {
			if equalVec(x[groups[g].first], row) {
				gi = g
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, group{first: i})
			byHash[h] = append(byHash[h], gi)
		}
		if y[i] == job.ComputeBound {
			groups[gi].counts[1]++
		} else {
			groups[gi].counts[0]++
		}
	}
	if n == 0 {
		return fmt.Errorf("knn: no labeled training rows")
	}

	data := make([]float32, 0, len(groups)*dim)
	counts := make([][2]int32, len(groups))
	for g, gr := range groups {
		data = append(data, x[gr.first]...)
		counts[g] = gr.counts
	}

	// Sub-linear search structure over the group matrix. A build failure
	// is not a training failure: the model falls back to the exact scan.
	var index *ivf.Index
	if c.cfg.Index.enabled(c.cfg.P, len(groups)) {
		index, _ = ivf.Build(data, dim, ivf.Config{
			NClusters: c.cfg.Index.NClusters,
			NProbe:    c.cfg.Index.NProbe,
			Rerank:    c.cfg.Index.Rerank,
			Seed:      c.cfg.Index.Seed,
		})
	}

	c.mu.Lock()
	c.dim, c.n, c.groups, c.data, c.counts = dim, n, len(groups), data, counts
	c.index = index
	c.mu.Unlock()
	return nil
}

// Predict implements ml.Classifier: a brute-force scan over the unique
// vectors with a bounded top-k selection per query, then majority vote
// among the k nearest points (ties broken toward the nearest). Queries
// are fanned out with par.For; a single query runs inline.
func (c *Classifier) Predict(x [][]float32) ([]job.Label, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.n == 0 {
		return nil, ml.ErrNotTrained
	}
	for i, v := range x {
		if len(v) != c.dim {
			return nil, fmt.Errorf("knn: query %d has dim %d, want %d", i, len(v), c.dim)
		}
	}
	out := make([]job.Label, len(x))
	par.For(len(x), func(i int) {
		top := make([]neighbor, 0, c.cfg.K)
		out[i] = c.predictOne(x[i], top)
	})
	return out, nil
}

// neighbor is one candidate group in the top-k selection.
type neighbor struct {
	dist  float64
	group int
}

// predictOne finds the k nearest training points of q. Because every
// group holds at least one point, the k nearest points are contained in
// the k nearest groups, so a bounded top-k over groups suffices. With an
// index built, the group scan is replaced by an IVF search (approximate:
// the recall gate in mcbound-bench bounds the neighbor-set difference).
func (c *Classifier) predictOne(q []float32, top []neighbor) job.Label {
	k := c.cfg.K
	if k > c.n {
		k = c.n
	}
	kg := k
	if kg > c.groups {
		kg = c.groups
	}
	if c.index != nil {
		cand := c.index.Search(q, kg, make([]ml.Candidate, 0, kg))
		top = top[:0]
		for _, cd := range cand {
			top = append(top, neighbor{dist: cd.Dist, group: cd.ID})
		}
		return c.vote(top, k)
	}
	top = top[:0]
	worst := math.Inf(1)
	for g := 0; g < c.groups; g++ {
		row := c.data[g*c.dim : (g+1)*c.dim]
		var d float64
		if c.cfg.P == 2 {
			d = linalg.SqEuclidean(q, row) // monotone in the true distance
		} else {
			d = linalg.Minkowski(q, row, c.cfg.P)
		}
		if len(top) == kg && d >= worst {
			continue
		}
		pos := len(top)
		if len(top) < kg {
			top = append(top, neighbor{})
		}
		for pos > 0 && top[pos-1].dist > d {
			if pos < len(top) {
				top[pos] = top[pos-1]
			}
			pos--
		}
		top[pos] = neighbor{dist: d, group: g}
		worst = top[len(top)-1].dist
	}
	return c.vote(top, k)
}

// vote consumes k votes walking the groups from nearest to farthest;
// within a group (equidistant duplicates) majority label first. It is
// shared by the brute-force and index search paths so both vote under
// identical semantics.
func (c *Classifier) vote(top []neighbor, k int) job.Label {
	var votes [2]int
	remaining := k
	for _, nb := range top {
		if remaining <= 0 {
			break
		}
		cnt := c.counts[nb.group]
		maj, min := 0, 1
		if cnt[1] > cnt[0] {
			maj, min = 1, 0
		}
		take := int(cnt[maj])
		if take > remaining {
			take = remaining
		}
		votes[maj] += take
		remaining -= take
		take = int(cnt[min])
		if take > remaining {
			take = remaining
		}
		votes[min] += take
		remaining -= take
	}
	if votes[1] > votes[0] {
		return job.ComputeBound
	}
	if votes[0] > votes[1] {
		return job.MemoryBound
	}
	// Exact tie: side with the nearest group's majority.
	cnt := c.counts[top[0].group]
	if cnt[1] > cnt[0] {
		return job.ComputeBound
	}
	return job.MemoryBound
}

// IndexInfo implements ml.Indexed: a snapshot of the live search
// structure (served on GET /v1/model).
func (c *Classifier) IndexInfo() ml.IndexInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.index == nil {
		return ml.IndexInfo{}
	}
	return ml.IndexInfo{
		Enabled:  true,
		Kind:     "ivf",
		Indexed:  c.index.Len(),
		Clusters: c.index.Clusters(),
		NProbe:   c.index.NProbe(),
	}
}

// SetNProbe implements ml.Indexed: it adjusts the live index's
// accuracy/latency knob without retraining. No-op on brute-force models.
func (c *Classifier) SetNProbe(n int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.index != nil {
		c.index.SetNProbe(n)
	}
}

// Matrix exposes the trained group matrix (rows×dim, row-major) for
// benchmarks and recall measurement. Callers must treat it as read-only.
func (c *Classifier) Matrix() ([]float32, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.data, c.dim
}

// VectorIndex returns the model's search structure, or nil when Predict
// runs the exact scan.
func (c *Classifier) VectorIndex() ml.VectorIndex {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.index == nil {
		return nil
	}
	return c.index
}

// hashVec hashes a vector's raw bits (FNV-1a over the float32 words).
func hashVec(v []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range v {
		b := math.Float32bits(f)
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func equalVec(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

const (
	marshalMagic   = "MCBKNN02" // brute-force model: header + matrix + counts
	marshalMagicV3 = "MCBKNN03" // indexed model: crc32 + V2 payload + index section
)

// ErrCorruptModel is wrapped by UnmarshalBinary on every reject path —
// bad magic, adversarial headers, truncation, checksum mismatch, or a
// structurally invalid index section.
var ErrCorruptModel = errors.New("knn: corrupt model")

// Sanity caps for deserialized headers. Each field is bounded BEFORE
// any multiplication so adversarial values cannot overflow int64 into a
// small (or negative) allocation size: groups·dim·4 ≤ 2^28·2^16·4 = 2^46.
const (
	maxDim    = 1 << 16
	maxGroups = 1 << 28
	maxK      = 1 << 20
	maxN      = 1 << 40
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64), matching the WAL's frame checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MarshalBinary serializes the trained model (encoding.BinaryMarshaler),
// playing the role of the paper's skops model files. Brute-force models
// keep the MCBKNN02 layout byte-for-byte; indexed models use MCBKNN03,
// which prefixes a crc32 over everything after the checksum field and
// appends the IVF section after the counts.
func (c *Classifier) MarshalBinary() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var payload bytes.Buffer
	w := func(v any) { binary.Write(&payload, binary.LittleEndian, v) }
	w(int64(c.cfg.K))
	w(c.cfg.P)
	w(int64(c.dim))
	w(int64(c.n))
	w(int64(c.groups))
	w(c.data)
	flat := make([]int32, 0, 2*len(c.counts))
	for _, ct := range c.counts {
		flat = append(flat, ct[0], ct[1])
	}
	w(flat)

	var out bytes.Buffer
	if c.index == nil {
		out.WriteString(marshalMagic)
		out.Write(payload.Bytes())
		return out.Bytes(), nil
	}
	c.index.AppendBinary(&payload)
	out.WriteString(marshalMagicV3)
	binary.Write(&out, binary.LittleEndian, crc32.Checksum(payload.Bytes(), crcTable))
	out.Write(payload.Bytes())
	return out.Bytes(), nil
}

// UnmarshalBinary restores a model serialized by MarshalBinary, either
// format. Every reject path returns an error wrapping ErrCorruptModel;
// adversarial input must never panic or allocate unboundedly.
func (c *Classifier) UnmarshalBinary(b []byte) error {
	if len(b) < len(marshalMagic) {
		return fmt.Errorf("%w: short header", ErrCorruptModel)
	}
	indexed := false
	switch string(b[:len(marshalMagic)]) {
	case marshalMagic:
		b = b[len(marshalMagic):]
	case marshalMagicV3:
		rest := b[len(marshalMagicV3):]
		if len(rest) < 4 {
			return fmt.Errorf("%w: missing checksum", ErrCorruptModel)
		}
		want := binary.LittleEndian.Uint32(rest[:4])
		b = rest[4:]
		if crc32.Checksum(b, crcTable) != want {
			return fmt.Errorf("%w: checksum mismatch", ErrCorruptModel)
		}
		indexed = true
	default:
		return fmt.Errorf("%w: bad magic", ErrCorruptModel)
	}

	buf := bytes.NewReader(b)
	var k, dim, n, groups int64
	var p float64
	r := func(v any) error { return binary.Read(buf, binary.LittleEndian, v) }
	for _, v := range []any{&k, &p, &dim, &n, &groups} {
		if err := r(v); err != nil {
			return fmt.Errorf("%w: truncated header", ErrCorruptModel)
		}
	}
	switch {
	case k <= 0 || k > maxK:
		return fmt.Errorf("%w: k = %d", ErrCorruptModel, k)
	case math.IsNaN(p) || math.IsInf(p, 0) || p <= 0:
		return fmt.Errorf("%w: minkowski order %v", ErrCorruptModel, p)
	case dim <= 0 || dim > maxDim:
		return fmt.Errorf("%w: dim = %d", ErrCorruptModel, dim)
	case groups < 0 || groups > maxGroups:
		return fmt.Errorf("%w: groups = %d", ErrCorruptModel, groups)
	case n < groups || n > maxN:
		return fmt.Errorf("%w: n = %d for %d groups", ErrCorruptModel, n, groups)
	case indexed && groups == 0:
		return fmt.Errorf("%w: indexed model without groups", ErrCorruptModel)
	}
	// All factors are individually capped above, so this fits in int64.
	if need := groups*dim*4 + groups*8; need > int64(buf.Len()) {
		return fmt.Errorf("%w: %d groups × %d dims exceed %d payload bytes",
			ErrCorruptModel, groups, dim, buf.Len())
	}
	data := make([]float32, groups*dim)
	if err := r(data); err != nil {
		return fmt.Errorf("%w: truncated matrix", ErrCorruptModel)
	}
	flat := make([]int32, 2*groups)
	if err := r(flat); err != nil {
		return fmt.Errorf("%w: truncated counts", ErrCorruptModel)
	}
	counts := make([][2]int32, groups)
	var total int64
	for i := range counts {
		if flat[2*i] < 0 || flat[2*i+1] < 0 {
			return fmt.Errorf("%w: negative vote count", ErrCorruptModel)
		}
		counts[i] = [2]int32{flat[2*i], flat[2*i+1]}
		total += int64(flat[2*i]) + int64(flat[2*i+1])
	}
	if total != n {
		return fmt.Errorf("%w: counts sum to %d, header says %d", ErrCorruptModel, total, n)
	}

	var index *ivf.Index
	if indexed {
		var err error
		if index, err = ivf.Load(buf, data, int(dim)); err != nil {
			return fmt.Errorf("%w: %w", ErrCorruptModel, err)
		}
	}
	if buf.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptModel, buf.Len())
	}

	c.mu.Lock()
	c.cfg.K, c.cfg.P = int(k), p
	c.dim, c.n, c.groups, c.data, c.counts = int(dim), int(n), int(groups), data, counts
	c.index = index
	c.mu.Unlock()
	return nil
}
