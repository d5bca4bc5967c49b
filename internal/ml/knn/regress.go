package knn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mcbound/internal/linalg"
	"mcbound/internal/ml"
	"mcbound/internal/par"
)

// Regressor is the k-nearest-neighbor regressor of the paper's future
// work (§VI): "The KNN finds the most similar jobs regardless of the
// target feature, hence we can easily adapt the framework for the
// prediction of multiple features" — e.g. job duration or power.
//
// It shares the Classifier's design: identical training vectors are
// grouped, each group carrying the count and sum of its targets, and
// inference averages the targets of the k nearest training points.
type Regressor struct {
	cfg Config

	mu     sync.RWMutex
	dim    int
	n      int
	groups int
	data   []float32 // groups*dim row-major unique-vector matrix
	count  []int32   // per group: multiplicity
	sum    []float64 // per group: target sum
}

// NewRegressor builds an untrained KNN regressor. Invalid config values
// fall back to the defaults.
func NewRegressor(cfg Config) *Regressor {
	if cfg.K <= 0 {
		cfg.K = DefaultConfig().K
	}
	if cfg.P <= 0 {
		cfg.P = DefaultConfig().P
	}
	return &Regressor{cfg: cfg}
}

// Name identifies the algorithm.
func (r *Regressor) Name() string { return "knn-regressor" }

// TrainSize returns the stored point count (with multiplicity).
func (r *Regressor) TrainSize() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

// Fit stores the training vectors and their numeric targets.
func (r *Regressor) Fit(x [][]float32, y []float64) error {
	if len(x) == 0 {
		return ml.ErrNoData
	}
	if len(x) != len(y) {
		return fmt.Errorf("knn: %d vectors vs %d targets", len(x), len(y))
	}
	dim := len(x[0])
	for i, v := range x {
		if len(v) != dim {
			return fmt.Errorf("knn: vector %d has dim %d, want %d", i, len(v), dim)
		}
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return fmt.Errorf("knn: target %d is not finite", i)
		}
	}

	type group struct {
		first int
		count int32
		sum   float64
	}
	byHash := make(map[uint64][]int, len(x))
	groups := make([]group, 0, len(x)/4)
	for i, row := range x {
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
		groups[gi].count++
		groups[gi].sum += y[i]
	}

	data := make([]float32, 0, len(groups)*dim)
	count := make([]int32, len(groups))
	sum := make([]float64, len(groups))
	for g, gr := range groups {
		data = append(data, x[gr.first]...)
		count[g] = gr.count
		sum[g] = gr.sum
	}

	r.mu.Lock()
	r.dim, r.n, r.groups = dim, len(x), len(groups)
	r.data, r.count, r.sum = data, count, sum
	r.mu.Unlock()
	return nil
}

// PredictValues returns, for each query, the mean target of its k
// nearest training points (equidistant duplicates contribute their group
// mean).
func (r *Regressor) PredictValues(x [][]float32) ([]float64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.n == 0 {
		return nil, ml.ErrNotTrained
	}
	for i, v := range x {
		if len(v) != r.dim {
			return nil, fmt.Errorf("knn: query %d has dim %d, want %d", i, len(v), r.dim)
		}
	}
	out := make([]float64, len(x))
	par.For(len(x), func(i int) {
		out[i] = r.predictOne(x[i])
	})
	return out, nil
}

func (r *Regressor) predictOne(q []float32) float64 {
	k := r.cfg.K
	if k > r.n {
		k = r.n
	}
	kg := k
	if kg > r.groups {
		kg = r.groups
	}
	top := make([]neighbor, 0, kg)
	worst := math.Inf(1)
	for g := 0; g < r.groups; g++ {
		row := r.data[g*r.dim : (g+1)*r.dim]
		var d float64
		if r.cfg.P == 2 {
			d = linalg.SqEuclidean(q, row)
		} else {
			d = linalg.Minkowski(q, row, r.cfg.P)
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

	// Average k targets walking the groups from nearest to farthest;
	// a partially consumed group contributes its mean per point.
	remaining := k
	var total float64
	var used int
	for _, nb := range top {
		if remaining <= 0 {
			break
		}
		take := int(r.count[nb.group])
		if take > remaining {
			take = remaining
		}
		mean := r.sum[nb.group] / float64(r.count[nb.group])
		total += mean * float64(take)
		used += take
		remaining -= take
	}
	if used == 0 {
		return 0
	}
	return total / float64(used)
}

const regressorMagic = "MCBKNR01"

// MarshalBinary serializes the fitted regressor (the persistence
// contract shared with the classifier).
func (r *Regressor) MarshalBinary() ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var buf bytes.Buffer
	buf.WriteString(regressorMagic)
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	w(int64(r.cfg.K))
	w(r.cfg.P)
	w(int64(r.dim))
	w(int64(r.n))
	w(int64(r.groups))
	w(r.data)
	w(r.count)
	w(r.sum)
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a regressor serialized by MarshalBinary.
func (r *Regressor) UnmarshalBinary(b []byte) error {
	buf := bytes.NewReader(b)
	magic := make([]byte, len(regressorMagic))
	if _, err := buf.Read(magic); err != nil || string(magic) != regressorMagic {
		return fmt.Errorf("knn: bad regressor header")
	}
	var k, dim, n, groups int64
	var p float64
	rd := func(v any) error { return binary.Read(buf, binary.LittleEndian, v) }
	for _, v := range []any{&k, &p, &dim, &n, &groups} {
		if err := rd(v); err != nil {
			return fmt.Errorf("knn: %w", err)
		}
	}
	if k <= 0 || dim <= 0 || n < 0 || groups < 0 || groups*dim*4 > int64(len(b)) {
		return fmt.Errorf("knn: corrupt regressor dimensions")
	}
	data := make([]float32, groups*dim)
	count := make([]int32, groups)
	sum := make([]float64, groups)
	if err := rd(&data); err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	if err := rd(&count); err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	if err := rd(&sum); err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	r.mu.Lock()
	r.cfg = Config{K: int(k), P: p}
	r.dim, r.n, r.groups = int(dim), int(n), int(groups)
	r.data, r.count, r.sum = data, count, sum
	r.mu.Unlock()
	return nil
}
