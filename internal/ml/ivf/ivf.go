// Package ivf implements an inverted-file (IVF) approximate-nearest-
// neighbor index over a row-major float32 matrix: a k-means coarse
// quantizer partitions the rows into clusters, a query scans only the
// nprobe clusters whose centroids are nearest, and the scans run over
// int8 scalar-quantized codes (¼ the memory traffic of float32) with
// exact float32 re-ranking of the top candidates. Search cost is
// O(nclusters·dim + scanned·dim/4 + rerank·dim) instead of the brute
// O(n·dim) — sub-linear for nclusters ≈ √n — while the re-ranking step
// keeps the returned top-k within a measured recall ≥ 0.95 of brute
// force at the default knobs (gated by `mcbound-bench -scenario index`).
//
// Exactness limit: with NProbe ≥ NClusters and Rerank ≥ Len the search
// degenerates to an exact scan and returns exactly the brute-force
// top-k; with a bounded rerank pool the int8 candidate ordering may
// drop a true neighbor, which is the (measured, gated) approximation.
package ivf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mcbound/internal/linalg"
	"mcbound/internal/ml"
	"mcbound/internal/par"
	"mcbound/internal/stats"
)

// Defaults for the build/search knobs (0 in Config selects them).
const (
	// DefaultKMeansIters bounds the Lloyd iterations of the coarse
	// quantizer: assignments stabilize long before exact convergence and
	// the recall gate, not centroid quality, is the accuracy contract.
	DefaultKMeansIters = 6
	// DefaultSampleSize caps the points k-means trains on; the full
	// matrix is still assigned to the fitted centroids afterwards.
	DefaultSampleSize = 16384
	// DefaultRerank is the quantized-candidate pool re-ranked with exact
	// float32 distances per query (raised to k when k is larger).
	DefaultRerank = 64
)

// Config holds the index hyper-parameters. The zero value selects
// defaults scaled to the matrix: NClusters = 2√n, Rerank =
// DefaultRerank, and NProbe calibrated at build time to the smallest
// width whose measured recall@k on a sample of the indexed rows
// reaches TargetRecall (default DefaultTargetRecall).
type Config struct {
	NClusters    int     // coarse-quantizer cells; 0 = 2√n (clamped to [1, n])
	NProbe       int     // cells scanned per query; 0 = recall-calibrated at build
	Rerank       int     // exact re-rank pool per query; 0 = DefaultRerank
	KMeansIters  int     // Lloyd iterations; 0 = DefaultKMeansIters
	SampleSize   int     // k-means training sample; 0 = DefaultSampleSize
	TargetRecall float64 // calibration floor when NProbe == 0; 0 = DefaultTargetRecall
	Seed         uint64  // deterministic k-means seeding and calibration sampling
}

// Package-wide counters: cumulative across every live index so the
// mcbound_index_* collectors stay monotone over model hot-swaps.
var (
	totalProbes   atomic.Int64
	totalReranked atomic.Int64
)

// TotalProbes returns the cluster scans issued by every index in this
// process (the mcbound_index_probes_total collector).
func TotalProbes() int64 { return totalProbes.Load() }

// TotalReranked returns the candidates re-ranked with exact float32
// distances by every index in this process (the
// mcbound_index_rerank_candidates_total collector).
func TotalReranked() int64 { return totalReranked.Load() }

// Stats is a point-in-time snapshot of one index's query counters.
type Stats struct {
	Queries  int64 // Search calls answered
	Probes   int64 // cluster scans issued
	Reranked int64 // candidates re-ranked exactly
	Scanned  int64 // int8 code rows visited
}

// Index is an immutable IVF index over a matrix. Safe for concurrent
// Search; the only mutable knob is the atomic nprobe.
type Index struct {
	dim    int
	n      int
	scale  float32   // symmetric int8 quantization scale (maxabs/127)
	cents  []float32 // nclusters*dim centroid matrix
	starts []int32   // per cluster: offset into members (len nclusters+1)
	member []int32   // row ids grouped by cluster
	codes  []int8    // n*dim quantized rows, original row order
	data   []float32 // n*dim original rows (shared with the caller)

	nprobe atomic.Int32
	rerank int

	queries  atomic.Int64
	probes   atomic.Int64
	reranked atomic.Int64
	scanned  atomic.Int64

	bufs sync.Pool // *searchBuf per-query scratch
}

type searchBuf struct {
	qq    []int8      // quantized query
	cdist []float64   // centroid distances
	probe []int32     // probed cluster ids
	cand  []quantCand // bounded top-R quantized candidates
}

type quantCand struct {
	dist int64
	id   int32
}

// Build fits an IVF index over data (n rows of dim float32s, row-major).
// The data slice is retained for exact re-ranking and must not be
// mutated afterwards. Build fails only on malformed arguments.
func Build(data []float32, dim int, cfg Config) (*Index, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ivf: dim must be positive, got %d", dim)
	}
	if len(data) == 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("ivf: data length %d is not a positive multiple of dim %d", len(data), dim)
	}
	n := len(data) / dim
	k := cfg.NClusters
	if k <= 0 {
		// 2√n cells: halving the per-cell population (vs the classic √n)
		// cuts the rows a calibrated probe must scan by ~30% on the job
		// encodings while the extra centroid-scan cost stays negligible.
		k = 2 * int(math.Sqrt(float64(n)))
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	iters := cfg.KMeansIters
	if iters <= 0 {
		iters = DefaultKMeansIters
	}
	sample := cfg.SampleSize
	if sample <= 0 {
		sample = DefaultSampleSize
	}
	if sample < 4*k {
		sample = 4 * k // enough points per cell to place centroids at all
	}
	if sample > n {
		sample = n
	}

	cents, assign := kmeans(data, dim, n, k, sample, iters, cfg.Seed)

	// Inverted lists over ALL rows, dropping empty cells so every probed
	// cluster is guaranteed to contribute at least one candidate.
	counts := make([]int32, len(cents)/dim)
	for _, c := range assign {
		counts[c]++
	}
	remap := make([]int32, len(counts))
	kept := 0
	for c, ct := range counts {
		if ct == 0 {
			remap[c] = -1
			continue
		}
		copy(cents[kept*dim:(kept+1)*dim], cents[c*dim:(c+1)*dim])
		remap[c] = int32(kept)
		counts[kept] = ct
		kept++
	}
	cents = cents[:kept*dim]
	counts = counts[:kept]

	starts := make([]int32, kept+1)
	for c, ct := range counts {
		starts[c+1] = starts[c] + ct
	}
	member := make([]int32, n)
	next := append([]int32(nil), starts[:kept]...)
	for row, c := range assign {
		nc := remap[c]
		member[next[nc]] = int32(row)
		next[nc]++
	}

	// int8 scalar quantization: one symmetric scale over the matrix.
	scale := linalg.MaxAbs32(data) / 127
	codes := make([]int8, len(data))
	linalg.QuantizeInt8(codes, data, scale)

	ix := &Index{
		dim: dim, n: n, scale: scale,
		cents: cents, starts: starts, member: member,
		codes: codes, data: data,
		rerank: cfg.Rerank,
	}
	if ix.rerank <= 0 {
		ix.rerank = DefaultRerank
	}
	np := cfg.NProbe
	if np <= 0 {
		target := cfg.TargetRecall
		if target <= 0 {
			target = DefaultTargetRecall
		}
		np = ix.calibrateNProbe(target, cfg.Seed)
	}
	if np > kept {
		np = kept
	}
	if np < 1 {
		np = 1
	}
	ix.nprobe.Store(int32(np))
	return ix, nil
}

// Calibration knobs: how the default probe width is chosen at build
// time when Config.NProbe is zero.
const (
	// DefaultTargetRecall is the recall@k floor the calibrated probe
	// width must reach on the held-in calibration sample.
	DefaultTargetRecall = 0.95
	// calibrationQueries rows are sampled from the matrix as calibration
	// queries; calibrationK is the k of the measured recall@k (matching
	// the classifier's typical vote size).
	calibrationQueries = 128
	calibrationK       = 5
)

// calibrateNProbe picks the smallest probe width whose measured
// recall@k against an exact scan reaches target, on a deterministic
// sample of the indexed rows. No fixed fraction of the cells works
// across scales (small indexes need a wide probe, large ones amortize
// it away), so the width is measured, not guessed. Cost: one exact
// kNN pass over calibrationQueries rows (parallel across cores) plus
// O(log nclusters) cheap probe-width evaluations.
func (ix *Index) calibrateNProbe(target float64, seed uint64) int {
	kept := ix.Clusters()
	if kept <= 2 {
		return kept
	}
	// Aim halfway between the target and perfect recall: the width is
	// fitted on a finite sample, and a width that measures exactly the
	// target in-sample dips below it on unseen queries.
	target += (1 - target) / 2
	k := calibrationK
	if k > ix.n {
		k = ix.n
	}
	nq := calibrationQueries
	if nq > ix.n {
		nq = ix.n
	}

	// Deterministic query sample without replacement.
	rng := stats.NewRNG(seed ^ 0xc2b2ae3d27d4eb4f)
	rows := make([]int32, ix.n)
	for i := range rows {
		rows[i] = int32(i)
	}
	for i := 0; i < nq; i++ {
		j := i + rng.Intn(ix.n-i)
		rows[i], rows[j] = rows[j], rows[i]
	}
	rows = rows[:nq]

	// Exact ground truth per query, parallel across cores.
	truth := make([][]int32, nq)
	par.For(nq, func(i int) {
		truth[i] = exactTopK(ix.data, ix.dim, ix.row(int(rows[i])), k)
	})

	recallAt := func(np int) float64 {
		hits, total := 0, 0
		var dst []ml.Candidate
		for i, r := range rows {
			dst = ix.search(ix.row(int(r)), k, np, dst, false)
			for _, want := range truth[i] {
				total++
				for _, got := range dst {
					if int32(got.ID) == want {
						hits++
						break
					}
				}
			}
		}
		return float64(hits) / float64(total)
	}

	// Geometric ladder up to the first passing width, then binary
	// refinement between the last failing and first passing rungs.
	lo, hi := 0, kept
	for np := 2; np < kept; np = np*3/2 + 1 {
		if recallAt(np) >= target {
			hi = np
			break
		}
		lo = np
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if recallAt(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// row returns the i-th row of the indexed matrix.
func (ix *Index) row(i int) []float32 {
	return ix.data[i*ix.dim : (i+1)*ix.dim]
}

// exactTopK is the brute-force reference used by calibration: row ids
// of the k nearest rows under exact squared Euclidean distance.
func exactTopK(data []float32, dim int, q []float32, k int) []int32 {
	type nd struct {
		d  float64
		id int32
	}
	n := len(data) / dim
	if k > n {
		k = n
	}
	top := make([]nd, 0, k)
	worst := math.Inf(1)
	for i := 0; i < n; i++ {
		d := linalg.SqEuclidean(q, data[i*dim:(i+1)*dim])
		if len(top) == k && d >= worst {
			continue
		}
		pos := len(top)
		if pos < k {
			top = append(top, nd{})
		} else {
			pos--
		}
		for pos > 0 && top[pos-1].d > d {
			top[pos] = top[pos-1]
			pos--
		}
		top[pos] = nd{d: d, id: int32(i)}
		worst = top[len(top)-1].d
	}
	out := make([]int32, len(top))
	for i, t := range top {
		out[i] = t.id
	}
	return out
}

// kmeans runs seeded Lloyd iterations on a uniform sample of the rows,
// then assigns every row to its nearest fitted centroid. Returns the
// centroid matrix and the per-row assignment. Deterministic in
// (data, dim, k, sample, iters, seed).
func kmeans(data []float32, dim, n, k, sample, iters int, seed uint64) (cents []float32, assign []int32) {
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)

	// Sample without replacement via partial Fisher-Yates.
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	for i := 0; i < sample; i++ {
		j := i + rng.Intn(n-i)
		rows[i], rows[j] = rows[j], rows[i]
	}
	rows = rows[:sample]

	// Initial centroids: k distinct sampled rows.
	cents = make([]float32, k*dim)
	for c := 0; c < k; c++ {
		copy(cents[c*dim:(c+1)*dim], rowOf(data, dim, int(rows[c%len(rows)])))
	}

	sampleAssign := make([]int32, sample)
	sums := make([]float64, k*dim)
	counts := make([]int64, k)
	for it := 0; it < iters; it++ {
		assignRows(data, dim, rows, cents, sampleAssign)

		for i := range sums {
			sums[i] = 0
		}
		for c := range counts {
			counts[c] = 0
		}
		for i, c := range sampleAssign {
			row := rowOf(data, dim, int(rows[i]))
			s := sums[int(c)*dim : (int(c)+1)*dim]
			for d, v := range row {
				s[d] += float64(v)
			}
			counts[c]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed a dead centroid on a random sampled row so k
				// cells stay in play while fitting.
				copy(cents[c*dim:(c+1)*dim], rowOf(data, dim, int(rows[rng.Intn(sample)])))
				continue
			}
			inv := 1 / float64(counts[c])
			cc := cents[c*dim : (c+1)*dim]
			s := sums[c*dim : (c+1)*dim]
			for d := range cc {
				cc[d] = float32(s[d] * inv)
			}
		}
	}

	// Final assignment of every row to the fitted centroids.
	assign = make([]int32, n)
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	assignRows(data, dim, all, cents, assign)
	return cents, assign
}

// assignRows writes the nearest-centroid id of each listed row into
// out, fanned out with par.For.
func assignRows(data []float32, dim int, rows []int32, cents []float32, out []int32) {
	k := len(cents) / dim
	par.For(len(rows), func(i int) {
		row := rowOf(data, dim, int(rows[i]))
		best, bestD := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			d := linalg.SqEuclidean(row, cents[c*dim:(c+1)*dim])
			if d < bestD {
				best, bestD = c, d
			}
		}
		out[i] = int32(best)
	})
}

func rowOf(data []float32, dim, row int) []float32 {
	return data[row*dim : (row+1)*dim]
}

// Len implements ml.VectorIndex.
func (ix *Index) Len() int { return ix.n }

// Dim implements ml.VectorIndex.
func (ix *Index) Dim() int { return ix.dim }

// Clusters returns the number of (non-empty) coarse-quantizer cells.
func (ix *Index) Clusters() int { return len(ix.starts) - 1 }

// NProbe returns the current cells-per-query knob.
func (ix *Index) NProbe() int { return int(ix.nprobe.Load()) }

// SetNProbe adjusts the cells scanned per query (clamped to
// [1, Clusters]) without rebuilding — the live accuracy/latency dial.
func (ix *Index) SetNProbe(n int) {
	if n < 1 {
		n = 1
	}
	if c := ix.Clusters(); n > c {
		n = c
	}
	ix.nprobe.Store(int32(n))
}

// Rerank returns the exact re-rank pool size per query.
func (ix *Index) Rerank() int { return ix.rerank }

// Stats snapshots this index's query counters.
func (ix *Index) Stats() Stats {
	return Stats{
		Queries:  ix.queries.Load(),
		Probes:   ix.probes.Load(),
		Reranked: ix.reranked.Load(),
		Scanned:  ix.scanned.Load(),
	}
}

// Search implements ml.VectorIndex: quantize the query, scan the nprobe
// nearest cells over int8 codes keeping a bounded top-R pool, then
// re-rank the pool with exact float32 distances and return the top k.
func (ix *Index) Search(q []float32, k int, dst []ml.Candidate) []ml.Candidate {
	return ix.search(q, k, int(ix.nprobe.Load()), dst, true)
}

// search is Search with an explicit probe width and optional telemetry:
// build-time calibration probes candidate widths without polluting the
// query counters.
func (ix *Index) search(q []float32, k, nprobe int, dst []ml.Candidate, count bool) []ml.Candidate {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	if len(q) != ix.dim {
		panic(fmt.Sprintf("ivf: query dim %d, index dim %d", len(q), ix.dim))
	}
	if k > ix.n {
		k = ix.n
	}
	nclusters := ix.Clusters()
	pool := ix.rerank
	if pool < k {
		pool = k
	}

	b, _ := ix.bufs.Get().(*searchBuf)
	if b == nil {
		b = &searchBuf{qq: make([]int8, ix.dim), cdist: make([]float64, nclusters)}
	}
	defer ix.bufs.Put(b)

	// Exact centroid distances, then the nprobe nearest cells.
	if cap(b.cdist) < nclusters {
		b.cdist = make([]float64, nclusters)
	}
	cdist := b.cdist[:nclusters]
	for c := 0; c < nclusters; c++ {
		cdist[c] = linalg.SqEuclidean(q, ix.cents[c*ix.dim:(c+1)*ix.dim])
	}
	b.probe = selectNearestClusters(cdist, nprobe, b.probe[:0])

	// Quantized scan of the probed cells with a bounded top-pool.
	linalg.QuantizeInt8(b.qq, q, ix.scale)
	if cap(b.cand) < pool {
		b.cand = make([]quantCand, 0, pool)
	}
	cand := b.cand[:0]
	worst := int64(math.MaxInt64)
	scanned, probed := 0, 0
	// Scan budget: cells are probed nearest-centroid first, and a query
	// landing amid oversized cells stops at 1.25× the expected nprobe
	// population (once k candidates exist) instead of blowing the tail
	// latency. Calibration measures recall with the budget in force.
	budget := nprobe * ((ix.n + nclusters - 1) / nclusters) * 5 / 4
	for _, c := range b.probe {
		for _, id := range ix.member[ix.starts[c]:ix.starts[c+1]] {
			d := linalg.SqDistInt8(b.qq, ix.codes[int(id)*ix.dim:(int(id)+1)*ix.dim])
			if len(cand) == pool && d >= worst {
				continue
			}
			pos := len(cand)
			if pos < pool {
				cand = append(cand, quantCand{})
			} else {
				pos--
			}
			for pos > 0 && cand[pos-1].dist > d {
				cand[pos] = cand[pos-1]
				pos--
			}
			cand[pos] = quantCand{dist: d, id: id}
			worst = cand[len(cand)-1].dist
		}
		scanned += int(ix.starts[c+1] - ix.starts[c])
		probed++
		if scanned >= budget && len(cand) >= k {
			break
		}
	}
	b.cand = cand

	// Exact re-rank of the pool; bounded top-k insertion into dst.
	for _, qc := range cand {
		d := linalg.SqEuclidean(q, ix.data[int(qc.id)*ix.dim:(int(qc.id)+1)*ix.dim])
		if len(dst) == k && d >= dst[len(dst)-1].Dist {
			continue
		}
		pos := len(dst)
		if pos < k {
			dst = append(dst, ml.Candidate{})
		} else {
			pos--
		}
		for pos > 0 && dst[pos-1].Dist > d {
			dst[pos] = dst[pos-1]
			pos--
		}
		dst[pos] = ml.Candidate{ID: int(qc.id), Dist: d}
	}

	if count {
		ix.queries.Add(1)
		ix.probes.Add(int64(probed))
		ix.reranked.Add(int64(len(cand)))
		ix.scanned.Add(int64(scanned))
		totalProbes.Add(int64(probed))
		totalReranked.Add(int64(len(cand)))
	}
	return dst
}

// selectNearestClusters appends the ids of the nprobe smallest
// distances into dst (ascending by distance) via bounded insertion.
func selectNearestClusters(cdist []float64, nprobe int, dst []int32) []int32 {
	if nprobe > len(cdist) {
		nprobe = len(cdist)
	}
	type cd struct {
		d float64
		c int32
	}
	top := make([]cd, 0, nprobe)
	worst := math.Inf(1)
	for c, d := range cdist {
		if len(top) == nprobe && d >= worst {
			continue
		}
		pos := len(top)
		if pos < nprobe {
			top = append(top, cd{})
		} else {
			pos--
		}
		for pos > 0 && top[pos-1].d > d {
			top[pos] = top[pos-1]
			pos--
		}
		top[pos] = cd{d: d, c: int32(c)}
		worst = top[len(top)-1].d
	}
	for _, t := range top {
		dst = append(dst, t.c)
	}
	return dst
}

// ErrCorruptIndex is wrapped by Load on any malformed index section.
var ErrCorruptIndex = errors.New("ivf: corrupt index section")

// Sanity caps for deserialized headers: reject before multiplying, so
// adversarial sizes cannot overflow into small allocations.
const (
	maxDim      = 1 << 16
	maxClusters = 1 << 24
)

// AppendBinary serializes the index structure (everything except the
// float32 data matrix, which the owner serializes once) onto buf.
// Layout, all little-endian:
//
//	nclusters int32 | nprobe int32 | rerank int32 | scale float32
//	centroids [nclusters*dim]float32
//	starts    [nclusters+1]int32
//	member    [n]int32
//	codes     [n*dim]int8
func (ix *Index) AppendBinary(buf *bytes.Buffer) {
	w := func(v any) { binary.Write(buf, binary.LittleEndian, v) }
	w(int32(ix.Clusters()))
	w(ix.nprobe.Load())
	w(int32(ix.rerank))
	w(ix.scale)
	w(ix.cents)
	w(ix.starts)
	w(ix.member)
	w(ix.codes)
}

// Load deserializes an index section written by AppendBinary, attaching
// it to the caller's data matrix (n rows of dim float32s, retained for
// re-ranking). Every structural invariant is re-validated: cluster
// offsets must be monotone and cover exactly n member ids, and every
// row id must appear exactly once — a corrupted section yields a typed
// error, never a panic or an index that can read out of bounds.
func Load(r *bytes.Reader, data []float32, dim int) (*Index, error) {
	if dim <= 0 || dim > maxDim || len(data)%dim != 0 {
		return nil, fmt.Errorf("%w: bad data matrix %d×%d", ErrCorruptIndex, len(data), dim)
	}
	n := len(data) / dim
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var nclusters, nprobe, rerank int32
	var scale float32
	for _, v := range []any{&nclusters, &nprobe, &rerank, &scale} {
		if err := rd(v); err != nil {
			return nil, fmt.Errorf("%w: truncated header", ErrCorruptIndex)
		}
	}
	if nclusters < 1 || int(nclusters) > maxClusters || int(nclusters) > n {
		return nil, fmt.Errorf("%w: %d clusters over %d rows", ErrCorruptIndex, nclusters, n)
	}
	if nprobe < 1 || nprobe > nclusters {
		return nil, fmt.Errorf("%w: nprobe %d of %d clusters", ErrCorruptIndex, nprobe, nclusters)
	}
	if rerank < 1 || int(rerank) > maxClusters {
		return nil, fmt.Errorf("%w: rerank %d", ErrCorruptIndex, rerank)
	}
	if math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) || scale < 0 {
		return nil, fmt.Errorf("%w: quantization scale %v", ErrCorruptIndex, scale)
	}
	// nclusters ≤ 2^24 and dim ≤ 2^16: the products below fit in int64
	// with room to spare, and the reads fail fast on truncation.
	cents := make([]float32, int(nclusters)*dim)
	if err := rd(cents); err != nil {
		return nil, fmt.Errorf("%w: truncated centroids", ErrCorruptIndex)
	}
	for _, v := range cents {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return nil, fmt.Errorf("%w: non-finite centroid", ErrCorruptIndex)
		}
	}
	starts := make([]int32, int(nclusters)+1)
	if err := rd(starts); err != nil {
		return nil, fmt.Errorf("%w: truncated cluster offsets", ErrCorruptIndex)
	}
	if starts[0] != 0 || int(starts[nclusters]) != n {
		return nil, fmt.Errorf("%w: cluster offsets cover %d of %d rows", ErrCorruptIndex, starts[nclusters], n)
	}
	for c := 0; c < int(nclusters); c++ {
		if starts[c+1] <= starts[c] { // empty cells are dropped at build
			return nil, fmt.Errorf("%w: non-increasing cluster offsets", ErrCorruptIndex)
		}
	}
	member := make([]int32, n)
	if err := rd(member); err != nil {
		return nil, fmt.Errorf("%w: truncated member list", ErrCorruptIndex)
	}
	seen := make([]bool, n)
	for _, id := range member {
		if id < 0 || int(id) >= n || seen[id] {
			return nil, fmt.Errorf("%w: bad member row id %d", ErrCorruptIndex, id)
		}
		seen[id] = true
	}
	codes := make([]int8, n*dim)
	if err := rd(codes); err != nil {
		return nil, fmt.Errorf("%w: truncated codes", ErrCorruptIndex)
	}
	ix := &Index{
		dim: dim, n: n, scale: scale,
		cents: cents, starts: starts, member: member,
		codes: codes, data: data, rerank: int(rerank),
	}
	ix.nprobe.Store(nprobe)
	return ix, nil
}
