package rf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/par"
	"mcbound/internal/stats"
)

// Config holds the forest hyper-parameters. Defaults track the
// scikit-learn RandomForestClassifier defaults the paper relies on
// (100 trees, sqrt(features) per split, nodes expanded until pure),
// with a histogram resolution knob.
type Config struct {
	NumTrees        int // default 100
	MaxDepth        int // 0 = unlimited
	MinSamplesSplit int // default 2
	MinSamplesLeaf  int // default 1
	MaxFeatures     int // 0 = floor(sqrt(dim))
	Bins            int // histogram resolution, default 32
	Seed            uint64
}

// DefaultConfig returns the scikit-learn-equivalent defaults.
func DefaultConfig() Config {
	return Config{
		NumTrees:        100,
		MinSamplesSplit: 2,
		MinSamplesLeaf:  1,
		Bins:            32,
		Seed:            1,
	}
}

// Classifier is a Random Forest model. The zero value is unusable; use
// New.
type Classifier struct {
	cfg Config

	mu    sync.RWMutex
	dim   int
	trees []tree
}

// New builds an untrained forest. Non-positive config fields fall back to
// the defaults.
func New(cfg Config) *Classifier {
	def := DefaultConfig()
	if cfg.NumTrees <= 0 {
		cfg.NumTrees = def.NumTrees
	}
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = def.MinSamplesSplit
	}
	if cfg.MinSamplesLeaf <= 0 {
		cfg.MinSamplesLeaf = def.MinSamplesLeaf
	}
	if cfg.Bins <= 1 || cfg.Bins > 256 {
		cfg.Bins = def.Bins
	}
	return &Classifier{cfg: cfg}
}

// Name implements ml.Classifier.
func (c *Classifier) Name() string { return "rf" }

// Config returns the model's hyper-parameters.
func (c *Classifier) Config() Config { return c.cfg }

// NumTrees returns the number of fitted trees (0 before training).
func (c *Classifier) NumTrees() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.trees)
}

// Train implements ml.Classifier: it quantizes the data once, then grows
// each tree on an independent bootstrap sample. Trees are grown in
// parallel with par.For; every tree's randomness derives from the forest
// seed so training is deterministic regardless of scheduling.
func (c *Classifier) Train(x [][]float32, y []job.Label) error {
	if err := ml.CheckTrainingData(x, y); err != nil {
		return err
	}
	// Drop unlabeled rows: the characterizer may have skipped some jobs.
	xs := make([][]float32, 0, len(x))
	classes := make([]int8, 0, len(y))
	for i, l := range y {
		if l == job.Unknown {
			continue
		}
		xs = append(xs, x[i])
		classes = append(classes, int8(classIndex(l)))
	}
	if len(xs) == 0 {
		return fmt.Errorf("rf: no labeled training rows")
	}

	dim := len(xs[0])
	cfg := c.cfg
	if cfg.MaxFeatures <= 0 || cfg.MaxFeatures > dim {
		cfg.MaxFeatures = int(math.Sqrt(float64(dim)))
		if cfg.MaxFeatures < 1 {
			cfg.MaxFeatures = 1
		}
	}
	if cfg.MaxDepth <= 0 {
		// "Unlimited" with a hard safety cap: beyond ~2^24 samples no
		// real split path is longer than this.
		cfg.MaxDepth = 40
	}

	binr := newBinner(xs, cfg.Bins)
	binned := binr.quantize(xs)

	trees := make([]tree, cfg.NumTrees)
	master := stats.NewRNG(cfg.Seed)
	seeds := make([]uint64, cfg.NumTrees)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	// Each tree draws only from its own pre-drawn seed, so the forest is
	// identical however par.For schedules the trees.
	par.For(cfg.NumTrees, func(t int) {
		rng := stats.NewRNG(seeds[t])
		idx := make([]int, len(xs))
		for i := range idx {
			idx[i] = rng.Intn(len(xs)) // bootstrap with replacement
		}
		tb := &treeBuilder{
			cfg:     cfg,
			dim:     dim,
			binned:  binned,
			classes: classes,
			binr:    binr,
			rng:     rng,
			idx:     idx,
		}
		trees[t] = tb.build()
	})

	c.mu.Lock()
	c.dim, c.trees = dim, trees
	c.mu.Unlock()
	return nil
}

// Predict implements ml.Classifier: majority vote across trees, ties
// resolved to memory-bound (the majority class of the domain). Queries
// are fanned out with par.For; a single query runs inline.
func (c *Classifier) Predict(x [][]float32) ([]job.Label, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.trees) == 0 {
		return nil, ml.ErrNotTrained
	}
	for i, v := range x {
		if len(v) != c.dim {
			return nil, fmt.Errorf("rf: query %d has dim %d, want %d", i, len(v), c.dim)
		}
	}
	out := make([]job.Label, len(x))
	par.For(len(x), func(i int) {
		votes := [numClasses]int{}
		for t := range c.trees {
			votes[c.trees[t].predict(x[i])]++
		}
		if votes[1] > votes[0] {
			out[i] = classLabel(1)
		} else {
			out[i] = classLabel(0)
		}
	})
	return out, nil
}

const marshalMagic = "MCBRF001"

// MarshalBinary serializes the trained forest.
func (c *Classifier) MarshalBinary() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var buf bytes.Buffer
	buf.WriteString(marshalMagic)
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	w(int64(c.dim))
	w(int64(len(c.trees)))
	for _, t := range c.trees {
		w(int64(len(t.Nodes)))
		for _, nd := range t.Nodes {
			w(nd.Feature)
			w(nd.Threshold)
			w(nd.Left)
			w(nd.Right)
			w(nd.Class)
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a forest serialized by MarshalBinary.
func (c *Classifier) UnmarshalBinary(b []byte) error {
	buf := bytes.NewReader(b)
	magic := make([]byte, len(marshalMagic))
	if _, err := buf.Read(magic); err != nil || string(magic) != marshalMagic {
		return fmt.Errorf("rf: bad model header")
	}
	r := func(v any) error { return binary.Read(buf, binary.LittleEndian, v) }
	var dim, ntrees int64
	if err := r(&dim); err != nil {
		return fmt.Errorf("rf: %w", err)
	}
	if err := r(&ntrees); err != nil {
		return fmt.Errorf("rf: %w", err)
	}
	if dim <= 0 || ntrees <= 0 || ntrees > 1<<20 {
		return fmt.Errorf("rf: corrupt model dimensions")
	}
	trees := make([]tree, ntrees)
	for t := range trees {
		var nn int64
		if err := r(&nn); err != nil {
			return fmt.Errorf("rf: tree %d: %w", t, err)
		}
		if nn <= 0 || nn > int64(len(b)) {
			return fmt.Errorf("rf: tree %d: corrupt node count", t)
		}
		nodes := make([]node, nn)
		for i := range nodes {
			nd := &nodes[i]
			if err := r(&nd.Feature); err != nil {
				return fmt.Errorf("rf: %w", err)
			}
			r(&nd.Threshold)
			r(&nd.Left)
			r(&nd.Right)
			if err := r(&nd.Class); err != nil {
				return fmt.Errorf("rf: %w", err)
			}
		}
		trees[t].Nodes = nodes
	}
	c.mu.Lock()
	c.dim, c.trees = int(dim), trees
	c.mu.Unlock()
	return nil
}
