// Package core wires the four MCBound components — Data Fetcher, Feature
// Encoder, Job Characterizer and Classification Model — into the two
// CI/CD workflows of the paper's Figure 1: the Training Workflow
// (periodic retraining on recent data) and the Inference Workflow
// (classification of newly submitted jobs before execution).
//
// The serving path is lock-free: the currently deployed model, its
// version and its training instant live in one immutable modelState
// published through an atomic pointer, so a retrain never blocks a
// classification and a classification always observes a consistent
// (model, version, trained-at) triple. Overlapping Training Workflow
// triggers are single-flighted: the first caller trains, later callers
// wait for — and share — its result instead of racing a second fit.
package core

import (
	"context"
	"encoding"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcbound/internal/encode"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/baseline"
	"mcbound/internal/ml/knn"
	"mcbound/internal/ml/rf"
	"mcbound/internal/persist"
	"mcbound/internal/roofline"
)

// ErrNotTrained is the sentinel returned by inference before the first
// successful Training Workflow; callers branch with errors.Is (the HTTP
// layer maps it to 503).
var ErrNotTrained = errors.New("core: no trained model (run the Training Workflow first)")

// ModelKind selects the Classification Model algorithm.
type ModelKind string

// Supported algorithms.
const (
	ModelKNN ModelKind = "knn"
	ModelRF  ModelKind = "rf"
)

// Config configures a Framework deployment for a target system.
type Config struct {
	// Machine provides the per-node peaks the Job Characterizer needs;
	// defaults to Fugaku.
	Machine job.MachineSpec

	// Features is the encoder's feature subset; nil selects the paper's
	// augmented set.
	Features []encode.Feature

	// Model picks the algorithm; KNN/RF hold its hyper-parameters.
	Model ModelKind
	KNN   knn.Config
	RF    rf.Config

	// ModelFactory, when non-nil, overrides Model/KNN/RF: every Training
	// Workflow trigger calls it for the fresh Classifier instance it
	// fits. It is the injection seam for custom algorithms and for the
	// concurrency tests, which need gated or instrumented models.
	ModelFactory func() (ml.Classifier, error)

	// Alpha is the training window (days of recent executed jobs);
	// Beta the retraining period in days.
	Alpha, Beta int

	// ModelDir, when non-empty, enables versioned model persistence.
	ModelDir string
}

// DefaultConfig returns the Fugaku deployment settings the paper
// concludes with: RF with α=15, β=1.
func DefaultConfig() Config {
	return Config{
		Machine: job.FugakuSpec(),
		Model:   ModelRF,
		KNN:     knn.DefaultConfig(),
		RF:      rf.DefaultConfig(),
		Alpha:   15,
		Beta:    1,
	}
}

// modelState is the immutable snapshot the Inference Workflow serves
// from. A retrain builds a whole new state and publishes it with one
// atomic store, so readers can never observe a torn (model, version)
// pair or a model that has not finished fitting.
type modelState struct {
	model     ml.Classifier
	trained   bool
	version   int // registry version, 0 when persistence is disabled
	trainedAt time.Time

	// fallback is the (job name, #cores) lookup baseline fitted on the
	// last labeled window while no vector model has ever trained. It is
	// the degraded-serving net: a Training Workflow whose model fit
	// failed still leaves the framework able to answer inference.
	fallback ml.JobClassifier
}

// trainCall is one in-flight Training Workflow execution shared by
// coalesced callers.
type trainCall struct {
	done chan struct{} // closed when rep/err are final
	rep  *TrainReport
	err  error
}

// Framework is a deployed MCBound instance.
type Framework struct {
	cfg           Config
	fetcher       *fetch.Fetcher
	encoder       *encode.Encoder
	characterizer *roofline.Characterizer
	registry      *persist.Registry

	// state is the hot-swapped serving snapshot; never nil after New.
	state atomic.Pointer[modelState]

	// trainMu guards inflight (the single-flight slot). It is never held
	// while fetching, characterizing, encoding or fitting — only for the
	// pointer bookkeeping around a trigger.
	trainMu    sync.Mutex
	inflight   *trainCall
	inflightN  atomic.Int32 // 0 or 1; sampled by the train-inflight gauge
	coalescedN atomic.Int64 // triggers absorbed by an in-flight train
	degradedN  atomic.Int64 // predictions served by the lookup fallback

	// indexOv holds runtime overrides of the KNN index switch (set via
	// /v1/train or the -index/-nprobe flags); nil means the deployment
	// config applies unchanged. Future trains merge it into their model
	// config; the nprobe part is also applied to the live model at once.
	indexOv atomic.Pointer[indexOverride]
}

// indexOverride is one immutable override snapshot.
type indexOverride struct {
	mode   knn.IndexMode // "" = leave configured mode
	nprobe int           // 0 = leave configured nprobe
}

// New builds a Framework over a jobs-data-storage backend.
func New(cfg Config, backend fetch.Backend) (*Framework, error) {
	if cfg.Machine.PeakGFlops == 0 {
		cfg.Machine = job.FugakuSpec()
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 15
	}
	if cfg.Beta <= 0 {
		cfg.Beta = 1
	}
	f, err := fetch.New(backend)
	if err != nil {
		return nil, err
	}
	model, err := buildModel(cfg)
	if err != nil {
		return nil, err
	}
	fw := &Framework{
		cfg:           cfg,
		fetcher:       f,
		encoder:       encode.NewEncoder(cfg.Features, nil),
		characterizer: roofline.NewCharacterizer(roofline.ModelFor(cfg.Machine)),
	}
	// The pre-training state carries an unfitted instance so ModelInfo
	// can report the algorithm name before the first swap.
	fw.state.Store(&modelState{model: model})
	if cfg.ModelDir != "" {
		reg, err := persist.NewRegistry(cfg.ModelDir)
		if err != nil {
			return nil, err
		}
		fw.registry = reg
	}
	return fw, nil
}

func buildModel(cfg Config) (ml.Classifier, error) {
	if cfg.ModelFactory != nil {
		return cfg.ModelFactory()
	}
	switch cfg.Model {
	case ModelKNN:
		return knn.New(cfg.KNN), nil
	case ModelRF, "":
		return rf.New(cfg.RF), nil
	default:
		return nil, fmt.Errorf("core: unknown model kind %q", cfg.Model)
	}
}

// Config returns the deployment configuration.
func (f *Framework) Config() Config { return f.cfg }

// CheckIndexOptions reports whether SetIndexOptions would accept mode
// and nprobe, without applying them.
func CheckIndexOptions(mode string, nprobe int) error {
	switch knn.IndexMode(mode) {
	case "", knn.IndexAuto, knn.IndexOn, knn.IndexOff:
	default:
		return fmt.Errorf("core: index mode %q (want auto, on or off)", mode)
	}
	if nprobe < 0 {
		return fmt.Errorf("core: nprobe %d must be non-negative", nprobe)
	}
	return nil
}

// SetIndexOptions overrides the KNN index switch at runtime: mode must
// be "", "auto", "on" or "off" ("" leaves the configured mode); nprobe
// adjusts the cells-scanned-per-query knob (0 leaves it). The mode takes
// effect on the next Training Workflow; nprobe is additionally applied
// to the currently served model immediately when it carries an index.
func (f *Framework) SetIndexOptions(mode string, nprobe int) error {
	if err := CheckIndexOptions(mode, nprobe); err != nil {
		return err
	}
	prev := f.indexOv.Load()
	ov := indexOverride{}
	if prev != nil {
		ov = *prev
	}
	if mode != "" {
		ov.mode = knn.IndexMode(mode)
	}
	if nprobe > 0 {
		ov.nprobe = nprobe
	}
	f.indexOv.Store(&ov)
	if nprobe > 0 {
		if ix, ok := f.state.Load().model.(ml.Indexed); ok {
			ix.SetNProbe(nprobe)
		}
	}
	return nil
}

// IndexInfo snapshots the served model's search structure (zero value
// when the model is brute-force or not index-capable).
func (f *Framework) IndexInfo() ml.IndexInfo {
	if ix, ok := f.state.Load().model.(ml.Indexed); ok {
		return ix.IndexInfo()
	}
	return ml.IndexInfo{}
}

// modelConfig merges the runtime index override into the deployment
// config for the next model build.
func (f *Framework) modelConfig() Config {
	cfg := f.cfg
	if ov := f.indexOv.Load(); ov != nil {
		if ov.mode != "" {
			cfg.KNN.Index.Mode = ov.mode
		}
		if ov.nprobe > 0 {
			cfg.KNN.Index.NProbe = ov.nprobe
		}
	}
	return cfg
}

// Characterizer exposes the Job Characterizer (for analysis use).
func (f *Framework) Characterizer() *roofline.Characterizer { return f.characterizer }

// Encoder exposes the Feature Encoder.
func (f *Framework) Encoder() *encode.Encoder { return f.encoder }

// Fetcher exposes the Data Fetcher.
func (f *Framework) Fetcher() *fetch.Fetcher { return f.fetcher }

// TrainReport summarizes one Training Workflow execution.
type TrainReport struct {
	WindowStart, WindowEnd time.Time
	FetchedJobs            int
	LabeledJobs            int
	SkippedJobs            int
	QuarantinedJobs        int // jobs dropped for pathological PMU counters (NaN/Inf/negative)
	TrainDuration          time.Duration
	ModelVersion           int // 0 when persistence is disabled

	// Coalesced marks a trigger that arrived while another train was in
	// flight and therefore shares that train's result instead of having
	// fitted a model itself.
	Coalesced bool
}

// TrainingInFlight reports whether a Training Workflow is currently
// executing (sampled by the mcbound_train_inflight gauge).
func (f *Framework) TrainingInFlight() bool { return f.inflightN.Load() > 0 }

// CoalescedTrains returns how many triggers were absorbed by an
// in-flight train instead of fitting their own model.
func (f *Framework) CoalescedTrains() int64 { return f.coalescedN.Load() }

// Train runs the Training Workflow as of now: fetch the jobs executed in
// the last α days, characterize them, encode them and train a fresh
// Classification Model instance entirely outside any lock, then publish
// it with an atomic hot-swap, saving it to the registry when configured.
//
// Overlapping triggers coalesce: if a train is already in flight the
// call waits for it and returns its report with Coalesced set, so a slow
// retrain under a burst of /v1/train requests and cron ticks fits one
// model, not one per trigger. The context bounds the fetch, is
// re-checked between the expensive phases, and also bounds a coalesced
// caller's wait.
func (f *Framework) Train(ctx context.Context, now time.Time) (*TrainReport, error) {
	f.trainMu.Lock()
	if c := f.inflight; c != nil {
		f.trainMu.Unlock()
		f.coalescedN.Add(1)
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("core: train coalesced wait: %w", ctx.Err())
		}
		if c.err != nil {
			return c.rep, c.err
		}
		rep := *c.rep
		rep.Coalesced = true
		return &rep, nil
	}
	c := &trainCall{done: make(chan struct{})}
	f.inflight = c
	f.inflightN.Store(1)
	f.trainMu.Unlock()

	c.rep, c.err = f.train(ctx, now)

	f.trainMu.Lock()
	f.inflight = nil
	f.inflightN.Store(0)
	f.trainMu.Unlock()
	close(c.done)
	return c.rep, c.err
}

// train is the single-flighted Training Workflow body. It holds no lock:
// the only synchronization with the serving path is the final atomic
// publish.
func (f *Framework) train(ctx context.Context, now time.Time) (*TrainReport, error) {
	start := now.AddDate(0, 0, -f.cfg.Alpha)
	window, err := f.fetcher.FetchExecuted(ctx, start, now)
	if err != nil {
		return nil, fmt.Errorf("core: training fetch: %w", err)
	}
	rep := &TrainReport{WindowStart: start, WindowEnd: now, FetchedJobs: len(window)}

	labeled, skipped, quarantined := f.characterizer.GenerateLabels(window)
	rep.LabeledJobs, rep.SkippedJobs, rep.QuarantinedJobs = labeled, skipped, quarantined

	jobs := make([]*job.Job, 0, labeled)
	labels := make([]job.Label, 0, labeled)
	for _, j := range window {
		if j.TrueLabel != job.Unknown {
			jobs = append(jobs, j)
			labels = append(labels, j.TrueLabel)
		}
	}
	if len(jobs) == 0 {
		return rep, fmt.Errorf("core: no characterizable jobs in [%v, %v)", start, now)
	}

	if err := ctx.Err(); err != nil {
		return rep, fmt.Errorf("core: train canceled: %w", err)
	}

	// Before the first successful vector fit, also fit the lookup
	// baseline on this window: if the model fit below fails, inference
	// can still answer (degraded) instead of returning ErrNotTrained.
	cur := f.state.Load()
	var fallback ml.JobClassifier
	if !cur.trained {
		fb := baseline.New()
		if err := fb.TrainJobs(jobs, labels); err == nil {
			fallback = fb
		}
	}

	model, err := buildModel(f.modelConfig()) // fresh instance per trigger
	if err != nil {
		f.publishFallback(cur, fallback)
		return rep, err
	}
	enc := f.encoder.Encode(jobs)
	t0 := time.Now()
	if err := model.Train(enc, labels); err != nil {
		f.publishFallback(cur, fallback)
		return rep, fmt.Errorf("core: train: %w", err)
	}
	rep.TrainDuration = time.Since(t0)

	// Persistence failures degrade durability, not serving: the fresh
	// model is published either way and the error is surfaced so the
	// operator learns the registry is unwritable.
	var persistErr error
	if f.registry != nil {
		if pm, ok := model.(persist.Model); !ok {
			persistErr = fmt.Errorf("core: model %s is not persistable", model.Name())
		} else if v, err := f.registry.Save(model.Name(), pm); err != nil {
			persistErr = err
		} else {
			rep.ModelVersion = v
		}
	}

	f.state.Store(&modelState{
		model: model, trained: true,
		version: rep.ModelVersion, trainedAt: now,
	})
	return rep, persistErr
}

// publishFallback installs the lookup baseline as the serving net after
// a failed fit, but only while no vector model has ever trained — a
// trained snapshot always beats the baseline (stale beats degraded).
func (f *Framework) publishFallback(cur *modelState, fallback ml.JobClassifier) {
	if cur.trained || fallback == nil {
		return
	}
	// CAS, not Store: a concurrent LoadLatest may have restored a real
	// model since cur was read, and that always wins over the baseline.
	f.state.CompareAndSwap(cur, &modelState{
		model: cur.model, fallback: fallback,
		version: cur.version, trainedAt: cur.trainedAt,
	})
}

// LoadReport summarizes a crash-recovery load: which version is now
// serving and which stored versions were skipped as corrupted.
type LoadReport struct {
	Version     int
	Quarantined []int
}

// LoadLatest restores the newest valid persisted model instead of
// training, e.g. after a restart. Corrupted or truncated version files
// are skipped (and reported as quarantined) so one bad write cannot
// block recovery. It fails when persistence is disabled or no stored
// version unmarshals.
func (f *Framework) LoadLatest() (*LoadReport, error) {
	if f.registry == nil {
		return nil, fmt.Errorf("core: persistence disabled")
	}
	probe, err := buildModel(f.cfg)
	if err != nil {
		return nil, err
	}
	if _, ok := probe.(persist.Model); !ok {
		return nil, fmt.Errorf("core: model %s is not persistable", probe.Name())
	}
	loaded, v, quarantined, err := f.registry.LoadLatestValid(probe.Name(), func() (encoding.BinaryUnmarshaler, error) {
		m, err := buildModel(f.cfg)
		if err != nil {
			return nil, err
		}
		return m.(persist.Model), nil
	})
	rep := &LoadReport{Version: v, Quarantined: quarantined}
	if err != nil {
		return rep, err
	}
	f.state.Store(&modelState{
		model: loaded.(ml.Classifier), trained: true,
		version: v, trainedAt: time.Now().UTC(),
	})
	return rep, nil
}

// Prediction pairs a job with its predicted class and the version of the
// model that produced it. Degraded marks predictions served by the
// lookup fallback while no vector model was available.
type Prediction struct {
	JobID        string    `json:"job_id"`
	Label        job.Label `json:"-"`
	Class        string    `json:"class"`
	ModelVersion int       `json:"model_version"`
	Degraded     bool      `json:"degraded,omitempty"`
}

// Trained reports whether a model instance is available for inference.
func (f *Framework) Trained() bool { return f.state.Load().trained }

// Ready reports whether inference can answer at all: a trained vector
// model or, degraded, the lookup fallback.
func (f *Framework) Ready() bool {
	st := f.state.Load()
	return st.trained || st.fallback != nil
}

// Degraded reports whether inference is being served by the lookup
// fallback because no vector model has ever trained.
func (f *Framework) Degraded() bool {
	st := f.state.Load()
	return !st.trained && st.fallback != nil
}

// DegradedPredictions returns how many predictions the lookup fallback
// has served (sampled by the mcbound_classify_degraded gauge).
func (f *Framework) DegradedPredictions() int64 { return f.degradedN.Load() }

// ModelAge returns the age of the served model snapshot relative to
// now; ok is false while no model has ever trained (the
// mcbound_model_staleness_seconds gauge then reads 0).
func (f *Framework) ModelAge(now time.Time) (age time.Duration, ok bool) {
	st := f.state.Load()
	if !st.trained {
		return 0, false
	}
	return now.Sub(st.trainedAt), true
}

// ModelInfo describes the currently served model. The triple comes from
// one atomic snapshot, so it is always internally consistent even while
// a retrain is publishing.
func (f *Framework) ModelInfo() (name string, version int, trainedAt time.Time) {
	st := f.state.Load()
	return st.model.Name(), st.version, st.trainedAt
}

// ClassifyJobs runs the Inference Workflow on explicit job records
// (e.g. just-submitted jobs pushed by the scheduler hook). The batch is
// encoded, then predicted; each stage fans the whole batch out once
// itself (see internal/par), and ctx is checked between them. Result
// order matches input order, and every prediction in the batch comes
// from the same model snapshot.
func (f *Framework) ClassifyJobs(ctx context.Context, jobs []*job.Job) ([]Prediction, error) {
	st := f.state.Load()
	if !st.trained && st.fallback == nil {
		return nil, ErrNotTrained
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !st.trained {
		// Degraded mode: no vector model has ever trained; answer from
		// the (job name, #cores) lookup baseline rather than 503.
		labels, err := st.fallback.PredictJobs(jobs)
		if err != nil {
			return nil, fmt.Errorf("core: fallback predict: %w", err)
		}
		f.degradedN.Add(int64(len(jobs)))
		out := make([]Prediction, len(jobs))
		for i, j := range jobs {
			out[i] = Prediction{
				JobID: j.ID, Label: labels[i], Class: labels[i].String(),
				Degraded: true,
			}
		}
		return out, nil
	}
	enc := f.encoder.Encode(jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	labels, err := st.model.Predict(enc)
	if err != nil {
		return nil, fmt.Errorf("core: predict: %w", err)
	}
	out := make([]Prediction, len(jobs))
	for i, j := range jobs {
		out[i] = Prediction{
			JobID: j.ID, Label: labels[i], Class: labels[i].String(),
			ModelVersion: st.version,
		}
	}
	return out, nil
}

// ClassifyByID classifies a single job fetched from the data storage
// (the per-submission inference trigger).
func (f *Framework) ClassifyByID(ctx context.Context, id string) (Prediction, error) {
	j, err := f.fetcher.FetchJob(ctx, id)
	if err != nil {
		return Prediction{}, err
	}
	out, err := f.ClassifyJobs(ctx, []*job.Job{j})
	if err != nil {
		return Prediction{}, err
	}
	return out[0], nil
}

// ClassifySubmitted classifies every job submitted in [start, end) (the
// periodic inference trigger).
func (f *Framework) ClassifySubmitted(ctx context.Context, start, end time.Time) ([]Prediction, error) {
	jobs, err := f.fetcher.FetchSubmitted(ctx, start, end)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	return f.ClassifyJobs(ctx, jobs)
}
