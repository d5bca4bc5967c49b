package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/metrics"
	"mcbound/internal/ml/knn"
	"mcbound/internal/roofline"
	"mcbound/internal/simulate"
	"mcbound/internal/store"
	"mcbound/internal/workload"
)

// day is one simulated day.
const day = 24 * time.Hour

// firstDay is the first measured day: the synthetic trace empties for a
// maintenance window that ends on February 5th (workload.DefaultConfig),
// so the deployment is brought up on the 5th and measured from the 6th.
var firstDay = time.Date(2024, 2, 6, 0, 0, 0, 0, time.UTC)

// trace is the generated input of one run. The program under test only
// ever sees these records: the history as a -trace file, the rest over
// the API.
type trace struct {
	all   *store.Store
	char  *roofline.Characterizer
	t0    time.Time    // firstDay
	hist  *store.Store // jobs completed in the α+1 days before t0-1d: the boot trace
	boot  []*job.Job   // completed in [t0-1d, t0): the set-up ingest
	warm  []*job.Job   // submitted in [t0-1d, t0): the set-up warm-up
	subs  []*job.Job   // submitted in [t0, end of trace), in submission order
	seed  uint64
	histN int
}

// newTrace generates the trace of a seed at a scale: at scale 0.02 the
// trace has ≈370 submissions a day and an α=15 day training window
// ≈4.5 k labeled jobs.
func newTrace(seed uint64, scale float64) (*trace, error) {
	cfg := workload.EvalConfig(scale)
	jobs, err := workload.NewGenerator(cfg, seed).Generate()
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	all := store.New()
	if err := all.Insert(jobs...); err != nil {
		return nil, fmt.Errorf("load trace: %w", err)
	}
	t0 := firstDay
	cfg0 := core.DefaultConfig()
	tr := &trace{
		all:  all,
		char: roofline.NewCharacterizer(roofline.ModelFor(cfg.Machine)),
		t0:   t0,
		hist: store.New(),
		seed: seed,
	}
	// The boot trace holds what every training window of the run can
	// reach: α days before the first train at t0-1d, and a day to spare.
	histStart := t0.Add(-time.Duration(cfg0.Alpha+2) * day)
	hist, _ := all.ExecutedPage(histStart, t0.Add(-day), store.Pos{}, 0)
	if err := tr.hist.Insert(hist...); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	tr.histN = len(hist)
	tr.boot, _ = all.ExecutedPage(t0.Add(-day), t0, store.Pos{}, 0)
	tr.warm, _ = all.SubmittedPage(t0.Add(-day), t0, store.Pos{}, 0)
	tr.subs, _ = all.SubmittedPage(t0, cfg.End, store.Pos{}, 0)
	if len(tr.boot) == 0 || len(tr.warm) == 0 || len(tr.subs) == 0 {
		return nil, fmt.Errorf("trace seed %d: empty set-up or measured days", seed)
	}
	return tr, nil
}

// writeHistory saves the boot trace as JSONL under dir.
func (tr *trace) writeHistory(dir string) (string, error) {
	path := filepath.Join(dir, "history.jsonl")
	if err := tr.hist.SaveFile(path); err != nil {
		return "", fmt.Errorf("write history: %w", err)
	}
	return path, nil
}

// submission is what a scheduler hook knows when a job is submitted:
// no execution data and no counters.
type submission struct {
	ID             string        `json:"id"`
	User           string        `json:"user"`
	Name           string        `json:"name"`
	Environment    string        `json:"env"`
	CoresRequested int           `json:"cores_req"`
	NodesRequested int           `json:"nodes_req"`
	FreqRequested  job.Frequency `json:"freq_req"`
	SubmitTime     time.Time     `json:"submit"`
}

func asSubmission(j *job.Job) submission {
	return submission{
		ID: j.ID, User: j.User, Name: j.Name, Environment: j.Environment,
		CoresRequested: j.CoresRequested, NodesRequested: j.NodesRequested,
		FreqRequested: j.FreqRequested, SubmitTime: j.SubmitTime,
	}
}

// submitted strips a job to its submission-time record.
func submitted(j *job.Job) *job.Job {
	s := asSubmission(j)
	return &job.Job{
		ID: s.ID, User: s.User, Name: s.Name, Environment: s.Environment,
		CoresRequested: s.CoresRequested, NodesRequested: s.NodesRequested,
		FreqRequested: s.FreqRequested, SubmitTime: s.SubmitTime,
	}
}

// classifyBody is the POST /v1/classify payload for a batch of jobs.
func classifyBody(jobs []*job.Job) []byte {
	subs := make([]submission, len(jobs))
	for i, j := range jobs {
		subs[i] = asSubmission(j)
	}
	b, err := json.Marshal(subs)
	if err != nil {
		panic(err) // plain structs of strings, ints and times always marshal
	}
	return b
}

// frameworkConfig is the deployment the server runs with its default
// flags: the paper's α=15, β=1 and the given model.
func frameworkConfig(model string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Model = core.ModelKind(model)
	cfg.KNN.Index.Mode = knn.IndexAuto
	return cfg
}

// referenceAnswers trains an in-process Framework on the same trace at
// the same instant as the server and returns its class for every job.
func referenceAnswers(ctx context.Context, tr *trace, model string, at time.Time, jobs []*job.Job) (map[string]string, error) {
	fw, err := core.New(frameworkConfig(model), fetch.StoreBackend{Store: tr.all})
	if err != nil {
		return nil, err
	}
	if _, err := fw.Train(ctx, at); err != nil {
		return nil, fmt.Errorf("reference train: %w", err)
	}
	in := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		in[i] = submitted(j)
	}
	preds, err := fw.ClassifyJobs(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("reference classify: %w", err)
	}
	want := make(map[string]string, len(preds))
	for _, p := range preds {
		want[p.JobID] = p.Class
	}
	return want, nil
}

// oracleF1 runs internal/simulate, the offline replay of the paper's
// online algorithm, over days from t0 and returns its per-day F1.
func oracleF1(ctx context.Context, tr *trace, days int) ([]float64, error) {
	fw, err := core.New(frameworkConfig("rf"), fetch.StoreBackend{Store: tr.all})
	if err != nil {
		return nil, err
	}
	tl, err := (&simulate.Replay{Framework: fw}).Run(ctx, tr.t0, tr.t0.Add(time.Duration(days)*day))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	var f1 []float64
	for _, ev := range tl.Events {
		if ev.Kind == simulate.EventInfer {
			f1 = append(f1, ev.F1)
		}
	}
	return f1, nil
}

// dayF1 scores one day's served classes against the roofline ground
// truth, the way the simulator does.
func (tr *trace) dayF1(jobs []*job.Job, classes []string) (float64, error) {
	conf := metrics.NewConfusion()
	for i, j := range jobs {
		pt, err := tr.char.Characterize(j)
		if err != nil {
			continue // truth never arrives for this job
		}
		got, err := job.ParseLabel(classes[i])
		if err != nil {
			return 0, err
		}
		conf.Add(pt.Label, got)
	}
	if conf.N() == 0 {
		return 0, nil
	}
	return conf.F1Macro(), nil
}
