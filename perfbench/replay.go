package main

import (
	"context"
	"fmt"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/store"
)

// dayStat is one replayed day: classify the day's submissions in one
// request, ingest the jobs that completed during the day, retrain at
// its end (the online algorithm with β = 1).
type dayStat struct {
	Day        string  `json:"day"`
	DayS       float64 `json:"day_s"`
	ClassifyMS float64 `json:"classify_ms"` // the day's classify request
	IngestS    float64 `json:"ingest_s"`
	TrainS     float64 `json:"train_s"`
	HarnessMS  float64 `json:"harness_ms"`     // from the previous day's last answer to this day's first request
	CPUUS      float64 `json:"cpu_us_per_job"` // server CPU over the day per classified job
	Steal      float64 `json:"steal_share"`    // hypervisor steal over the day
	Classified int     `json:"classified"`
	Ingested   int     `json:"ingested"`
	F1         float64 `json:"f1"`
}

// classifyBatch is one prepared POST /v1/classify.
type classifyBatch struct {
	jobs []*job.Job
	ids  []string
	body []byte
}

// replayInput is one day's prepared requests. The day's submissions
// go out in one classify request, as internal/simulate infers each
// β-day window in one ClassifyJobs call: the live replay then does the
// oracle's work, call for call.
type replayInput struct {
	day       time.Time
	subs      []*job.Job
	batch     classifyBatch
	completed []*job.Job
	ingest    []byte
}

// daysPerLife scales the replay with --seconds: a replayed day with
// its share of set-up and oracle takes ≈1.1 s on the 2-core host the
// benchmark was built on, so the default 20 s replays 3 days in each of
// 6 lives.
func (b *bench) daysPerLife() int {
	return max(1, int(float64(b.seconds)/(1.1*float64(b.spec.lives))))
}

// replayInputs prepares the current life's days.
func (b *bench) replayInputs(days int) []replayInput {
	in := make([]replayInput, days)
	for d := range in {
		now := b.tr.t0.Add(time.Duration(d) * day)
		subs, _ := b.tr.all.SubmittedPage(now, now.Add(day), store.Pos{}, 0)
		done, _ := b.tr.all.ExecutedPage(now, now.Add(day), store.Pos{}, 0)
		ids := make([]string, len(subs))
		for i, j := range subs {
			ids[i] = j.ID
		}
		in[d] = replayInput{
			day: now, subs: subs, completed: done, ingest: ndjson(done),
			batch: classifyBatch{jobs: subs, ids: ids, body: classifyBody(subs)},
		}
	}
	return in
}

// replayDays drives the days through the live API, one request at a
// time, and returns the per-day figures and every class it was served.
// With a recorder, the days tracedDay picks run traced and their
// classify is tagged and recorded as a client span; with a server
// process, each day's CPU is read from it.
func (b *bench) replayDays(ctx context.Context, a *api, in []replayInput, rec *recorder, proc *procStats) ([]dayStat, map[string]string, error) {
	served := map[string]string{}
	var days []dayStat
	prev := time.Now()
	for k, d := range in {
		ds := dayStat{Day: d.day.Format("2006-01-02"), Classified: len(d.subs), Ingested: len(d.completed)}
		var cpu0 time.Duration
		if proc != nil {
			var err error
			if cpu0, err = proc.cpu(); err != nil {
				return nil, nil, err
			}
		}
		steal := readSteal()
		t0 := time.Now()
		ds.HarnessMS = ms(t0.Sub(prev))
		traced := rec != nil && tracedDay(k)
		if traced {
			rec.on.Store(true)
		}
		id := ""
		if traced {
			id = reqID(k)
		}
		s := rec.now()
		classes, o, err := a.classify(ctx, d.batch.body, d.batch.ids, id)
		t1 := time.Now()
		if traced {
			rec.add("client POST /v1/classify", id, s, len(d.batch.ids))
		}
		b.check(o, err)
		if err != nil {
			return nil, nil, fmt.Errorf("%s classify: %w", ds.Day, err)
		}
		for i, jid := range d.batch.ids {
			served[jid] = classes[i]
		}
		_, err = a.ingest(ctx, d.ingest, len(d.completed))
		t2 := time.Now()
		b.check(outcomeOf(err), err)
		if err != nil {
			return nil, nil, fmt.Errorf("%s ingest: %w", ds.Day, err)
		}
		_, err = a.train(ctx, d.day.Add(day))
		t3 := time.Now()
		b.check(outcomeOf(err), err)
		if err != nil {
			return nil, nil, fmt.Errorf("%s train: %w", ds.Day, err)
		}
		if traced {
			rec.on.Store(false)
		}
		ds.ClassifyMS, ds.IngestS, ds.TrainS = ms(t1.Sub(t0)), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
		ds.DayS = t3.Sub(t0).Seconds()
		ds.Steal = steal.share()
		if proc != nil {
			cpu1, err := proc.cpu()
			if err != nil {
				return nil, nil, err
			}
			ds.CPUUS = us(cpu1-cpu0) / float64(len(d.subs))
		}
		if ds.F1, err = b.tr.dayF1(d.subs, classes); err != nil {
			return nil, nil, err
		}
		days = append(days, ds)
		prev = time.Now()
	}
	return days, served, nil
}

// checkOracle compares each day's F1 with internal/simulate's to three
// decimals; a mismatch counts as a wrong answer.
func (b *bench) checkOracle(ctx context.Context, days []dayStat) error {
	want, err := oracleF1(ctx, b.tr, len(days))
	if err != nil {
		return err
	}
	if len(want) != len(days) {
		return fmt.Errorf("oracle has %d days, replay %d", len(want), len(days))
	}
	for i, d := range days {
		if got, w := fmt.Sprintf("%.3f", d.F1), fmt.Sprintf("%.3f", want[i]); got != w {
			b.check(wrongAnswer, fmt.Errorf("%s: live F1 %s, oracle %s", d.Day, got, w))
		} else {
			b.check(okAnswer, nil)
		}
	}
	return nil
}

// checkSSE waits for the subscriber to see every served prediction; a
// missing, extra or different event fails the check.
func (b *bench) checkSSE(sub *sseSubscriber, served map[string]string) int {
	n, err := sub.finish(served, 10*time.Second)
	if err != nil {
		b.check(wrongAnswer, err)
	} else {
		b.check(okAnswer, nil)
	}
	return n
}

// warmJobs picks no jobs beyond the warm-up: a replay's classes are
// checked against the oracle's F1, not a reference per job.
func warmJobs(*trace) []*job.Job { return nil }

// replay runs online-replay against server processes: each life
// replays its share of the days over its own trace.
func (b *bench) replay(ctx context.Context) (map[string]metric, error) {
	var setup, setupWall, rss []float64
	var days []dayStat
	var events int
	for k := 0; k < b.spec.lives; k++ {
		lf, err := b.startLife(ctx, k, b.childBoot, warmJobs)
		if err != nil {
			return nil, err
		}
		setup, setupWall = append(setup, lf.setupCPU), append(setupWall, lf.setupS)
		in := b.replayInputs(b.daysPerLife())
		sub, err := lf.d.a.subscribe(ctx)
		if err != nil {
			_ = lf.end()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		ld, served, err := b.replayDays(ctx, lf.d.a, in, nil, lf.d.proc)
		if err != nil {
			_ = lf.end()
			return nil, err
		}
		events += b.checkSSE(sub, served)
		peak, err := lf.d.proc.peakRSSMB()
		if err != nil {
			_ = lf.end()
			return nil, err
		}
		rss = append(rss, peak)
		if err := lf.end(); err != nil {
			return nil, err
		}
		if err := b.checkOracle(ctx, ld); err != nil {
			return nil, err
		}
		days = append(days, ld...)
	}

	var dayS, trainS, batchMS, harness, cycleS, steal []float64
	var cpuSum float64
	var jobs, ingested int
	var wall, ingestWall float64
	for _, d := range days {
		dayS, trainS, harness = append(dayS, d.DayS), append(trainS, d.TrainS), append(harness, d.HarnessMS)
		batchMS, steal = append(batchMS, d.ClassifyMS), append(steal, d.Steal)
		cycleS = append(cycleS, d.IngestS+d.TrainS)
		cpuSum += d.CPUUS * float64(d.Classified)
		jobs += d.Classified
		ingested += d.Ingested
		wall += d.DayS
		ingestWall += d.IngestS
	}
	b.rep["setup_s"] = setup
	b.rep["setup_wall_s"] = setupWall
	b.rep["peak_rss_mb"] = rss
	b.rep["days"] = days
	b.rep["sse_events"] = events
	b.rep["metrics"] = map[string]metric{
		"p50_ms":           {quietMedian(batchMS, steal), "ms"},
		"setup_wall_s":     {median(setupWall), "s"},
		"day_s":            {median(dayS), "s"},
		"cycle_s":          {median(cycleS), "s"},
		"train_s":          {median(trainS), "s"},
		"batch_ms":         {median(batchMS), "ms"},
		"ingest_rps":       {float64(ingested) / ingestWall, "1/s"},
		"fail_ratio":       {b.tally.ratio(), "ratio"},
		"goodput_rps":      {float64(jobs) / wall, "1/s"},
		"loadgen.late_p50": {median(harness), "ms"},
	}
	return map[string]metric{
		"setup_s":       {median(setup), "s"},
		"cpu_us_per_op": {cpuSum / float64(jobs), "us"},
		"peak_rss_mb":   {median(rss), "MB"},
	}, nil
}
