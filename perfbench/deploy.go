package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"mcbound/internal/job"
)

// deployment is a ready server.
type deployment struct {
	a    *api
	proc *procStats // the server process; nil when in-process
	stop func() error
}

// bootFunc starts a server in dir, with its initial Training Workflow
// at t0-1d, and waits until it is ready.
type bootFunc func(ctx context.Context, dir string) (*deployment, error)

// childBoot boots the mcbound-server binary as a separate process over
// the history trace.
func (b *bench) childBoot(history string) bootFunc {
	tr := b.tr
	return func(ctx context.Context, dir string) (*deployment, error) {
		p, err := bootServer(ctx, b.server, dir, history, b.spec.model, tr.t0.Add(-day))
		if err != nil {
			return nil, err
		}
		return &deployment{a: newAPI(p.base, b.conns), proc: &p.proc, stop: p.stop}, nil
	}
}

// lifeSeed derives the trace seed of life k of a run from the workload
// seed.
func lifeSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) }

// life is one deployment of a run over a trace of its own. A run brings
// up several, one after another, so its figures are medians over
// several generated traces rather than the luck of one.
type life struct {
	tr     *trace
	want   map[string]string // reference class by job id
	d      *deployment
	setupS float64 // wall time: server start to ready, first cycle and warm-up
	// setupCPU is the server's user+sys CPU seconds over the same
	// span, from its exec; 0 for an in-process server.
	setupCPU float64
	cycleS   float64 // the first cycle's ingest and retrain
}

// startLife generates life k's trace, trains the reference for the
// jobs that pick selects, writes the boot trace, and brings a
// deployment up from a fresh directory: boot, first daily cycle and
// warm-up.
func (b *bench) startLife(ctx context.Context, k int, boot func(history string) bootFunc, pick func(*trace) []*job.Job) (*life, error) {
	t0 := time.Now()
	tr, err := newTrace(lifeSeed(b.seed, k), b.spec.scale)
	if err != nil {
		return nil, err
	}
	b.tr = tr
	b.traces = append(b.traces, map[string]any{
		"seed": tr.seed, "jobs": tr.all.Len(), "history_jobs": tr.histN,
		"submissions": len(tr.subs), "generate_s": time.Since(t0).Seconds(),
	})
	want, err := referenceAnswers(ctx, tr, b.spec.model, tr.t0, append(append([]*job.Job(nil), tr.warm...), pick(tr)...))
	if err != nil {
		return nil, err
	}
	dir, err := b.runDir(fmt.Sprintf("life%d", k))
	if err != nil {
		return nil, err
	}
	history, err := tr.writeHistory(dir)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	d, err := boot(history)(ctx, dir)
	if err != nil {
		return nil, err
	}
	cycle, err := b.firstCycle(ctx, d.a, want)
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	setupS := time.Since(t).Seconds()
	var setupCPU float64
	if d.proc != nil {
		c, err := d.proc.cpu()
		if err != nil {
			_ = d.stop()
			return nil, err
		}
		setupCPU = c.Seconds()
	}
	// Start the measured phase with the harness's own heap collected,
	// so its GC does not carry the trace generation into it.
	runtime.GC()
	return &life{tr: tr, want: want, d: d, setupS: setupS, setupCPU: setupCPU, cycleS: cycle.Seconds()}, nil
}

// end stops the life's server.
func (l *life) end() error {
	l.d.a.close()
	if err := l.d.stop(); err != nil {
		return fmt.Errorf("server stop: %w", err)
	}
	return nil
}

// firstCycle runs the deployment's first daily cycle, the cron job of
// paper §III-E: ingest the jobs completed on the day before t0, retrain
// at t0, then warm up with that day's submissions, each a single-job
// classify checked against the reference. It returns the time the
// ingest and retrain took.
func (b *bench) firstCycle(ctx context.Context, a *api, want map[string]string) (time.Duration, error) {
	body := ndjson(b.tr.boot)
	t := time.Now()
	n, err := a.ingest(ctx, body, len(b.tr.boot))
	b.check(outcomeOf(err), err)
	if err != nil {
		return 0, fmt.Errorf("set-up ingest (%d acked): %w", n, err)
	}
	_, err = a.train(ctx, b.tr.t0)
	b.check(outcomeOf(err), err)
	if err != nil {
		return 0, fmt.Errorf("set-up train: %w", err)
	}
	cycle := time.Since(t)
	send := b.sender(a, b.tr.warm, bodies(b.tr.warm), want, false)
	// All due at once: the warm-up runs as fast as conns workers go.
	b.checkShots(openLoop(make([]time.Duration, len(b.tr.warm)), b.conns, send))
	return cycle, nil
}

// sender returns the send function of an open loop over jobs: request i
// classifies jobs[i] alone and checks the class against want.
func (b *bench) sender(a *api, jobs []*job.Job, body [][]byte, want map[string]string, tag bool) func(i int) outcome {
	return func(i int) outcome {
		id := ""
		if tag {
			id = reqID(i)
		}
		classes, o, err := a.classify(context.Background(), body[i], []string{jobs[i].ID}, id)
		if err != nil {
			b.logErr(err)
			return o
		}
		if w, ok := want[jobs[i].ID]; !ok || classes[0] != w {
			b.logErr(fmt.Errorf("job %s: class %q, reference %q", jobs[i].ID, classes[0], w))
			return wrongAnswer
		}
		return okAnswer
	}
}

// bodies pre-marshals one single-job classify payload per job, so the
// generator does no encoding while it is timed.
func bodies(jobs []*job.Job) [][]byte {
	out := make([][]byte, len(jobs))
	for i, j := range jobs {
		out[i] = classifyBody([]*job.Job{j})
	}
	return out
}

func outcomeOf(err error) outcome {
	if err != nil {
		return failedIO
	}
	return okAnswer
}

// check records one operation's outcome.
func (b *bench) check(o outcome, err error) {
	b.tally.add(o)
	if err != nil {
		b.logErr(err)
	}
}

func (b *bench) checkShots(shots []shot) { b.tally.addShots(shots) }

// logErr prints the first few operation errors of a run to stderr.
func (b *bench) logErr(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.logged < 10 {
		b.logged++
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
