package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"mcbound/internal/job"
)

const (
	// rateStep is the ratio between adjacent offered rates of the
	// goodput search: 5%, finer than any bound a metric could be gated
	// at, so adjacent steps cannot flip goodput_rps by more.
	rateStep = 1.05
	// rampSteps is how many rate steps one ramp probe climbs.
	rampSteps = 8
	// probeSamples is the least number of requests a probe offers, so
	// its p99 has at least minBeyond samples beyond it.
	probeSamples = 1000
	// nominalShare is the share of --seconds spent at the nominal rate;
	// the goodput search gets the rest.
	nominalShare = 0.5
	// goodputJobs bounds the submissions the goodput search may offer,
	// and so the reference answers the last life computes up front.
	goodputJobs = 10000
	// minBlock is the least number of requests in a block of the
	// nominal phase: enough that the server's CPU over a block spans
	// tens of clock ticks.
	minBlock = 200
)

// stream is the measured submission stream of a submit run: jobs in
// submission order, consumed phase by phase so none repeats in a run.
type stream struct {
	jobs []*job.Job
	body [][]byte
	next int
}

// take returns the next n jobs and their payloads, or ok=false when the
// trace has fewer left.
func (s *stream) take(n int) (jobs []*job.Job, body [][]byte, ok bool) {
	if s.next+n > len(s.jobs) {
		return nil, nil, false
	}
	jobs, body = s.jobs[s.next:s.next+n], s.body[s.next:s.next+n]
	s.next += n
	return jobs, body, true
}

// firstSubs picks a trace's first n measured submissions (all of them
// when it has fewer).
func firstSubs(n int) func(*trace) []*job.Job {
	return func(tr *trace) []*job.Job { return tr.subs[:min(n, len(tr.subs))] }
}

// submit runs submit-rf or submit-knn against server processes: each
// life offers its share of the nominal phase in blocks of at least
// minBlock requests, and the last life then runs the goodput search.
// Requests follow the trace's own arrival process at the nominal mean
// rate (arrivals).
func (b *bench) submit(ctx context.Context) (map[string]metric, error) {
	nNom := int(b.spec.nominal * nominalShare * float64(b.seconds))
	blocksPerLife := max(1, nNom/(b.spec.lives*minBlock))
	per := nNom / (b.spec.lives * blocksPerLife)
	var setup, setupWall, cycles, rss, blockP50, blockCPU, blockLate, blockSteal []float64
	var cpu time.Duration
	served := 0
	var shots []shot
	var gp goodputResult
	var floor shotStats
	for k := 0; k < b.spec.lives; k++ {
		last := k == b.spec.lives-1
		need := per * blocksPerLife
		if last {
			need += goodputJobs
		}
		lf, err := b.startLife(ctx, k, b.childBoot, firstSubs(need))
		if err != nil {
			return nil, err
		}
		setup, setupWall, cycles = append(setup, lf.setupCPU), append(setupWall, lf.setupS), append(cycles, lf.cycleS)
		// Only the jobs the reference answered for are offered.
		subs := firstSubs(need)(lf.tr)
		st := &stream{jobs: subs, body: bodies(subs)}
		base := traceRate(subs[:per*blocksPerLife])
		if k == 0 {
			n := min(nNom/2, probeSamples)
			if floor, err = noopFloor(arrivals(subs[:n], b.spec.nominal/base), b.conns); err != nil {
				_ = lf.end()
				return nil, err
			}
		}
		// The nominal phase runs as blocks spread over the lives, so no
		// one trace sets a figure. p50_ms is the median over the quieter
		// half of the blocks by hypervisor steal: on a shared VM, steal
		// moves wall-clock latency far more than the server's CPU per
		// request.
		for blk := 0; blk < blocksPerLife; blk++ {
			jobs, body, ok := st.take(per)
			if !ok {
				_ = lf.end()
				return nil, fmt.Errorf("trace has %d submissions, a block needs %d", len(st.jobs), per)
			}
			cpu0, err := lf.d.proc.cpu()
			if err != nil {
				_ = lf.end()
				return nil, err
			}
			steal := readSteal()
			block := openLoop(arrivals(jobs, b.spec.nominal/base), b.conns, b.sender(lf.d.a, jobs, body, lf.want, false))
			blockSteal = append(blockSteal, steal.share())
			cpu1, err := lf.d.proc.cpu()
			if err != nil {
				_ = lf.end()
				return nil, err
			}
			b.checkShots(block)
			bs := summarizeShots(b.spec.nominal, block)
			blockP50 = append(blockP50, bs.Latency.P50)
			blockLate = append(blockLate, bs.Late.P50)
			blockCPU = append(blockCPU, us(cpu1-cpu0)/float64(max(per-bs.Bad, 1)))
			cpu += cpu1 - cpu0
			served += per - bs.Bad
			shots = append(shots, block...)
		}
		if last {
			budget := time.Duration((1 - nominalShare) * float64(b.seconds) * float64(time.Second))
			gp = b.goodput(lf.d.a, st, base, lf.want, summarizeShots(b.spec.nominal, shots), budget)
		}
		peak, err := lf.d.proc.peakRSSMB()
		if err != nil {
			_ = lf.end()
			return nil, err
		}
		rss = append(rss, peak)
		if err := lf.end(); err != nil {
			return nil, err
		}
	}
	nom := summarizeShots(b.spec.nominal, shots)
	if served == 0 {
		return nil, fmt.Errorf("no request of the nominal phase succeeded")
	}

	b.rep["setup_s"] = setup
	b.rep["setup_wall_s"] = setupWall
	b.rep["cycle_s"] = cycles
	b.rep["peak_rss_mb"] = rss
	b.rep["nominal"] = nom
	b.rep["nominal_blocks"] = map[string][]float64{"p50_ms": blockP50, "cpu_us_per_op": blockCPU, "late_p50_ms": blockLate, "steal_share": blockSteal}
	b.rep["loadgen_floor"] = floor
	b.rep["goodput"] = gp
	b.rep["p99_valid"] = !nom.Generator
	b.rep["metrics"] = map[string]metric{
		"p50_ms":           {quietMedian(blockP50, blockSteal), "ms"},
		"p99_ms":           {nom.Latency.Tail, "ms"},
		"setup_wall_s":     {median(setupWall), "s"},
		"cycle_s":          {median(cycles), "s"},
		"goodput_rps":      {gp.Rate, "1/s"},
		"fail_ratio":       {b.tally.ratio(), "ratio"},
		"loadgen.late_p50": {nom.Late.P50, "ms"},
		"loadgen.late_p99": {nom.Late.Tail, "ms"},
	}
	return map[string]metric{
		"setup_s":       {median(setup), "s"},
		"cpu_us_per_op": {us(cpu) / float64(served), "us"},
		"peak_rss_mb":   {median(rss), "MB"},
	}, nil
}

// goodputResult is the outcome of the goodput search.
type goodputResult struct {
	Rate    float64     `json:"goodput_rps"` // highest offered rate that met the SLO; 0 if none did
	Bounded bool        `json:"bounded"`     // a failing rate above it was found
	Probes  []shotStats `json:"probes"`
}

// goodput searches the rate ladder nominal·rateStep^k for the highest
// offered rate at which the tail latency stays within sloTail, no
// request fails and the backlog does not grow; a probe at rate r offers
// the trace's arrival process at mean rate r (base is the stream's
// mean rate in trace time). It starts from a
// capacity estimate (connections over the nominal service time), ramps
// rampSteps at a time until a probe fails, then bisects. Each probe
// offers fresh submissions; the search ends early when the time budget
// or the trace runs out.
func (b *bench) goodput(a *api, st *stream, base float64, want map[string]string, nom shotStats, budget time.Duration) goodputResult {
	rate := func(k int) float64 { return b.spec.nominal * math.Pow(rateStep, float64(k)) }
	deadline := time.Now().Add(budget)
	var res goodputResult
	probe := func(k int) (pass, ok bool) {
		r := rate(k)
		n := max(probeSamples, int(r/2))
		if time.Now().Add(time.Duration(float64(n) / r * float64(time.Second))).After(deadline) {
			return false, false
		}
		jobs, body, ok := st.take(n)
		if !ok {
			return false, false
		}
		shots := openLoop(arrivals(jobs, r/base), b.conns, b.sender(a, jobs, body, want, false))
		b.checkShots(shots)
		ss := summarizeShots(r, shots)
		res.Probes = append(res.Probes, ss)
		return ss.MeetsSLO, true
	}

	// lo is the highest passing step, hi the lowest failing one.
	lo, hi, hasLo, hasHi := 0, 0, nom.MeetsSLO, !nom.MeetsSLO
	next := -rampSteps
	if hasLo {
		next = rampSteps
		if est := float64(b.conns) / (nom.Service.P50 / 1000) * 0.6; est > rate(1) {
			next = int(math.Log(est/b.spec.nominal) / math.Log(rateStep))
		}
	}
	for {
		pass, ok := probe(next)
		if !ok {
			break
		}
		if pass {
			lo, hasLo = next, true
		} else {
			hi, hasHi = next, true
		}
		switch {
		case !hasHi:
			next = lo + rampSteps
		case !hasLo:
			next = hi - rampSteps
		case hi-lo > 1:
			next = lo + (hi-lo)/2
		default:
			next = 0
		}
		if hasLo && hasHi && hi-lo <= 1 {
			break
		}
	}
	if hasLo {
		res.Rate = rate(lo)
	}
	res.Bounded = hasHi && hi > lo
	return res
}

// noopFloor runs a schedule against a handler that does no work, over
// the same kind of loopback connections: the latency and lateness the
// harness alone adds.
func noopFloor(due []time.Duration, conns int) (shotStats, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return shotStats{}, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`[]`))
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	a := newAPI("http://"+ln.Addr().String(), conns)
	body := []byte(`[]`)
	n := len(due)
	rate := float64(n-1) / max(due[n-1].Seconds(), 1e-9)
	shots := openLoop(due, conns, func(int) outcome {
		_, o, _ := a.classify(context.Background(), body, nil, "")
		return o
	})
	a.close()
	_ = srv.Close()
	if err := <-served; err != http.ErrServerClosed {
		return shotStats{}, fmt.Errorf("no-op server: %w", err)
	}
	ss := summarizeShots(rate, shots)
	if ss.Bad != 0 {
		return ss, fmt.Errorf("no-op server: %d of %d requests failed", ss.Bad, n)
	}
	return ss, nil
}
