package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"

	"mcbound/internal/job"
)

// shot is one request of an open-loop schedule, timed relative to the
// schedule's start. Latency runs from due, the instant the schedule
// said the request should go out, not from when it was sent: a stall
// that holds back later requests is then charged to every request it
// delayed (no coordinated omission).
type shot struct {
	due        time.Duration // intended send time
	dispatched time.Duration // when the generator woke and queued it
	sent       time.Duration // when a connection picked it up
	done       time.Duration // when the answer was read and checked
	outcome    outcome
}

// latency is the request's time from due to checked answer.
func (s shot) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the generator itself was.
func (s shot) late() time.Duration { return s.dispatched - s.due }

// openLoop offers one request per entry of due, each at its due time
// (relative to the schedule's start, non-decreasing), over conns
// concurrent workers, and returns one shot per request, in schedule
// order.
//
// The generator does not arm one timer per request: it sleeps until the
// next due time and, on each wake, queues every request that has come
// due, so timer overshoot delays a request by at most one wake instead
// of accumulating. Requests wait in the queue while every worker is
// busy; that wait is server-induced and counts in the latency.
func openLoop(due []time.Duration, conns int, send func(i int) outcome) []shot {
	n := len(due)
	shots := make([]shot, n)
	if n == 0 {
		return shots
	}
	// Sized to the number of sends, so the generator never blocks on a
	// busy worker and its lateness reflects only its own wake-ups.
	queue := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &shots[i]
				s.sent = time.Since(start)
				s.outcome = send(i)
				s.done = time.Since(start)
			}
		}()
	}
	// time.Sleep parks in the runtime's network poller, which waits in
	// whole milliseconds: it overshoots by ≈1 ms at p50 on an idle host.
	// The generator sleeps in nanosleep on a thread of its own instead.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < n; {
		now := time.Since(start)
		for ; i < n && due[i] <= now; i++ {
			shots[i].due = due[i]
			shots[i].dispatched = now
			queue <- i
		}
		if i < n {
			nanosleep(due[i] - time.Since(start))
		}
	}
	close(queue)
	wg.Wait()
	return shots
}

// evenly is the schedule of n requests at a constant rate.
func evenly(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) * float64(time.Second) / rate)
	}
	return due
}

// arrivals is the schedule of an open loop over jobs in submission
// order: the trace's own submission gaps, compressed by speed (trace
// seconds per schedule second). Jobs the trace submits at one instant,
// a batch of identical submissions, fall due together.
func arrivals(jobs []*job.Job, speed float64) []time.Duration {
	due := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		due[i] = time.Duration(float64(j.SubmitTime.Sub(jobs[0].SubmitTime)) / speed)
	}
	return due
}

// traceRate is the mean submission rate of jobs in trace time, in jobs
// per second: the trace's arrival process offered at speed s has the
// mean rate s·traceRate.
func traceRate(jobs []*job.Job) float64 {
	span := jobs[len(jobs)-1].SubmitTime.Sub(jobs[0].SubmitTime).Seconds()
	return float64(len(jobs)-1) / span
}

// nanosleep blocks the calling thread for d (no-op for d <= 0).
func nanosleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// outcome classifies one checked operation.
type outcome uint8

const (
	okAnswer outcome = iota
	wrongAnswer
	refused // the server answered with a non-2xx status
	failedIO
)

// tally is the fail accounting of a run: every attempted operation is
// exactly one of ok, wrong, refused or failed.
type tally struct {
	Attempted int `json:"attempted"`
	Wrong     int `json:"wrong"`
	Refused   int `json:"refused"`
	Failed    int `json:"failed_io"`
}

func (t *tally) add(o outcome) {
	t.Attempted++
	switch o {
	case wrongAnswer:
		t.Wrong++
	case refused:
		t.Refused++
	case failedIO:
		t.Failed++
	}
}

func (t *tally) addShots(shots []shot) {
	for _, s := range shots {
		t.add(s.outcome)
	}
}

// bad counts operations that did not return a correct answer.
func (t tally) bad() int { return t.Wrong + t.Refused + t.Failed }

// ratio is bad over attempted (0 when nothing was attempted).
func (t tally) ratio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.bad()) / float64(t.Attempted)
}

// shotStats summarises a phase of an open-loop run.
type shotStats struct {
	Rate      float64 `json:"offered_rps"`
	Latency   dist    `json:"latency_ms"` // due → checked answer
	Service   dist    `json:"service_ms"` // sent → checked answer
	Late      dist    `json:"late_ms"`    // due → generator wake
	Bad       int     `json:"bad"`
	Backlog   bool    `json:"backlog_grew"`
	MeetsSLO  bool    `json:"meets_slo"`
	Generator bool    `json:"generator_bound"` // lateness, not the server, sets the tail
}

// sloTail is the latency limit on the tail percentile for goodput.
const sloTail = 50 * time.Millisecond

func summarizeShots(rate float64, shots []shot) shotStats {
	lat := make([]float64, len(shots))
	svc := make([]float64, len(shots))
	late := make([]float64, len(shots))
	st := shotStats{Rate: rate}
	for i, s := range shots {
		lat[i], svc[i], late[i] = ms(s.latency()), ms(s.done-s.sent), ms(s.late())
		if s.outcome != okAnswer {
			st.Bad++
		}
	}
	st.Latency, st.Service, st.Late = summarize(lat), summarize(svc), summarize(late)
	st.Backlog = backlogGrew(lat)
	st.MeetsSLO = st.Bad == 0 && !st.Backlog && st.Latency.Tail <= ms(sloTail)
	st.Generator = st.Late.Tail >= st.Latency.Tail/2
	return st
}

// backlogGrew reports whether the requests of the last fifth of a phase
// waited clearly longer than those of the first fifth: a queue that
// keeps growing means the offered rate is above what the server
// sustains, even if the phase was too short for the tail to show it.
func backlogGrew(latMS []float64) bool {
	k := len(latMS) / 5
	if k < minBeyond {
		return false
	}
	first, last := median(latMS[:k]), median(latMS[len(latMS)-k:])
	return last > 2*first+2
}
