package main

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/job"
)

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		tailP float64
		tail  float64
	}{
		{n: 10000, tailP: 99.9, tail: 9990},
		{n: 1000, tailP: 99, tail: 990},
		{n: 999, tailP: 95, tail: 950}, // p99 would leave only 9 beyond
		{n: 200, tailP: 95, tail: 190}, // 10 beyond exactly
		{n: 199, tailP: 90, tail: 180}, // p95 rank 190 leaves 9
		{n: 20, tailP: 50, tail: 10},   // only the median qualifies
		{n: 19, tailP: 0, tail: 19},    // nothing qualifies: the maximum
	} {
		d := summarize(sample(tc.n))
		if d.N != tc.n || d.TailP != tc.tailP || d.Tail != tc.tail {
			t.Errorf("n=%d: got tail p%v = %v (n=%d), want p%v = %v", tc.n, d.TailP, d.Tail, d.N, tc.tailP, tc.tail)
		}
		if d.TailP > 0 {
			beyond := 0
			for _, x := range sample(tc.n) {
				if x > d.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: %d samples beyond the reported tail, want >= %d", tc.n, beyond, minBeyond)
			}
		}
	}
	if d := summarize([]float64{3, 1, 2}); d.P50 != 2 || d.Max != 3 {
		t.Errorf("median of {3,1,2} = %v, max %v", d.P50, d.Max)
	}
	if d := summarize(nil); d.N != 0 || d.P50 != 0 {
		t.Errorf("empty sample: %+v", d)
	}
}

// A server that stalls once must be charged for every request the stall
// held back: latency runs from the due time, not the send time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, rate = 40, 1000.0 // one request due per millisecond
	var calls atomic.Int32
	shots := openLoop(evenly(n, rate), 1, func(i int) outcome {
		if calls.Add(1) == 1 {
			time.Sleep(30 * time.Millisecond) // the first request stalls
		}
		return okAnswer
	})
	if len(shots) != n {
		t.Fatalf("%d shots, want %d", len(shots), n)
	}
	for i, s := range shots {
		if want := time.Duration(i) * time.Millisecond; s.due != want {
			t.Fatalf("shot %d due at %v, want %v", i, s.due, want)
		}
		if s.sent < s.dispatched || s.dispatched < s.due || s.done < s.sent {
			t.Fatalf("shot %d out of order: %+v", i, s)
		}
	}
	// Request 10 was due 10ms in but could not go out before the stall
	// ended at ≈30ms: its latency is ≈20ms although serving it was
	// instant, while its send-to-done time stays near zero.
	s := shots[10]
	if s.latency() < 15*time.Millisecond {
		t.Errorf("latency of a request held behind the stall = %v, want >= 15ms", s.latency())
	}
	if svc := s.done - s.sent; svc > 5*time.Millisecond {
		t.Errorf("service time of an instant request = %v", svc)
	}
	// The generator itself stayed on schedule: lateness is its wake-up
	// delay only, far below the stall.
	if late := summarize(lateMS(shots)).P50; late > 5 {
		t.Errorf("generator lateness p50 = %vms, want a few ms at most", late)
	}
}

// The trace's arrival process is kept: a batch of jobs submitted at one
// instant falls due together, and gaps shrink by the speed.
func TestArrivalsFollowTheTrace(t *testing.T) {
	t0 := time.Date(2024, 2, 6, 0, 0, 0, 0, time.UTC)
	at := func(sec int) *job.Job { return &job.Job{SubmitTime: t0.Add(time.Duration(sec) * time.Second)} }
	jobs := []*job.Job{at(100), at(100), at(100), at(160), at(400)}
	due := arrivals(jobs, 60) // a trace minute per schedule second
	want := []time.Duration{0, 0, 0, time.Second, 5 * time.Second}
	for i := range want {
		if due[i] != want[i] {
			t.Fatalf("due = %v, want %v", due, want)
		}
	}
	// Four gaps over 300 trace seconds; offered at speed s the stream's
	// mean rate is s·traceRate.
	if r := traceRate(jobs); math.Abs(r-4.0/300) > 1e-12 {
		t.Fatalf("traceRate = %v, want %v", r, 4.0/300)
	}
	if got := evenly(3, 4); got[1] != 250*time.Millisecond || got[2] != 500*time.Millisecond {
		t.Fatalf("evenly(3, 4) = %v", got)
	}
}

func lateMS(shots []shot) []float64 {
	out := make([]float64, len(shots))
	for i, s := range shots {
		out[i] = ms(s.late())
	}
	return out
}

func TestParseStatCPU(t *testing.T) {
	// Field 2 holds spaces and a ')' of its own; utime=1234, stime=56.
	stat := "4242 (mcbound server) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 9 0 777 123456 789"
	got, err := parseStatCPU(stat)
	if err != nil || got != 1290 {
		t.Fatalf("parseStatCPU = %d, %v; want 1290", got, err)
	}
	if _, err := parseStatCPU("4242 (short) S 1 2"); err == nil {
		t.Error("truncated stat: want an error")
	}
	if _, err := parseStatCPU("no command field"); err == nil {
		t.Error("stat without a command field: want an error")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tmcbound-server\nVmPeak:\t  900000 kB\nVmHWM:\t  125440 kB\nVmRSS:\t  120000 kB\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 125440 {
		t.Fatalf("VmHWM = %d, %v; want 125440", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key: want an error")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("unit other than kB: want an error")
	}
}

func TestClockTicks(t *testing.T) {
	auxv := make([]byte, 48)
	binary.LittleEndian.PutUint64(auxv[0:], 6) // AT_PAGESZ
	binary.LittleEndian.PutUint64(auxv[8:], 4096)
	binary.LittleEndian.PutUint64(auxv[16:], 17) // AT_CLKTCK
	binary.LittleEndian.PutUint64(auxv[24:], 250)
	if got := clockTicks(auxv); got != 250 {
		t.Errorf("clockTicks = %d, want 250", got)
	}
	if got := clockTicks(auxv[:16]); got != 100 {
		t.Errorf("clockTicks without AT_CLKTCK = %d, want the 100 Hz default", got)
	}
}

func TestTallyCountsEveryBadOutcome(t *testing.T) {
	var tl tally
	for _, o := range []outcome{okAnswer, okAnswer, wrongAnswer, refused, failedIO, okAnswer} {
		tl.add(o)
	}
	if tl.Attempted != 6 || tl.Wrong != 1 || tl.Refused != 1 || tl.Failed != 1 || tl.bad() != 3 {
		t.Fatalf("tally = %+v, bad %d", tl, tl.bad())
	}
	if got := tl.ratio(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("fail ratio = %v, want 0.5", got)
	}
	if (tally{}).ratio() != 0 {
		t.Error("fail ratio of nothing attempted should be 0")
	}
	// A phase's bad shots count against its SLO and in the run's tally.
	shots := []shot{{outcome: okAnswer}, {outcome: wrongAnswer}, {outcome: refused}}
	tl = tally{}
	tl.addShots(shots)
	if ss := summarizeShots(100, shots); ss.Bad != 2 || ss.MeetsSLO || tl.bad() != 2 {
		t.Errorf("2 bad of 3 shots: summary bad %d meets %v, tally %+v", ss.Bad, ss.MeetsSLO, tl)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "client POST /v1/classify", Req: "r1", Start: 0, End: 100},
		{Name: "handler POST /v1/classify", Req: "r1", Start: 10, End: 70},
		{Name: "model.Predict", Start: 20, End: 30},
		{Name: "model.Predict", Start: 25, End: 40}, // overlaps its sibling
	}
	link(spans)
	if spans[1].Parent != 0 || spans[2].Parent != 1 || spans[3].Parent != 1 {
		t.Fatalf("parents = %d %d %d", spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
	self := selfTimes(spans)
	if self[0] != 40 || self[1] != 40 || self[2] != 10 {
		t.Errorf("self times = %v, want client 40, handler 40 (60 minus the 20 its children cover), predict 10", self)
	}
}

func TestParseCPUSteal(t *testing.T) {
	stat := "cpu  405251 0 38148 520105 4839 0 5278 71122 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
	steal, total, err := parseCPUSteal(stat)
	if err != nil || steal != 71122 || total != 405251+38148+520105+4839+5278+71122 {
		t.Fatalf("parseCPUSteal = %d, %d, %v", steal, total, err)
	}
	if _, _, err := parseCPUSteal("cpu0 1 2 3\n"); err == nil {
		t.Error("no aggregate line: want an error")
	}
}

func TestQuietMedianKeepsTheLowStealHalf(t *testing.T) {
	p50 := []float64{1.0, 9.0, 1.2, 8.0, 1.1}
	steal := []float64{0.01, 0.20, 0.02, 0.15, 0.03}
	// The three quietest blocks read 1.0, 1.2 and 1.1: their median.
	if got := quietMedian(p50, steal); got != 1.1 {
		t.Errorf("quietMedian = %v, want 1.1", got)
	}
}

// The traced run's in-process copy is checked against the usage text
// the flag package prints for -h.
func TestFlagDefaults(t *testing.T) {
	help := "Usage of mcbound-server:\n" +
		"  -fetch-backoff duration\n" +
		"    \tbase backoff between storage query retries (default 50ms)\n" +
		"  -fsync string\n" +
		"    \tWAL durability point: always | interval | never (default \"always\")\n" +
		"  -max-concurrency int\n" +
		"    \thard ceiling on concurrent requests (the adaptive limit stays below it) (default 64)\n" +
		"  -pprof\n" +
		"    \texpose /debug/pprof/* on the API port\n" +
		"  -rate-limit float\n" +
		"    \tper-client admission rate in requests/second (0 = disabled)\n"
	got := flagDefaults(help)
	want := map[string]string{
		"fetch-backoff": "50ms", "fsync": `"always"`, "max-concurrency": "64",
		"pprof": "", "rate-limit": "",
	}
	if len(got) != len(want) {
		t.Fatalf("flagDefaults = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("-%s default = %q, want %q", k, got[k], v)
		}
	}
}
