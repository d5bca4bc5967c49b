package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/core"
	"mcbound/internal/encode"
	"mcbound/internal/fetch"
	"mcbound/internal/httpapi"
	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/knn"
	"mcbound/internal/ml/rf"
	"mcbound/internal/store"
	"mcbound/internal/telemetry"
	"mcbound/internal/wal"
)

// The traced run builds the server in-process with the same wiring and
// defaults as cmd/mcbound-server, and times calls into each layer from
// this package through seams the program already has: an http.Handler
// around httpapi.Server, a fetch.Backend around the store, a
// core.Config.ModelFactory around the rf/knn model and the durable
// store's AppendObserver. The program itself carries no
// instrumentation.

// tracedHandler records a span per request around httpapi.Server.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.rec.now()
	h.next.ServeHTTP(w, r)
	h.rec.add("handler "+r.Method+" "+r.URL.Path, r.Header.Get(telemetry.RequestIDHeader), start, 0)
}

// tracedBackend records a span per training-window query and keeps the
// windows it returned for the descent pass.
type tracedBackend struct {
	fetch.Backend
	rec *recorder

	mu      sync.Mutex
	windows [][]*job.Job
}

func (b *tracedBackend) ExecutedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	if !b.rec.on.Load() {
		return b.Backend.ExecutedBetween(ctx, start, end)
	}
	s := b.rec.now()
	jobs, err := b.Backend.ExecutedBetween(ctx, start, end)
	b.rec.add("fetch.ExecutedBetween", "", s, len(jobs))
	b.mu.Lock()
	b.windows = append(b.windows, jobs)
	b.mu.Unlock()
	return jobs, err
}

func (b *tracedBackend) takeWindows() [][]*job.Job {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.windows
	b.windows = nil
	return w
}

// tracedModel records a span per Train and Predict call.
type tracedModel struct {
	ml.Classifier
	rec *recorder
}

func (m tracedModel) Train(x [][]float32, y []job.Label) error {
	if !m.rec.on.Load() {
		return m.Classifier.Train(x, y)
	}
	s := m.rec.now()
	err := m.Classifier.Train(x, y)
	m.rec.add("model.Train", "", s, len(x))
	return err
}

func (m tracedModel) Predict(x [][]float32) ([]job.Label, error) {
	if !m.rec.on.Load() {
		return m.Classifier.Predict(x)
	}
	s := m.rec.now()
	labels, err := m.Classifier.Predict(x)
	m.rec.add("model.Predict", "", s, len(x))
	return labels, err
}

// samples collects hook observations in seconds.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) observe(sec float64) {
	s.mu.Lock()
	s.xs = append(s.xs, sec)
	s.mu.Unlock()
}

func (s *samples) us() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.xs))
	for i, x := range s.xs {
		out[i] = x * 1e6
	}
	return out
}

// inProcess is the traced deployment's handles on its layers.
type inProcess struct {
	fw        *core.Framework
	api       *httpapi.Server
	backend   *tracedBackend
	walAppend *samples
	logger    *log.Logger
}

// The cmd/mcbound-server flag defaults that inProcessBoot writes out by
// hand. mirrorDefaults checks them against the binary under test.
const (
	ipMaxConcurrency   = 64
	ipQueueDepth       = 128
	ipFetchAttempts    = 4
	ipFetchBackoff     = 50 * time.Millisecond
	ipBreakerThreshold = 5
	ipBreakerCooldown  = 10 * time.Second
	ipSnapshotEvery    = 50000
	ipFsync            = "always"
	ipIndex            = "auto"
)

// mirrored is every server flag inProcessBoot mirrors, with the value
// it uses, printed the way the flag package prints a default ("" for a
// zero value, which it leaves out).
func mirrored() map[string]string {
	cfg := core.DefaultConfig()
	return map[string]string{
		"alpha":             strconv.Itoa(cfg.Alpha),
		"beta":              strconv.Itoa(cfg.Beta),
		"index":             strconv.Quote(ipIndex),
		"nprobe":            "",
		"encode-cache":      strconv.Itoa(encode.DefaultCacheCapacity),
		"max-concurrency":   strconv.Itoa(ipMaxConcurrency),
		"queue-depth":       strconv.Itoa(ipQueueDepth),
		"rate-limit":        "",
		"fetch-attempts":    strconv.Itoa(ipFetchAttempts),
		"fetch-backoff":     ipFetchBackoff.String(),
		"breaker-threshold": strconv.Itoa(ipBreakerThreshold),
		"breaker-cooldown":  ipBreakerCooldown.String(),
		"chaos-rate":        "",
		"fsync":             strconv.Quote(ipFsync),
		"fsync-interval":    wal.DefaultFsyncInterval.String(),
		"segment-bytes":     strconv.Itoa(wal.DefaultSegmentBytes),
		"snapshot-every":    strconv.Itoa(ipSnapshotEvery),
		"max-body-bytes":    strconv.Itoa(httpapi.DefaultMaxBodyBytes),
		"default-deadline":  httpapi.DefaultDeadline.String(),
		"stream-batch":      strconv.Itoa(httpapi.DefaultStreamBatch),
		"sse-buffer":        strconv.Itoa(httpapi.DefaultSSEBuffer),
		"sse-heartbeat":     httpapi.DefaultSSEHeartbeat.String(),
		"shutdown-timeout":  httpapi.DefaultDrainTimeout.String(),
		"retrain-every":     "",
		"model-dir":         "",
		"pprof":             "",
	}
}

// flagDefaults parses the usage text a Go flag set prints for -h into
// each flag's printed default; a flag printed without one is at its
// zero value and maps to "".
func flagDefaults(help string) map[string]string {
	out := map[string]string{}
	name := ""
	for _, line := range strings.Split(help, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(rest, " ")
			out[name] = ""
			continue
		}
		if name == "" {
			continue
		}
		if i := strings.LastIndex(line, "(default "); i >= 0 && strings.HasSuffix(line, ")") {
			out[name] = line[i+len("(default ") : len(line)-1]
		}
	}
	return out
}

// mirrorDefaults fails when the server binary's flag defaults differ
// from the values the in-process copy uses: the per-layer figures would
// otherwise describe a different configuration than the end-to-end
// ones.
func mirrorDefaults(bin string) error {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero on some Go versions
	got := flagDefaults(string(out))
	var diff []string
	for name, want := range mirrored() {
		if v, ok := got[name]; !ok || v != want {
			diff = append(diff, fmt.Sprintf("-%s: binary %q (present %v), in-process copy %q", name, v, ok, want))
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return fmt.Errorf("traced run: the in-process server no longer mirrors %s: %s", bin, strings.Join(diff, "; "))
	}
	return nil
}

// inProcessBoot mirrors cmd/mcbound-server run with the flags childBoot
// passes and every other flag at its default.
func (b *bench) inProcessBoot(history string, rec *recorder, hold **inProcess) bootFunc {
	return func(ctx context.Context, dir string) (*deployment, error) {
		if err := mirrorDefaults(b.server); err != nil {
			return nil, err
		}
		policy, err := wal.ParsePolicy(ipFsync)
		if err != nil {
			return nil, err
		}
		logf, err := os.Create(filepath.Join(dir, "server.log"))
		if err != nil {
			return nil, err
		}
		logger := log.New(logf, "", log.LstdFlags)
		st, err := store.LoadFile(history)
		if err != nil {
			logf.Close()
			return nil, err
		}
		reg := telemetry.NewRegistry()
		ip := &inProcess{walAppend: &samples{}, logger: logger}
		walHist := reg.Histogram("mcbound_wal_append_seconds",
			"WAL append latency per acknowledged batch (reserve to durability point).",
			telemetry.ExponentialBuckets(1e-5, 4, 10), nil)
		durable, err := store.OpenDurable(filepath.Join(dir, "data"), st, store.DurableOptions{
			SegmentBytes:  wal.DefaultSegmentBytes,
			Policy:        policy,
			Interval:      wal.DefaultFsyncInterval,
			SnapshotEvery: ipSnapshotEvery,
			AppendObserver: func(sec float64) {
				walHist.Observe(sec)
				if rec.on.Load() {
					ip.walAppend.observe(sec)
				}
			},
		})
		if err != nil {
			logf.Close()
			return nil, err
		}
		st = durable.Store()
		ip.backend = &tracedBackend{Backend: fetch.StoreBackend{Store: st}, rec: rec}
		rcfg := fetch.DefaultResilienceConfig()
		rcfg.Retry.MaxAttempts = ipFetchAttempts
		rcfg.Retry.BaseDelay = ipFetchBackoff
		rcfg.Breaker.FailureThreshold = ipBreakerThreshold
		rcfg.Breaker.Cooldown = ipBreakerCooldown
		resilient := fetch.NewResilientBackend(ip.backend, rcfg)
		resilient.Instrument(reg)

		cfg := frameworkConfig(b.spec.model)
		cfg.ModelFactory = func() (ml.Classifier, error) {
			if cfg.Model == core.ModelKNN {
				return tracedModel{knn.New(cfg.KNN), rec}, nil
			}
			return tracedModel{rf.New(cfg.RF), rec}, nil
		}
		if ip.fw, err = core.New(cfg, resilient); err != nil {
			durable.Close()
			logf.Close()
			return nil, err
		}
		if err := ip.fw.SetIndexOptions(ipIndex, 0); err != nil {
			durable.Close()
			logf.Close()
			return nil, err
		}
		ip.fw.Encoder().SetCacheCapacity(encode.DefaultCacheCapacity)
		trainRep, trainErr := ip.fw.Train(ctx, b.tr.t0.Add(-day))
		adm := admission.NewController(admission.Config{MaxConcurrency: ipMaxConcurrency, QueueDepth: ipQueueDepth})
		ip.api = httpapi.New(ip.fw, st, logger, httpapi.Options{
			MaxBodyBytes:    httpapi.DefaultMaxBodyBytes,
			Registry:        reg,
			Breaker:         resilient.Breaker(),
			Admission:       adm,
			DefaultDeadline: httpapi.DefaultDeadline,
			Durable:         durable,
			StreamBatchSize: httpapi.DefaultStreamBatch,
			SSEBufferSize:   httpapi.DefaultSSEBuffer,
			SSEHeartbeat:    httpapi.DefaultSSEHeartbeat,
		})
		ip.api.ObserveTrain(trainRep, trainErr)
		if trainErr != nil {
			durable.Close()
			logf.Close()
			return nil, fmt.Errorf("in-process initial train: %w", trainErr)
		}

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			durable.Close()
			logf.Close()
			return nil, err
		}
		srv := httpapi.NewHTTPServer(ln.Addr().String(), tracedHandler{ip.api, rec})
		sctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- httpapi.Serve(sctx, srv, ln, httpapi.DefaultDrainTimeout) }()
		*hold = ip
		a := newAPI("http://"+ln.Addr().String(), b.conns)
		stop := func() error {
			cancel()
			err := <-served
			if cerr := durable.Close(); err == nil {
				err = cerr
			}
			logf.Close()
			return err
		}
		if err := a.waitReady(ctx, 30*time.Second, nil); err != nil {
			_ = stop()
			return nil, err
		}
		return &deployment{a: a, stop: stop}, nil
	}
}

// layerRun is what a traced run collects for the per-layer metrics.
type layerRun struct {
	setup, run []span
	windows    [][]*job.Job
	requests   [][]*job.Job // inputs of the traced classify requests
	reqBodies  [][]byte
	hits       float64 // encode cache hit share over the traced phase
	sseEvents  int
	floor      shotStats
	late       dist
	overhead   float64
	gcFraction float64 // GC share of this process's CPU over the traced phase
}

// gcMeter reads the runtime's cumulative GC and total CPU time.
func gcMeter() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func gcShare(gc0, total0 float64) float64 {
	gc1, total1 := gcMeter()
	if total1 <= total0 {
		return 0
	}
	return (gc1 - gc0) / (total1 - total0)
}

// descent replays the traced inputs into each layer's public functions,
// one call at a time on an idle server, and returns the per-call µs of
// each.
type descentTimes struct {
	classify, encode, predict, admit, middleware, handler, label, window []float64
	allocsPerOp, bytesPerOp                                              float64
	jobs                                                                 int
}

func (b *bench) descend(ctx context.Context, ip *inProcess, rec *recorder, lr *layerRun) (descentTimes, error) {
	var dt descentTimes
	fw := ip.fw
	for _, jobs := range lr.requests {
		in := make([]*job.Job, len(jobs))
		for k, j := range jobs {
			in[k] = submitted(j)
		}
		dt.jobs += len(in)
		t := time.Now()
		fw.Encoder().Encode(in)
		dt.encode = append(dt.encode, us(time.Since(t)))
		rec.on.Store(true)
		t = time.Now()
		_, err := fw.ClassifyJobs(ctx, in)
		dt.classify = append(dt.classify, us(time.Since(t)))
		rec.on.Store(false)
		if err != nil {
			return dt, fmt.Errorf("descent classify: %w", err)
		}
		// A batch predicts in parallel chunks: count the wall time the
		// chunks cover, not their sum.
		var iv [][2]int64
		for _, s := range rec.take() {
			if s.Name == "model.Predict" {
				iv = append(iv, [2]int64{s.Start, s.End})
			}
		}
		dt.predict = append(dt.predict, us(time.Duration(covered(iv, math.MinInt64, math.MaxInt64))))
	}

	adm := admission.NewController(admission.Config{MaxConcurrency: ipMaxConcurrency, QueueDepth: ipQueueDepth})
	mw := telemetry.Chain(telemetry.Instrument(telemetry.NewRegistry(), "POST /v1/classify")(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})),
		telemetry.RequestID, telemetry.AccessLog(ip.logger), telemetry.Recover(ip.logger))
	for _, body := range lr.reqBodies {
		t := time.Now()
		tk, err := adm.Admit(ctx, admission.Interactive, "")
		if err != nil {
			return dt, fmt.Errorf("descent admit: %w", err)
		}
		tk.Release()
		dt.admit = append(dt.admit, us(time.Since(t)))
		req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
		t = time.Now()
		mw.ServeHTTP(httptest.NewRecorder(), req)
		dt.middleware = append(dt.middleware, us(time.Since(t)))
	}

	// The whole in-process handler stack, without the network: its time
	// and its allocations per request.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, body := range lr.reqBodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		t := time.Now()
		ip.api.ServeHTTP(rr, req)
		dt.handler = append(dt.handler, us(time.Since(t)))
		if rr.Code != http.StatusOK {
			return dt, fmt.Errorf("descent handler: status %d", rr.Code)
		}
	}
	runtime.ReadMemStats(&m1)
	dt.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(len(lr.reqBodies))
	dt.bytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(lr.reqBodies))

	// Training windows: label with a fresh characterizer and encode with
	// a shadow encoder that sees the windows in the order the live one
	// did, so its cache hits and misses follow the live pattern.
	shadow := encode.NewEncoder(nil, nil)
	for _, w := range lr.windows {
		cp := make([]*job.Job, len(w))
		for i, j := range w {
			c := *j
			c.TrueLabel = job.Unknown
			cp[i] = &c
		}
		t := time.Now()
		b.tr.char.GenerateLabels(cp)
		dt.label = append(dt.label, ms(time.Since(t)))
		labeled := cp[:0]
		for _, j := range cp {
			if j.TrueLabel != job.Unknown {
				labeled = append(labeled, j)
			}
		}
		t = time.Now()
		shadow.Encode(labeled)
		dt.window = append(dt.window, ms(time.Since(t)))
	}
	return dt, nil
}

// storeInsert times in-memory store inserts of batches into a store
// holding the history, per record.
func storeInsert(hist *store.Store, batches [][]*job.Job) ([]float64, error) {
	shadow := store.New()
	if err := shadow.Insert(hist.All()...); err != nil {
		return nil, err
	}
	var out []float64
	for _, batch := range batches {
		cp := make([]*job.Job, len(batch))
		for i, j := range batch {
			c := *j
			cp[i] = &c
		}
		t := time.Now()
		if err := shadow.Insert(cp...); err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(t))/float64(len(batch)))
	}
	return out, nil
}

// layerMetrics turns a traced run into the per-layer metrics.
func (b *bench) layerMetrics(lr *layerRun, dt descentTimes, ip *inProcess, ingestBatches [][]*job.Job) (map[string]metric, error) {
	all := append(append([]span(nil), lr.setup...), lr.run...)
	link(lr.run)
	self := selfTimes(lr.run)
	// A handler span's children are the model.Predict spans inside it
	// (when exactly one handler was open at the time): its self time is
	// the request path around the model.
	var netSelf, handler, handlerSelf, predictReq, client []float64
	for i, s := range lr.run {
		switch {
		case s.Name == "client POST /v1/classify":
			client = append(client, us(s.dur()))
			netSelf = append(netSelf, us(self[i]))
		case s.Name == "handler POST /v1/classify" && s.Req != "":
			handler = append(handler, us(s.dur()))
			handlerSelf = append(handlerSelf, us(self[i]))
			if self[i] < s.dur() {
				predictReq = append(predictReq, us(s.dur()-self[i]))
			}
		}
	}
	if len(client) == 0 || len(handler) != len(client) {
		return nil, fmt.Errorf("traced run: %d client spans, %d handler spans", len(client), len(handler))
	}
	predictLive, predicted := durations(lr.run, "model.Predict")
	predictSum := sumOf(predictLive)
	fetchUS, _ := durations(all, "fetch.ExecutedBetween")
	trainUS, _ := durations(all, "model.Train")
	var fetchRows []float64
	for _, s := range all {
		if s.Name == "fetch.ExecutedBetween" {
			fetchRows = append(fetchRows, float64(s.N))
		}
	}
	insert, err := storeInsert(b.tr.hist, ingestBatches)
	if err != nil {
		return nil, err
	}
	walUS := summarize(ip.walAppend.us())

	// In the descent each layer is timed from its own call on the same
	// inputs: the handler stack (httpapi.Server.ServeHTTP), the
	// middleware chain, Admit, ClassifyJobs, Encode and the model's
	// Predict spans. httpapi's self time is the handler stack minus the
	// layers it calls; core's is ClassifyJobs minus encode and predict.
	// net_http's is the live client span minus the live handler span,
	// and the model's is its live Predict span. The sum falls short of
	// the client p50 by whatever the live handler spends, outside the
	// model, beyond the same calls on the idle server: what contention
	// under load adds, which no seam outside the program can place.
	encodeUS, classifyUS, predictDescent := median(dt.encode), median(dt.classify), median(dt.predict)
	coreSelf := classifyUS - encodeUS - predictDescent
	jobsPerReq := float64(dt.jobs) / float64(len(dt.classify))
	httpapiSelf := median(dt.handler) - median(dt.middleware) - median(dt.admit) - classifyUS
	sum := median(netSelf) + httpapiSelf + median(dt.middleware) + median(dt.admit) + coreSelf + encodeUS + median(predictReq)
	b.rep["traced"] = map[string]any{
		"client_p50_us":          median(client),
		"handler_p50_us":         median(handler),
		"handler_self_p50_us":    median(handlerSelf),
		"descent_handler_us":     summarize(dt.handler),
		"self_sum_us":            sum,
		"descent_predict_us":     predictDescent,
		"live_predict_us":        summarize(predictReq),
		"descent_classify_us":    classifyUS,
		"wal_append_us":          walUS,
		"fetch_rows":             fetchRows,
		"loadgen_floor":          lr.floor,
		"tracing_overhead_ratio": lr.overhead,
		"spans":                  len(all),
		"jobs_per_request":       jobsPerReq,
	}
	return map[string]metric{
		"net_http.self_us":           {median(netSelf), "us"},
		"httpapi.self_us":            {httpapiSelf, "us"},
		"telemetry.middleware_us":    {median(dt.middleware), "us"},
		"admission.admit_us":         {median(dt.admit), "us"},
		"core.self_us":               {coreSelf, "us"},
		"core.batch_us_per_job":      {sumOf(dt.classify) / float64(dt.jobs), "us"},
		"encode.us_per_job":          {sumOf(dt.encode) / float64(dt.jobs), "us"},
		"encode.hit_ratio":           {lr.hits, "ratio"},
		"encode.window_ms":           {median(dt.window), "ms"},
		"model.predict_us":           {predictSum / float64(max(predicted, 1)), "us"},
		"model.train_ms":             {median(trainUS) / 1000, "ms"},
		"fetch.executed_ms":          {median(fetchUS) / 1000, "ms"},
		"fetch.rows":                 {median(fetchRows), "count"},
		"roofline.label_ms":          {median(dt.label), "ms"},
		"runtime.allocs_per_op":      {dt.allocsPerOp, "count"},
		"runtime.alloc_bytes_per_op": {dt.bytesPerOp, "B"},
		"runtime.gc_cpu_fraction":    {lr.gcFraction, "ratio"},
		"store.insert_us_per_record": {median(insert), "us"},
		"wal.append_p50_us":          {walUS.P50, "us"},
		"wal.append_tail_us":         {walUS.Tail, "us"},
		"wal.appends":                {float64(walUS.N), "count"},
		"httpapi.sse_events":         {float64(lr.sseEvents), "count"},
		"loadgen.late_p50_ms":        {lr.late.P50, "ms"},
		"loadgen.late_tail_ms":       {lr.late.Tail, "ms"},
		"loadgen.floor_p50_ms":       {lr.floor.Latency.P50, "ms"},
		"trace.overhead_ratio":       {lr.overhead, "ratio"},
		"trace.self_coverage":        {sum / median(client), "ratio"},
	}, nil
}

func sumOf(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// hitShare returns the encode-cache hit share between two snapshots.
func hitShare(a, b encode.CacheStats) float64 {
	h, m := float64(b.Hits-a.Hits), float64(b.Misses-a.Misses)
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// tracedSubmit is the traced run of submit-rf and submit-knn: set up
// once, offer half the nominal phase untraced and half traced, then
// replay the traced requests' inputs through the layers.
func (b *bench) tracedSubmit(ctx context.Context) (map[string]metric, error) {
	rec := newRecorder()
	var ip *inProcess
	rec.on.Store(true)
	n := int(b.spec.nominal*nominalShare*float64(b.seconds)) / 2
	lf, err := b.startLife(ctx, 0, func(history string) bootFunc { return b.inProcessBoot(history, rec, &ip) }, firstSubs(2*n))
	rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	tr, d, want := lf.tr, lf.d, lf.want
	defer d.a.close()
	lr := &layerRun{setup: rec.take(), windows: ip.backend.takeWindows()}

	subs := firstSubs(2 * n)(tr)
	st := &stream{jobs: subs, body: bodies(subs)}
	speed := b.spec.nominal / traceRate(subs)
	if lr.floor, err = noopFloor(arrivals(subs[:n], speed), b.conns); err != nil {
		_ = d.stop()
		return nil, err
	}
	jobsA, bodyA, okA := st.take(n)
	jobsB, bodyB, okB := st.take(n)
	if !okA || !okB {
		_ = d.stop()
		return nil, fmt.Errorf("trace has too few submissions for two phases of %d", n)
	}
	untraced := openLoop(arrivals(jobsA, speed), b.conns, b.sender(d.a, jobsA, bodyA, want, false))
	b.checkShots(untraced)

	c0 := ip.fw.Encoder().CacheStats()
	send := b.sender(d.a, jobsB, bodyB, want, true)
	gc0, total0 := gcMeter()
	rec.on.Store(true)
	traced := openLoop(arrivals(jobsB, speed), b.conns, func(i int) outcome {
		s := rec.now()
		o := send(i)
		rec.add("client POST /v1/classify", reqID(i), s, 1)
		return o
	})
	rec.on.Store(false)
	lr.gcFraction = gcShare(gc0, total0)
	b.checkShots(traced)
	lr.run = rec.take()
	lr.hits = hitShare(c0, ip.fw.Encoder().CacheStats())
	su, st2 := summarizeShots(b.spec.nominal, untraced), summarizeShots(b.spec.nominal, traced)
	lr.overhead = st2.Latency.P50/su.Latency.P50 - 1
	lr.late = st2.Late
	for i, j := range jobsB {
		lr.requests = append(lr.requests, []*job.Job{j})
		lr.reqBodies = append(lr.reqBodies, bodyB[i])
	}

	dt, err := b.descend(ctx, ip, rec, lr)
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("in-process server stop: %w", err)
	}
	if err := b.saveSpans(lr); err != nil {
		return nil, err
	}
	return b.layerMetrics(lr, dt, ip, [][]*job.Job{tr.boot})
}

// tracedReplay is the traced run of online-replay: the same days through
// the same API with every layer span recorded, then the descent pass.
func (b *bench) tracedReplay(ctx context.Context) (map[string]metric, error) {
	rec := newRecorder()
	var ip *inProcess
	rec.on.Store(true)
	lf, err := b.startLife(ctx, 0, func(history string) bootFunc { return b.inProcessBoot(history, rec, &ip) }, warmJobs)
	rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	d := lf.d
	defer d.a.close()
	in := b.replayInputs(b.daysPerLife() * b.spec.lives)
	lr := &layerRun{setup: rec.take(), windows: ip.backend.takeWindows()}
	sub, err := d.a.subscribe(ctx)
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	c0 := ip.fw.Encoder().CacheStats()
	gc0, total0 := gcMeter()
	days, served, err := b.replayDays(ctx, d.a, in, rec, nil)
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	lr.gcFraction = gcShare(gc0, total0)
	lr.run = rec.take()
	lr.hits = hitShare(c0, ip.fw.Encoder().CacheStats())
	lr.windows = append(lr.windows, ip.backend.takeWindows()...)
	lr.sseEvents = b.checkSSE(sub, served)
	var late, plainS, tracedS []float64
	batches := make([][]*job.Job, 0, len(in))
	for i, x := range in {
		if !tracedDay(i) {
			plainS = append(plainS, days[i].DayS)
			continue
		}
		tracedS = append(tracedS, days[i].DayS)
		late = append(late, days[i].HarnessMS)
		lr.requests = append(lr.requests, x.batch.jobs)
		lr.reqBodies = append(lr.reqBodies, x.batch.body)
		batches = append(batches, x.completed)
	}
	lr.late = summarize(late)
	lr.overhead = median(tracedS)/median(plainS) - 1
	if lr.floor, err = noopFloor(evenly(200, 200), b.conns); err != nil {
		_ = d.stop()
		return nil, err
	}
	dt, err := b.descend(ctx, ip, rec, lr)
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("in-process server stop: %w", err)
	}
	if err := b.checkOracle(ctx, days); err != nil {
		return nil, err
	}
	if err := b.saveSpans(lr); err != nil {
		return nil, err
	}
	b.rep["days"] = days
	return b.layerMetrics(lr, dt, ip, batches)
}

// tracedDay reports whether replayed day i runs traced: odd days do,
// so the even days measure the same work untraced and the difference
// is the tracing overhead.
func tracedDay(i int) bool { return i%2 == 1 }

// saveSpans writes the run's spans next to the build outputs.
func (b *bench) saveSpans(lr *layerRun) error {
	if b.spans == "" {
		return nil
	}
	if err := os.MkdirAll(b.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.spans, fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))
	b.rep["spans_file"] = path
	return writeSpans(path, append(append([]span(nil), lr.setup...), lr.run...))
}
