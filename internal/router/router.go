// Package router is the cluster's front door: a dependency-free HTTP
// proxy that spreads reads across healthy followers, forwards writes to
// the lease-holding leader, and keeps tail latency flat when part of
// the fleet misbehaves. Its four levers, in the order a request meets
// them: health-aware candidate selection with bounded staleness,
// rendezvous hashing for client affinity, hedged reads against a
// second backend after an adaptive p95 delay, and a global retry
// budget so a sick cluster sees less traffic, not a retry storm.
// Passive outlier ejection (consecutive failures → jittered cooldown)
// runs underneath all of it.
package router

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/cluster"
	"mcbound/internal/httpapi"
	"mcbound/internal/resilience"
	"mcbound/internal/stats"
	"mcbound/internal/telemetry"

	"context"
)

// Headers the router stamps on proxied responses.
const (
	// BackendHeader names the backend that served the response — chaos
	// tests and operators use it to see routing decisions.
	BackendHeader = "X-MCBound-Backend"
	// StalenessHeader carries the serving follower's replication lag in
	// seconds when the router had to fall back past the bounded-staleness
	// cut (brownout reads). Absent on fresh reads.
	StalenessHeader = "X-MCBound-Staleness"
)

// Defaults for the zero Config fields.
const (
	DefaultMaxReadLag       = 5 * time.Second
	DefaultHedgeAfterMin    = 5 * time.Millisecond
	DefaultMaxRetries       = 2
	DefaultEjectThreshold   = 5
	DefaultEjectCooldown    = 10 * time.Second
	DefaultMaxEjectFraction = 0.5
	DefaultPollEvery        = time.Second
	DefaultForwardTimeout   = 10 * time.Second
	DefaultMaxBodyBytes     = 8 << 20
	// maxWriteHops bounds the 421 Location chase on the write path,
	// mirroring the replication client.
	maxWriteHops = 3
	// reservoirCap bounds each backend's latency sample.
	reservoirCap = 512
	// hedgeQuantile is the per-backend latency quantile the hedge delay
	// adapts to.
	hedgeQuantile = 0.95
	// hedgeMinSamples gates the adaptive delay: below this many samples
	// a backend's p95 is noise and the floor is used instead.
	hedgeMinSamples = 20
)

// Config tunes the front door. Backends is required; every other zero
// value selects the documented default.
type Config struct {
	// Backends is the static member list the router fronts (it is not
	// itself a member). Member URLs double as the redirect allowlist.
	Backends []cluster.Member
	// MaxReadLag is the bounded-staleness cut: followers lagging more
	// than this are excluded from normal read routing.
	MaxReadLag time.Duration
	// HedgeAfterMin floors the adaptive hedge delay, so a quiet cluster
	// with sub-millisecond p95s does not hedge every request.
	HedgeAfterMin time.Duration
	// MaxRetries caps extra read attempts (distinct backends) after the
	// first; each one must also win a retry-budget token.
	MaxRetries int
	// RetryBudget configures the global token bucket shared by every
	// retried request.
	RetryBudget resilience.BudgetConfig
	// EjectThreshold is the consecutive-failure streak that ejects a
	// backend.
	EjectThreshold int
	// EjectCooldown is the base ejection length; the actual cooldown is
	// jittered uniformly over [0.5, 1.5)× so a fleet of routers does not
	// re-admit a struggling backend in lockstep.
	EjectCooldown time.Duration
	// MaxEjectFraction caps how much of the fleet may sit ejected at
	// once (0 < f < 1); an ejection that would cross it is skipped.
	MaxEjectFraction float64
	// PollEvery is the health-probe period.
	PollEvery time.Duration
	// ForwardTimeout bounds each proxied attempt (streams are exempt).
	ForwardTimeout time.Duration
	// MaxBodyBytes caps the buffered write body (the buffer is what
	// makes 421 re-forwarding safe).
	MaxBodyBytes int64
	// Seed drives every random choice (cooldown jitter) deterministically.
	Seed uint64
	// HTTP overrides the backend transport. It must not set an overall
	// Timeout (that would kill SSE streams); per-attempt deadlines come
	// from ForwardTimeout. Nil selects a plain client.
	HTTP *http.Client
	// Registry, when non-nil, receives the mcbound_router_* metrics.
	Registry *telemetry.Registry
	// Logf, when non-nil, receives routing decisions worth an operator's
	// attention (ejections, leader re-points, brownouts).
	Logf func(format string, args ...any)
}

// Router is the front door. Create with New, start the health poller
// with Run, serve it as an http.Handler.
type Router struct {
	cfg      Config
	hc       *http.Client
	backends []*backend
	byURL    map[string]*backend
	budget   *resilience.Budget
	met      *metrics
	now      func() time.Time

	rngMu sync.Mutex
	rng   *stats.RNG

	// refreshMu single-flights probe rounds; lastRefresh debounces the
	// failure-triggered ones.
	refreshMu   sync.Mutex
	lastRefresh time.Time

	// adopted is the leader learned from a successful 421 chase, used
	// until the next probe round confirms a self-identified leader.
	leaderMu sync.Mutex
	adopted  string

	repoints atomic64
	hedges   atomic64
}

// atomic64 is a tiny counter (metrics hold the authoritative copies;
// these back the CounterFuncs).
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) inc() {
	a.mu.Lock()
	a.v++
	a.mu.Unlock()
}

func (a *atomic64) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// New validates cfg, applies defaults and builds the router.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	if cfg.MaxReadLag <= 0 {
		cfg.MaxReadLag = DefaultMaxReadLag
	}
	if cfg.HedgeAfterMin <= 0 {
		cfg.HedgeAfterMin = DefaultHedgeAfterMin
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.EjectThreshold <= 0 {
		cfg.EjectThreshold = DefaultEjectThreshold
	}
	if cfg.EjectCooldown <= 0 {
		cfg.EjectCooldown = DefaultEjectCooldown
	}
	if cfg.MaxEjectFraction <= 0 || cfg.MaxEjectFraction >= 1 {
		cfg.MaxEjectFraction = DefaultMaxEjectFraction
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = DefaultPollEvery
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = DefaultForwardTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	hc := cfg.HTTP
	if hc == nil {
		hc = &http.Client{}
	}
	rt := &Router{
		cfg:    cfg,
		hc:     hc,
		byURL:  make(map[string]*backend, len(cfg.Backends)),
		budget: resilience.NewBudget(cfg.RetryBudget),
		now:    time.Now,
		rng:    stats.NewRNG(cfg.Seed),
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for i, m := range cfg.Backends {
		m.URL = strings.TrimRight(m.URL, "/")
		if m.ID == "" || m.URL == "" {
			return nil, fmt.Errorf("router: backend %d needs both id and url", i)
		}
		if seen[m.ID] || rt.byURL[m.URL] != nil {
			return nil, fmt.Errorf("router: duplicate backend %s (%s)", m.ID, m.URL)
		}
		seen[m.ID] = true
		b := &backend{
			member: m,
			res:    telemetry.NewReservoir(reservoirCap, cfg.Seed+uint64(i)+1),
		}
		rt.backends = append(rt.backends, b)
		rt.byURL[m.URL] = b
	}
	sort.Slice(rt.backends, func(i, j int) bool { return rt.backends[i].member.ID < rt.backends[j].member.ID })
	rt.met = newMetrics(cfg.Registry, rt)
	return rt, nil
}

// Budget exposes the global retry budget (health endpoint, tests).
func (rt *Router) Budget() *resilience.Budget { return rt.budget }

// Hedges reports how many hedge attempts have been launched.
func (rt *Router) Hedges() int64 { return rt.hedges.load() }

// isMember is the redirect allowlist: only configured backend URLs may
// be chased.
func (rt *Router) isMember(base string) bool {
	return rt.byURL[strings.TrimRight(base, "/")] != nil
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// Run probes the fleet once immediately, then on every poll tick until
// ctx ends.
func (rt *Router) Run(ctx context.Context) {
	rt.RefreshNow(ctx)
	t := time.NewTicker(rt.cfg.PollEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.RefreshNow(ctx)
		}
	}
}

// RefreshNow runs one probe round across every backend and waits for
// it. Concurrent callers serialize; each still gets a full round.
func (rt *Router) RefreshNow(ctx context.Context) {
	rt.refreshMu.Lock()
	defer rt.refreshMu.Unlock()
	rt.probeAll(ctx)
	rt.lastRefresh = rt.now()
}

// refreshSoon triggers an asynchronous debounced probe round — the
// data path calls it on failures so routing state catches up with a
// dying backend faster than the next poll tick, without letting a
// failure storm turn into a probe storm.
func (rt *Router) refreshSoon() {
	go func() {
		if !rt.refreshMu.TryLock() {
			return // a round is already running
		}
		defer rt.refreshMu.Unlock()
		if rt.now().Sub(rt.lastRefresh) < rt.cfg.PollEvery/4 {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), rt.probeTimeout())
		defer cancel()
		rt.probeAll(ctx)
		rt.lastRefresh = rt.now()
	}()
}

func (rt *Router) probeTimeout() time.Duration {
	d := rt.cfg.PollEvery
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// probeAll polls every backend's /healthz concurrently.
func (rt *Router) probeAll(ctx context.Context) {
	pctx, cancel := context.WithTimeout(ctx, rt.probeTimeout())
	defer cancel()
	var wg sync.WaitGroup
	now := rt.now()
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			b.probe(pctx, rt.hc, now)
		}(b)
	}
	wg.Wait()
	// A probe round that finds a self-identified leader supersedes any
	// chase-adopted one; keeping the adoption would pin writes to a
	// member the cluster may have moved past again.
	for _, b := range rt.backends {
		s := b.snapshot()
		if s.alive && s.isLeader() {
			rt.leaderMu.Lock()
			if rt.adopted != "" && rt.adopted != b.member.URL {
				rt.logf("router: probe confirmed leader %s, dropping adopted %s", b.member.URL, rt.adopted)
			}
			rt.adopted = ""
			rt.leaderMu.Unlock()
			break
		}
	}
}

// leaderURL resolves the current leader. A leader adopted from a 421
// chase wins first — it is fresher than any probe (the probe round that
// confirms a self-identified leader clears it). Then a backend that
// identifies itself as the lease-holding leader; then any live member's
// observation of where the leader lives — as long as it names a member.
func (rt *Router) leaderURL() string {
	rt.leaderMu.Lock()
	adopted := rt.adopted
	rt.leaderMu.Unlock()
	if lb := rt.byURL[strings.TrimRight(adopted, "/")]; lb != nil {
		if ls := lb.snapshot(); !ls.probed || ls.alive {
			return adopted
		}
	}
	for _, b := range rt.backends {
		s := b.snapshot()
		if s.probed && s.alive && s.isLeader() {
			return b.member.URL
		}
	}
	for _, b := range rt.backends {
		s := b.snapshot()
		if s.probed && s.alive && s.leaderURL != "" && rt.isMember(s.leaderURL) {
			// A member's stale observation may name a leader the router
			// already knows is dead; forwarding there would burn a write.
			if lb := rt.byURL[s.leaderURL]; lb != nil {
				if ls := lb.snapshot(); ls.probed && !ls.alive {
					continue
				}
			}
			return s.leaderURL
		}
	}
	return ""
}

// adopt records a leader learned from a 421 chase.
func (rt *Router) adopt(base string) {
	rt.leaderMu.Lock()
	changed := rt.adopted != base
	rt.adopted = base
	rt.leaderMu.Unlock()
	if changed {
		rt.repoints.inc()
		rt.logf("router: adopted leader %s from redirect chase", base)
	}
}

// clientKey is the rendezvous-hash key: the sanitized X-Client-Id when
// present, the remote host otherwise (same affinity rule as the
// admission layer's rate limiter).
func clientKey(r *http.Request) string {
	if id := admission.ParseClientID(r.Header.Get(admission.ClientIDHeader)); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// readCandidates assembles the preference-ordered backend list for a
// read: fresh followers by rendezvous order, then the leader as
// fallback, and — only when that set is empty — the freshest stale
// follower (brownout read, stale=true). An unprobed backend counts as
// fresh: at startup optimism beats serving nothing.
func (rt *Router) readCandidates(key string) (cands []*backend, stale bool, lag float64) {
	now := rt.now()
	var fresh []*backend
	var leader *backend
	var bestStale *backend
	bestLag := math.Inf(1)
	for _, b := range rt.backends {
		s := b.snapshot()
		if (s.probed && !s.alive) || b.ejected(now) {
			continue
		}
		if s.isLeader() {
			leader = b
			continue
		}
		if s.followState != "disconnected" && s.lagSeconds <= rt.cfg.MaxReadLag.Seconds() {
			fresh = append(fresh, b)
			continue
		}
		if s.lagSeconds < bestLag {
			bestStale, bestLag = b, s.lagSeconds
		}
	}
	sort.SliceStable(fresh, func(i, j int) bool {
		return rendezvousScore(fresh[i].member.ID, key) > rendezvousScore(fresh[j].member.ID, key)
	})
	cands = fresh
	if leader != nil {
		cands = append(cands, leader)
	}
	if len(cands) == 0 && bestStale != nil {
		return []*backend{bestStale}, true, bestLag
	}
	return cands, false, 0
}

// hedgeDelay is when a read's second attempt launches: the smallest
// p95 among the candidate backends (any of them could serve the hedge),
// floored at HedgeAfterMin. Keying on the *fleet's* best p95 rather
// than the primary's own means a uniformly slow backend still gets
// hedged around — its own p95 would never fire.
func (rt *Router) hedgeDelay(cands []*backend) time.Duration {
	best := math.Inf(1)
	for _, b := range cands {
		if b.res.Count() < hedgeMinSamples {
			continue
		}
		if p, ok := b.res.Quantile(hedgeQuantile); ok && p < best {
			best = p
		}
	}
	d := rt.cfg.HedgeAfterMin
	if !math.IsInf(best, 1) {
		if bd := time.Duration(best * float64(time.Second)); bd > d {
			d = bd
		}
	}
	return d
}

// cooldownJitter draws the ejection cooldown multiplier in [0.5, 1.5).
func (rt *Router) cooldownJitter() float64 {
	rt.rngMu.Lock()
	defer rt.rngMu.Unlock()
	return 0.5 + rt.rng.Float64()
}

// noteSuccess clears a backend's failure streak.
func (rt *Router) noteSuccess(b *backend) { b.observeSuccess() }

// noteFailure counts one failed forward against b and ejects it when
// the streak crosses the threshold — unless ejecting would leave too
// little of the fleet in service (MaxEjectFraction floor).
func (rt *Router) noteFailure(b *backend) {
	if b == nil {
		return
	}
	streak := b.observeFailure()
	rt.refreshSoon()
	if streak < rt.cfg.EjectThreshold {
		return
	}
	now := rt.now()
	ejected := 0
	for _, o := range rt.backends {
		if o != b && o.ejected(now) {
			ejected++
		}
	}
	if float64(ejected+1) > rt.cfg.MaxEjectFraction*float64(len(rt.backends)) {
		// The floor: shedding this backend would eject too much of the
		// fleet. Keep it in rotation — degraded service beats none.
		return
	}
	cd := time.Duration(float64(rt.cfg.EjectCooldown) * rt.cooldownJitter())
	b.eject(now.Add(cd))
	rt.met.ejections.Inc()
	rt.logf("router: ejected %s for %v after %d consecutive failures", b.member.ID, cd.Round(time.Millisecond), streak)
}

// ServeHTTP routes: the router's own endpoints first, then proxying.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		rt.handleHealth(w, r)
	case r.URL.Path == "/metrics" && r.Method == http.MethodGet && rt.cfg.Registry != nil:
		rt.cfg.Registry.Handler().ServeHTTP(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/v1/predictions/stream":
		rt.forwardReadStream(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs/stream":
		rt.forwardWriteStream(w, r)
	case r.Method == http.MethodGet || r.Method == http.MethodHead:
		rt.forwardRead(w, r)
	default:
		rt.forwardWrite(w, r)
	}
}

// writeError emits the same JSON envelope the backends use, so clients
// see one error schema no matter which layer failed.
func (rt *Router) writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":%s,"code":%q}`+"\n", strconv.Quote(msg), code)
}

// retryAfterSeconds is the brownout hint: roughly one poll period,
// rounded up — by then the router has re-probed the fleet.
func (rt *Router) retryAfterSeconds() string {
	s := int(math.Ceil(rt.cfg.PollEvery.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// handleHealth reports the router's own view of the fleet.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	now := rt.now()
	type row struct {
		ID       string  `json:"id"`
		URL      string  `json:"url"`
		Alive    bool    `json:"alive"`
		Role     string  `json:"role,omitempty"`
		Lag      float64 `json:"replication_lag_seconds"`
		Ejected  bool    `json:"ejected"`
		Failures int64   `json:"ejections_total"`
	}
	rows := make([]row, 0, len(rt.backends))
	available := 0
	for _, b := range rt.backends {
		s := b.snapshot()
		ej := b.ejected(now)
		alive := !s.probed || s.alive
		if alive && !ej {
			available++
		}
		rows = append(rows, row{
			ID: b.member.ID, URL: b.member.URL,
			Alive: alive, Role: s.role, Lag: s.lagSeconds,
			Ejected: ej, Failures: b.ejectionCount(),
		})
	}
	leader := rt.leaderURL()
	status := http.StatusOK
	state := "ok"
	if available == 0 {
		status, state = http.StatusServiceUnavailable, "no_backend"
	} else if leader == "" {
		state = "no_leader" // reads still served: brownout, not outage
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"status":%q,"leader":%q,"available":%d,"backends":`, state, leader, available)
	writeJSONValue(w, rows)
	fmt.Fprintf(w, `,"retry_budget_tokens":%g,"retries_total":%d,"retries_denied_total":%d}`+"\n",
		rt.budget.Tokens(), rt.budget.Retries(), rt.budget.Exhausted())
}

func writeJSONValue(w io.Writer, v any) {
	data, err := jsonMarshal(v)
	if err != nil {
		io.WriteString(w, "null")
		return
	}
	w.Write(data)
}

// --- read path ---------------------------------------------------------

// forwardRead serves GET/HEAD: candidate selection, hedging, budgeted
// retries across distinct backends.
func (rt *Router) forwardRead(w http.ResponseWriter, r *http.Request) {
	cands, stale, lag := rt.readCandidates(clientKey(r))
	if len(cands) == 0 {
		rt.met.requests("read", "no_backend").Inc()
		rt.writeError(w, http.StatusServiceUnavailable, httpapi.CodeNoBackend,
			"no backend can serve this read: every member is down, ejected, or too stale")
		return
	}
	hedgeAfter := rt.hedgeDelay(cands)
	var lastErr error
	for attempt := 0; attempt < len(cands) && attempt <= rt.cfg.MaxRetries; attempt++ {
		if attempt > 0 && !rt.budget.Allow() {
			rt.met.requests("read", "retry_budget").Inc()
			rt.writeError(w, http.StatusServiceUnavailable, httpapi.CodeRetryBudget,
				fmt.Sprintf("retry budget exhausted after: %v", lastErr))
			return
		}
		primary := cands[attempt]
		var hedge *backend
		if !stale && attempt+1 < len(cands) {
			hedge = cands[attempt+1]
		}
		resp, by, release, err := rt.attemptRead(r, primary, hedge, hedgeAfter)
		if err != nil {
			lastErr = err
			continue
		}
		rt.budget.OnSuccess()
		if stale {
			w.Header().Set(StalenessHeader, strconv.FormatFloat(lag, 'f', 3, 64))
			rt.met.staleReads.Inc()
		}
		rt.met.requests("read", "ok").Inc()
		rt.relay(w, resp, by.member.ID, false)
		release()
		return
	}
	rt.met.requests("read", "upstream_error").Inc()
	rt.writeError(w, http.StatusBadGateway, httpapi.CodeUpstream,
		fmt.Sprintf("every read candidate failed: %v", lastErr))
}

// tryResult is one backend attempt's outcome.
type tryResult struct {
	resp   *http.Response
	err    error
	b      *backend
	cancel context.CancelFunc
	dur    time.Duration
}

// attemptRead runs one (possibly hedged) read attempt. On success the
// returned release func must be called after the response body has been
// consumed — it cancels the winner's context. Losers are canceled and
// drained here. A response ≥ 500 counts as failure.
func (rt *Router) attemptRead(r *http.Request, primary, hedge *backend, hedgeAfter time.Duration) (*http.Response, *backend, func(), error) {
	ch := make(chan tryResult, 2)
	// cancels is touched only from this goroutine (launches happen in
	// the select loop below), so it needs no lock.
	cancels := make(map[*backend]context.CancelFunc, 2)
	launch := func(b *backend) {
		actx, cancel := context.WithTimeout(r.Context(), rt.cfg.ForwardTimeout)
		cancels[b] = cancel
		req, err := rt.cloneRequest(actx, r, b.member.URL, nil)
		if err != nil {
			ch <- tryResult{err: err, b: b, cancel: cancel}
			return
		}
		go func() {
			start := time.Now()
			resp, err := rt.hc.Do(req)
			ch <- tryResult{resp: resp, err: err, b: b, cancel: cancel, dur: time.Since(start)}
		}()
	}
	launch(primary)
	inFlight := 1
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if hedge != nil {
		hedgeTimer = time.NewTimer(hedgeAfter)
		hedgeC = hedgeTimer.C
		defer hedgeTimer.Stop()
	}
	var lastErr error
	for inFlight > 0 {
		select {
		case res := <-ch:
			inFlight--
			if res.err == nil && res.resp.StatusCode < http.StatusInternalServerError {
				// Winner. Cancel anything still in flight right now — the
				// loser's transport aborts instead of running to completion
				// — and leave a drainer to close whatever it returns, so no
				// goroutine or connection outlives the request.
				rt.observeWin(res)
				if res.b == hedge {
					rt.met.hedgeWins.Inc()
				}
				for b, cancel := range cancels {
					if b != res.b {
						cancel()
					}
				}
				if inFlight > 0 {
					rt.drainLosers(ch, inFlight)
				}
				return res.resp, res.b, res.cancel, nil
			}
			lastErr = rt.observeLoss(res)
		case <-hedgeC:
			hedgeC = nil
			launch(hedge)
			inFlight++
			rt.hedges.inc()
			rt.met.hedges.Inc()
		}
	}
	return nil, nil, nil, lastErr
}

// observeWin records a successful attempt: latency sample, streak
// reset, per-backend metric.
func (rt *Router) observeWin(res tryResult) {
	res.b.res.Observe(res.dur.Seconds())
	rt.noteSuccess(res.b)
	rt.met.backendRequests(res.b.member.ID, "ok").Inc()
	rt.met.forwardSeconds.Observe(res.dur.Seconds())
}

// observeLoss records a failed attempt and returns the error to carry.
func (rt *Router) observeLoss(res tryResult) error {
	err := res.err
	if res.resp != nil {
		io.Copy(io.Discard, io.LimitReader(res.resp.Body, 4096))
		res.resp.Body.Close()
		err = fmt.Errorf("backend %s answered %d", res.b.member.ID, res.resp.StatusCode)
	}
	res.cancel()
	rt.noteFailure(res.b)
	rt.met.backendRequests(res.b.member.ID, "error").Inc()
	return err
}

// drainLosers reaps already-canceled in-flight attempts after a
// winner: collect their results off the buffered channel, release
// their contexts, close any bodies. Runs async so the winner relays
// without waiting for the loser's transport to notice the cancellation.
func (rt *Router) drainLosers(ch chan tryResult, n int) {
	go func() {
		for i := 0; i < n; i++ {
			res := <-ch
			res.cancel()
			if res.resp != nil {
				res.resp.Body.Close()
				if res.err == nil && res.resp.StatusCode < http.StatusInternalServerError {
					rt.met.backendRequests(res.b.member.ID, "hedge_loser").Inc()
				}
			}
		}
	}()
}

// --- write path --------------------------------------------------------

// forwardWrite buffers the body (bounded) and forwards to the leader,
// chasing 421 redirects within the membership. Transport failures are
// never blindly retried — the write may have been applied — so the
// client gets a typed 502 and decides.
func (rt *Router) forwardWrite(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBodyBytes+1))
	if err != nil {
		rt.met.requests("write", "bad_body").Inc()
		rt.writeError(w, http.StatusBadRequest, "bad_request", "reading request body: "+err.Error())
		return
	}
	if int64(len(body)) > rt.cfg.MaxBodyBytes {
		rt.met.requests("write", "too_large").Inc()
		rt.writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("write body exceeds the router's %d-byte buffer", rt.cfg.MaxBodyBytes))
		return
	}
	leader := rt.leaderURL()
	if leader == "" {
		rt.RefreshNow(r.Context())
		leader = rt.leaderURL()
	}
	if leader == "" {
		rt.brownoutWrite(w, nil)
		return
	}
	chase := resilience.NewChase(leader, maxWriteHops, rt.isMember)
	for {
		actx, cancel := context.WithTimeout(r.Context(), rt.cfg.ForwardTimeout)
		req, rerr := rt.cloneRequest(actx, r, leader, bytes.NewReader(body))
		if rerr != nil {
			cancel()
			rt.met.requests("write", "internal").Inc()
			rt.writeError(w, http.StatusInternalServerError, "internal", rerr.Error())
			return
		}
		start := time.Now()
		resp, derr := rt.hc.Do(req)
		if derr != nil {
			cancel()
			rt.noteFailure(rt.byURL[leader])
			rt.met.requests("write", "upstream_error").Inc()
			rt.met.backendRequests(backendID(rt.byURL[leader]), "error").Inc()
			// The write may or may not have landed; only the client knows
			// whether it is idempotent. 502, not a silent retry.
			rt.writeError(w, http.StatusBadGateway, httpapi.CodeUpstream,
				"leader unreachable mid-write (the write may not have been applied): "+derr.Error())
			return
		}
		if resp.StatusCode == http.StatusMisdirectedRequest {
			loc := resp.Header.Get("Location")
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			cancel()
			next, ok, cerr := chase.Follow(loc)
			if cerr != nil {
				rt.met.requests("write", "redirect_denied").Inc()
				rt.writeError(w, http.StatusBadGateway, httpapi.CodeUpstream,
					"backend redirected outside cluster membership: "+cerr.Error())
				return
			}
			if !ok {
				// Chased to the hop bound without finding a leader: the
				// cluster is mid-election. Brownout.
				rt.refreshSoon()
				rt.brownoutWrite(w, fmt.Errorf("no member accepted the write after %d redirects", maxWriteHops))
				return
			}
			leader = next
			rt.adopt(next)
			continue
		}
		// 503 lease_lost (and friends) relay as-is but nudge a re-probe so
		// the next write lands on the new leader.
		if resp.StatusCode == http.StatusServiceUnavailable {
			rt.refreshSoon()
		}
		b := rt.byURL[leader]
		if resp.StatusCode < http.StatusInternalServerError {
			rt.noteSuccess(b)
			rt.budget.OnSuccess()
			rt.met.backendRequests(backendID(b), "ok").Inc()
			rt.met.requests("write", "ok").Inc()
			rt.met.forwardSeconds.Observe(time.Since(start).Seconds())
		} else {
			rt.noteFailure(b)
			rt.met.backendRequests(backendID(b), "error").Inc()
			rt.met.requests("write", "upstream_5xx").Inc()
		}
		rt.relay(w, resp, backendID(b), false)
		cancel()
		return
	}
}

func backendID(b *backend) string {
	if b == nil {
		return "unknown"
	}
	return b.member.ID
}

// brownoutWrite is the typed fail-fast when no leader is known: 503 +
// Retry-After, so clients back off exactly one probe period instead of
// hammering a leaderless cluster.
func (rt *Router) brownoutWrite(w http.ResponseWriter, cause error) {
	rt.met.requests("write", "no_leader").Inc()
	w.Header().Set("Retry-After", rt.retryAfterSeconds())
	msg := "no leader holds the lease; writes fail fast until the cluster elects one"
	if cause != nil {
		msg += " (" + cause.Error() + ")"
	}
	rt.writeError(w, http.StatusServiceUnavailable, httpapi.CodeNoLeader, msg)
	rt.logf("router: write browned out: %s", msg)
}

// --- streams -----------------------------------------------------------

// forwardReadStream proxies the SSE prediction stream: pinned to one
// rendezvous-chosen backend, unhedged, flushed per chunk, no attempt
// timeout. A mid-stream backend death ends the response; the client
// reconnects with Last-Event-ID and lands on another backend.
func (rt *Router) forwardReadStream(w http.ResponseWriter, r *http.Request) {
	cands, stale, lag := rt.readCandidates(clientKey(r))
	if len(cands) == 0 {
		rt.met.requests("stream", "no_backend").Inc()
		rt.writeError(w, http.StatusServiceUnavailable, httpapi.CodeNoBackend, "no backend can serve this stream")
		return
	}
	var lastErr error
	for i, b := range cands {
		if i > 0 && !rt.budget.Allow() {
			rt.met.requests("stream", "retry_budget").Inc()
			rt.writeError(w, http.StatusServiceUnavailable, httpapi.CodeRetryBudget,
				fmt.Sprintf("retry budget exhausted after: %v", lastErr))
			return
		}
		req, err := rt.cloneRequest(r.Context(), r, b.member.URL, nil)
		if err != nil {
			rt.writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		resp, err := rt.hc.Do(req)
		if err != nil {
			lastErr = err
			rt.noteFailure(b)
			rt.met.backendRequests(b.member.ID, "error").Inc()
			continue
		}
		if resp.StatusCode >= http.StatusInternalServerError {
			lastErr = fmt.Errorf("backend %s answered %d", b.member.ID, resp.StatusCode)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			rt.noteFailure(b)
			rt.met.backendRequests(b.member.ID, "error").Inc()
			continue
		}
		rt.noteSuccess(b)
		rt.budget.OnSuccess()
		rt.met.backendRequests(b.member.ID, "ok").Inc()
		rt.met.requests("stream", "ok").Inc()
		if stale {
			w.Header().Set(StalenessHeader, strconv.FormatFloat(lag, 'f', 3, 64))
		}
		rt.relay(w, resp, b.member.ID, true)
		return
	}
	rt.met.requests("stream", "upstream_error").Inc()
	rt.writeError(w, http.StatusBadGateway, httpapi.CodeUpstream,
		fmt.Sprintf("every stream candidate failed: %v", lastErr))
}

// forwardWriteStream proxies the NDJSON ingest stream to the leader
// unbuffered. The body is consumed as it forwards, so there is exactly
// one attempt: no chase, no retry — a mid-stream failure surfaces to
// the client, which owns resumption.
func (rt *Router) forwardWriteStream(w http.ResponseWriter, r *http.Request) {
	leader := rt.leaderURL()
	if leader == "" {
		rt.RefreshNow(r.Context())
		leader = rt.leaderURL()
	}
	if leader == "" {
		rt.brownoutWrite(w, nil)
		return
	}
	req, err := rt.cloneRequest(r.Context(), r, leader, r.Body)
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		rt.noteFailure(rt.byURL[leader])
		rt.met.requests("stream_write", "upstream_error").Inc()
		rt.writeError(w, http.StatusBadGateway, httpapi.CodeUpstream,
			"leader unreachable mid-ingest (a prefix may have been applied): "+err.Error())
		return
	}
	b := rt.byURL[leader]
	if resp.StatusCode < http.StatusInternalServerError {
		rt.noteSuccess(b)
		rt.met.requests("stream_write", "ok").Inc()
	} else {
		rt.noteFailure(b)
		rt.met.requests("stream_write", "upstream_5xx").Inc()
	}
	rt.relay(w, resp, backendID(b), true)
}

// --- proxy plumbing ----------------------------------------------------

// hopByHop are the connection-scoped headers a proxy must not relay.
var hopByHop = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// cloneRequest rebuilds r against a backend base URL, carrying method,
// URI, headers (minus hop-by-hop) and the provided body.
func (rt *Router) cloneRequest(ctx context.Context, r *http.Request, base string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, base+r.URL.RequestURI(), body)
	if err != nil {
		return nil, err
	}
	for k, vs := range r.Header {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		req.Header[k] = vs
	}
	req.Header.Set("X-Forwarded-For", remoteHost(r))
	return req, nil
}

func remoteHost(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// relay copies a backend response to the client. streaming relays
// flush after every chunk so SSE events cross the proxy immediately.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, backendID string, streaming bool) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		h[k] = vs
	}
	h.Set(BackendHeader, backendID)
	w.WriteHeader(resp.StatusCode)
	if streaming {
		flusher, _ := w.(http.Flusher)
		buf := make([]byte, 32*1024)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
			if err != nil {
				return
			}
		}
	}
	io.Copy(w, resp.Body)
}
