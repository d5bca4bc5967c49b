// Package node assembles one MCBound serving process from a validated
// Config: durable store → membership → leader/follower role → elector
// → resilient fetch → framework → model restore → follower bootstrap →
// initial train → admission → replay → HTTP API. mcbound-server, the
// failover and replication benches and the election chaos suite all
// boot their nodes through it, so the suites exercise the shipped
// wiring.
package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/cluster"
	"mcbound/internal/core"
	"mcbound/internal/election"
	"mcbound/internal/fetch"
	"mcbound/internal/fetch/chaos"
	"mcbound/internal/httpapi"
	"mcbound/internal/job"
	"mcbound/internal/ml/knn"
	"mcbound/internal/repl"
	"mcbound/internal/replay"
	"mcbound/internal/resilience"
	"mcbound/internal/store"
	"mcbound/internal/telemetry"
)

// Node is one assembled serving process.
type Node struct {
	cfg      Config
	log      *log.Logger
	st       *store.Store
	durable  *store.Durable // the boot leader's log; nil on a follower
	repl     *repl.Node
	follower *repl.Follower
	elector  *election.Elector
	fw       *core.Framework
	adm      *admission.Controller
	api      *httpapi.Server
	stop     context.CancelFunc
	wg       sync.WaitGroup
}

// New validates cfg and assembles the node. seed is the jobs data
// storage the binary loaded from Trace or Generate (nil for none): on a
// DataDir leader it becomes the first snapshot of an empty log, and
// existing durable state wins over it. New runs the follower bootstrap
// and the initial Training Workflow under ctx; a failure of either is
// logged and the node serves degraded. Call Run to start the background
// loops and Close to release the node.
func New(ctx context.Context, cfg Config, seed *store.Store) (_ *Node, err error) {
	p, err := cfg.parse()
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, log: cfg.Logger, st: seed}
	if n.log == nil {
		n.log = log.Default()
	}
	if n.st == nil {
		n.st = store.New()
	}
	defer func() {
		if err != nil {
			n.Close()
		}
	}()
	logf := n.log.Printf
	reg := telemetry.NewRegistry()

	// Durable job store: replay snapshot + WAL from DataDir before
	// serving, then route every insert through the log. A follower does
	// not open the log for writing — its DataDir is only warm-start
	// state and the promotion target.
	var durOpts store.DurableOptions
	if cfg.DataDir != "" {
		walHist := reg.Histogram("mcbound_wal_append_seconds",
			"WAL append latency per acknowledged batch (reserve to durability point).",
			telemetry.ExponentialBuckets(1e-5, 4, 10), nil)
		durOpts = store.DurableOptions{
			SegmentBytes:   cfg.SegmentBytes,
			Policy:         p.policy,
			Interval:       cfg.FsyncInterval,
			FS:             cfg.FS,
			SnapshotEvery:  cfg.SnapshotEvery,
			AppendObserver: walHist.Observe,
			BumpEpoch:      cfg.PromoteOnStart,
		}
		if cfg.Follow != "" {
			// Warm start: replay whatever durable state a previous life
			// of this node left, read-only (no truncation, no rotation,
			// no epoch writes). The follower re-syncs from the leader
			// either way; apply is last-writer-wins in log order, so a
			// stale warm store only saves bootstrap bytes, never wins.
			if _, serr := os.Stat(cfg.DataDir); serr == nil {
				if warm, rec, lerr := store.LoadReadOnly(cfg.DataDir, cfg.FS); lerr != nil {
					logf("warning: warm start from %s failed, bootstrapping cold: %v", cfg.DataDir, lerr)
				} else {
					n.st = warm
					logf("warm start from %s: %d jobs (recovery %s)", cfg.DataDir, warm.Len(), rec.Outcome())
				}
			}
		} else {
			if n.durable, err = store.OpenDurable(cfg.DataDir, n.st, durOpts); err != nil {
				return nil, fmt.Errorf("open durable store %s: %w", cfg.DataDir, err)
			}
			rec := n.durable.Recovery()
			logf("durable store %s: recovery %s (%d snapshot + %d log records, fsync=%s, epoch=%d)",
				cfg.DataDir, rec.Outcome(), rec.SnapshotRecords, rec.SegmentRecords, p.policy, n.durable.WAL().Epoch())
			if rec.Failure != nil {
				logf("warning: serving the clean prefix only — a corrupt WAL segment was quarantined: %v", rec.Failure)
			}
			n.st = n.durable.Store()
			logf("durable jobs data storage ready: %d jobs", n.st.Len())
		}
	}

	// Replication topology. A leader with a durable log serves the WAL-
	// shipping surface; a follower tails it, applying every CRC-verified
	// frame through the same decoder as crash recovery, and carries the
	// plan to take over on promotion.
	var client *repl.Client
	if cfg.Follow != "" {
		client = repl.NewClient(replClientConfig(cfg, p.members))
		n.follower, err = repl.NewFollower(repl.FollowerConfig{
			Client: client,
			Apply:  n.st.ApplyRecord,
			Poll:   cfg.FollowPoll,
			// Seeded ±jitter keeps a fleet of followers from polling the
			// leader in lockstep.
			Seed:   cfg.Seed,
			MaxLag: cfg.MaxLag,
			Logf:   logf,
		})
		if err != nil {
			return nil, err
		}
		n.repl = repl.NewFollowerNode(n.follower, cfg.Follow, repl.PromotePlan{
			Dir:     cfg.DataDir,
			Store:   n.st,
			Options: durOpts,
		})
	} else if n.durable != nil {
		n.repl = repl.NewLeader(n.durable)
		logf("replication leader: epoch %d, serving WAL at /v1/wal/segments", n.durable.WAL().Epoch())
	}

	// Lease-based elector: with NodeID/Peers the cluster drives its own
	// failover — the leader's writes are fenced the moment quorum acks
	// go stale, and followers elect a successor unassisted.
	if p.members.Size() > 0 {
		ecfg := election.Config{
			Members:         p.members,
			Node:            n.repl,
			LeaseTTL:        cfg.LeaseTTL,
			HeartbeatEvery:  cfg.HeartbeatEvery,
			MaxMissed:       cfg.MaxMissed,
			ElectionTimeout: cfg.ElectionTimeout,
			Seed:            cfg.Seed,
			Transport:       cfg.Transport,
			LeaseDir:        cfg.DataDir,
			FS:              cfg.FS,
			Logf:            logf,
		}
		if n.follower != nil {
			rn := n.repl
			ecfg.OnLeaderChange = func(u string) {
				rn.SetLeaderURL(u)
				client.Redirect(u)
			}
			// Before self-promoting, drain whatever durable prefix the
			// old leader can still serve, so no acknowledged write is
			// left behind a fenced epoch.
			ecfg.BeforePromote = election.FinalDrain(n.follower)
		}
		if n.elector, err = election.New(ecfg); err != nil {
			return nil, fmt.Errorf("election: %w", err)
		}
		logf("elector armed: node %s in %d-member cluster (quorum %d, lease %v, heartbeat %v)",
			cfg.NodeID, p.members.Size(), p.members.Quorum(), cfg.LeaseTTL, cfg.HeartbeatEvery)
	}

	// Fetch chain: store → optional fault injection → retries + breaker.
	// The framework and every workflow query the storage through it.
	var backend fetch.Backend = fetch.StoreBackend{Store: n.st}
	if cfg.ChaosRate > 0 {
		cb := chaos.New(backend, cfg.ChaosSeed)
		cb.SetAll(chaos.Profile{TransientRate: cfg.ChaosRate})
		backend = cb
		logf("fault injection armed: %.0f%% transient rate, seed %d", cfg.ChaosRate*100, cfg.ChaosSeed)
	}
	rcfg := fetch.DefaultResilienceConfig()
	rcfg.Retry.MaxAttempts = cfg.FetchAttempts
	rcfg.Retry.BaseDelay = cfg.FetchBackoff
	rcfg.Breaker.FailureThreshold = cfg.BreakerThreshold
	rcfg.Breaker.Cooldown = cfg.BreakerCooldown
	resilient := fetch.NewResilientBackend(backend, rcfg)
	resilient.Instrument(reg)

	ccfg := core.DefaultConfig()
	ccfg.Model = core.ModelKind(cfg.Model)
	ccfg.Alpha, ccfg.Beta = cfg.Alpha, cfg.Beta
	ccfg.ModelDir = cfg.ModelDir
	ccfg.KNN.Index.Mode = knn.IndexMode(cfg.Index)
	ccfg.KNN.Index.NProbe = cfg.NProbe
	if n.fw, err = core.New(ccfg, resilient); err != nil {
		return nil, err
	}
	n.fw.Encoder().SetCacheCapacity(cfg.EncodeCache)

	// Crash recovery: restore the newest valid persisted model before
	// training, so the node can answer inference even if the initial
	// Training Workflow fails (stale beats dead).
	if cfg.ModelDir != "" {
		if lrep, lerr := n.fw.LoadLatest(); lerr != nil {
			logf("no model restored from %s: %v", cfg.ModelDir, lerr)
		} else {
			if len(lrep.Quarantined) > 0 {
				logf("warning: %d corrupted model version(s) quarantined in %s: %v",
					len(lrep.Quarantined), cfg.ModelDir, lrep.Quarantined)
			}
			logf("restored model version %d from %s", lrep.Version, cfg.ModelDir)
		}
	}

	// Follower bootstrap: one synchronous sync round before the initial
	// training, so the first model fits on the leader's data rather than
	// an empty store. A failed round is not fatal — the background loop
	// keeps retrying and /healthz reports the follower disconnected.
	if n.follower != nil {
		syncCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		if serr := n.follower.SyncNow(syncCtx); serr != nil {
			logf("warning: initial replication sync failed (leader %s), serving degraded: %v", cfg.Follow, serr)
		} else {
			fs := n.follower.Status()
			logf("replication bootstrap complete: %d jobs applied, epoch %d, applied_seq %d",
				n.st.Len(), fs.Epoch, fs.AppliedSeq)
		}
		cancel()
	}

	// Initial Training Workflow (the deploy script of §III-E). A failure
	// is not fatal: the node comes up degraded — serving the restored
	// model if one loaded, 503 on /healthz otherwise — and the
	// retraining ticker keeps trying.
	at := p.trainAt
	if at.IsZero() {
		at = trainInstant(n.st)
	}
	rep, trainErr := n.fw.Train(ctx, at)
	if trainErr != nil {
		logf("warning: initial training failed, serving degraded: %v", trainErr)
	} else {
		logf("initial model trained: window [%s, %s), %d labeled jobs, %.3fs, version %d",
			rep.WindowStart.Format("2006-01-02"), rep.WindowEnd.Format("2006-01-02"),
			rep.LabeledJobs, rep.TrainDuration.Seconds(), rep.ModelVersion)
	}

	// Overload protection: the admission controller gates every route
	// (and the cron retrain) so a submission storm degrades into typed
	// 429/503 rejections instead of unbounded queueing.
	n.adm = admission.NewController(admission.Config{
		MaxConcurrency: cfg.MaxConcurrency,
		QueueDepth:     cfg.QueueDepth,
		RateLimit:      cfg.RateLimit,
	})

	// Server-side replay resource: a historical trace driven through
	// this node's own HTTP path at ×N speed via POST /v1/replay, scored
	// against the framework's roofline characterizer.
	var replayMgr *replay.Manager
	if cfg.ReplaySource != "" {
		src, lerr := store.LoadFile(cfg.ReplaySource)
		if lerr != nil {
			return nil, fmt.Errorf("load -replay-source %s: %w", cfg.ReplaySource, lerr)
		}
		char := n.fw.Characterizer()
		replayMgr = replay.NewManager(replay.Options{
			Source: src,
			Truth: func(j *job.Job) (job.Label, bool) {
				pt, cerr := char.Characterize(j)
				if cerr != nil {
					return job.Unknown, false
				}
				return pt.Label, true
			},
			Log: n.log,
		})
		logf("replay resource armed: %d trace records from %s", src.Len(), cfg.ReplaySource)
	}

	n.api = httpapi.New(n.fw, n.st, n.log, httpapi.Options{
		MaxBodyBytes:    cfg.MaxBodyBytes,
		EnablePprof:     cfg.Pprof,
		Registry:        reg,
		Breaker:         resilient.Breaker(),
		Admission:       n.adm,
		DefaultDeadline: cfg.DefaultDeadline,
		Durable:         n.durable,
		Repl:            n.repl,
		Elector:         n.elector,
		Replay:          replayMgr,
		StreamBatchSize: cfg.StreamBatch,
		SSEBufferSize:   cfg.SSEBuffer,
		SSEHeartbeat:    cfg.SSEHeartbeat,
	})
	if replayMgr != nil {
		replayMgr.SetTarget(n.api)
	}
	n.api.ObserveTrain(rep, trainErr)
	return n, nil
}

// Run starts the background loops — the follower's live tail, the
// elector and the cron retrain — and returns. They stop when ctx ends
// or Close is called.
func (n *Node) Run(ctx context.Context) {
	ctx, n.stop = context.WithCancel(ctx)
	if n.follower != nil {
		go n.follower.Run(ctx)
	}
	if n.elector != nil {
		go n.elector.Run(ctx)
	}
	if n.cfg.RetrainEvery > 0 {
		n.wg.Add(1)
		go n.retrainLoop(ctx)
	}
}

// retrainLoop is the cron-equivalent retraining ticker: retrain on the
// newest completed data (a live store advances as POST /v1/jobs
// delivers records, or as the replication stream applies the leader's).
// Each interval is drawn from the seeded jittered schedule so a fleet of
// replicas started together never retrains in lockstep.
func (n *Node) retrainLoop(ctx context.Context) {
	defer n.wg.Done()
	sched := core.NewRetrainSchedule(n.cfg.RetrainEvery, n.cfg.RetrainJitter, n.cfg.Seed)
	timer := time.NewTimer(sched.Next())
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			n.log.Printf("retraining ticker stopped")
			return
		case <-timer.C:
		}
		timer.Reset(sched.Next())
		at := trainInstant(n.st)
		// Retraining competes with inference for the same cores: admit
		// it at background priority so it holds at most a quarter of the
		// concurrency budget.
		tk, err := n.adm.Admit(ctx, admission.Background, "cron")
		if err != nil {
			n.log.Printf("cron retraining not admitted: %v", err)
			continue
		}
		rep, err := n.fw.Train(ctx, at)
		tk.Release()
		n.api.ObserveTrain(rep, err)
		if err != nil {
			n.log.Printf("cron retraining failed: %v", err)
			continue
		}
		n.log.Printf("cron retraining: window [%s, %s), %d labeled jobs, version %d",
			rep.WindowStart.Format("2006-01-02"), rep.WindowEnd.Format("2006-01-02"),
			rep.LabeledJobs, rep.ModelVersion)
	}
}

// Close stops the background loops and closes every durable store the
// node holds — the boot leader's and one a promotion attached.
func (n *Node) Close() error {
	if n.stop != nil {
		n.stop()
	}
	if n.elector != nil {
		n.elector.Stop()
	}
	if n.follower != nil {
		n.follower.Stop()
	}
	n.wg.Wait()
	var errs []error
	if n.repl != nil {
		if d := n.repl.Durable(); d != nil && d != n.durable {
			errs = append(errs, d.Close())
		}
	}
	if n.durable != nil {
		errs = append(errs, n.durable.Close())
	}
	return errors.Join(errs...)
}

// Handler is the node's HTTP API.
func (n *Node) Handler() *httpapi.Server { return n.api }

// Store is the live jobs data storage (it survives a promotion).
func (n *Node) Store() *store.Store { return n.st }

// Repl is the replication role; nil without DataDir or Follow.
func (n *Node) Repl() *repl.Node { return n.repl }

// Follower is the replication tail; nil unless Follow is set.
func (n *Node) Follower() *repl.Follower { return n.follower }

// Elector is the lease-based elector; nil without Peers.
func (n *Node) Elector() *election.Elector { return n.elector }

// replClientConfig builds the follower's replication client settings.
// The 421 redirect allowlist is the configured membership when Peers is
// set; a static Follow without peers admits only its own base, so no
// Location header can steer it at another address.
func replClientConfig(cfg Config, members cluster.Membership) repl.ClientConfig {
	ccfg := repl.ClientConfig{
		BaseURL: cfg.Follow,
		Retry: resilience.Policy{
			MaxAttempts: cfg.FetchAttempts,
			BaseDelay:   cfg.FetchBackoff,
		},
		Breaker: resilience.BreakerConfig{
			FailureThreshold: cfg.BreakerThreshold,
			Cooldown:         cfg.BreakerCooldown,
		},
		Seed: cfg.Seed,
		// One process-wide bucket: however many goroutines end up
		// retrying against the leader, their total retry amplification
		// stays a fraction of the success rate.
		Budget: resilience.NewBudget(resilience.BudgetConfig{}),
	}
	if members.Size() > 0 {
		ccfg.Allowed = members.ContainsURL
	} else {
		follow := strings.TrimRight(cfg.Follow, "/")
		ccfg.Allowed = func(base string) bool { return strings.TrimRight(base, "/") == follow }
	}
	return ccfg
}

// trainInstant is the reference instant of a training window: the
// newest job completion in st, or now when st holds none.
func trainInstant(st *store.Store) time.Time {
	var newest time.Time
	for _, j := range st.All() {
		if j.EndTime.After(newest) {
			newest = j.EndTime
		}
	}
	if newest.IsZero() {
		return time.Now().UTC()
	}
	return newest
}
