package node

import (
	"flag"
	"fmt"
	"log"
	"time"

	"mcbound/internal/cluster"
	"mcbound/internal/core"
	"mcbound/internal/election"
	"mcbound/internal/encode"
	"mcbound/internal/httpapi"
	"mcbound/internal/wal"
)

// Config configures one serving process: one field per mcbound-server
// flag (RegisterFlags names each field's flag, default and usage), plus
// three substitution seams the fault-injection suites use.
type Config struct {
	Trace           string
	Generate        bool
	Scale           float64
	Seed            uint64
	Model           string
	Index           string
	NProbe          int
	Alpha, Beta     int
	ModelDir        string
	Port            int
	TrainAt         string
	MaxBodyBytes    int64
	Pprof           bool
	RetrainEvery    time.Duration
	ShutdownTimeout time.Duration
	EncodeCache     int

	MaxConcurrency  int
	QueueDepth      int
	DefaultDeadline time.Duration
	RateLimit       float64

	FetchAttempts    int
	FetchBackoff     time.Duration
	BreakerThreshold int
	BreakerCooldown  time.Duration
	ChaosRate        float64
	ChaosSeed        uint64

	DataDir       string
	Fsync         string
	FsyncInterval time.Duration
	SegmentBytes  int64
	SnapshotEvery int

	StreamBatch  int
	SSEBuffer    int
	SSEHeartbeat time.Duration
	ReplaySource string

	Follow         string
	FollowPoll     time.Duration
	MaxLag         time.Duration
	PromoteOnStart bool
	RetrainJitter  float64

	NodeID          string
	Peers           string
	LeaseTTL        time.Duration
	HeartbeatEvery  time.Duration
	ElectionTimeout time.Duration
	MaxMissed       int

	// Transport carries the elector's lease polls and acks; nil selects
	// the production HTTP transport.
	Transport election.Transport
	// FS is the filesystem under DataDir; nil selects wal.OS.
	FS wal.FS
	// Logger receives the node's log lines; nil selects log.Default().
	Logger *log.Logger
}

// RegisterFlags binds every field but the seams to its mcbound-server
// flag on fs, setting each field to the flag's default.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Trace, "trace", "", "JSONL trace file backing the jobs data storage")
	fs.BoolVar(&c.Generate, "generate", false, "generate a synthetic trace instead of loading one")
	fs.Float64Var(&c.Scale, "scale", 0.01, "synthetic trace scale (with -generate)")
	fs.Uint64Var(&c.Seed, "seed", 7, "synthetic trace seed (with -generate)")
	fs.StringVar(&c.Model, "model", "rf", "classification model: rf or knn")
	fs.StringVar(&c.Index, "index", "auto", "KNN IVF index switch: auto (build above the group threshold), on, off")
	fs.IntVar(&c.NProbe, "nprobe", 0, "IVF cells scanned per query (0 = index default)")
	fs.IntVar(&c.Alpha, "alpha", 15, "training window in days")
	fs.IntVar(&c.Beta, "beta", 1, "retraining period in days")
	fs.StringVar(&c.ModelDir, "model-dir", "", "directory for versioned model files (empty = no persistence)")
	fs.IntVar(&c.Port, "port", 8080, "listen port")
	fs.StringVar(&c.TrainAt, "train-at", "", "reference instant (RFC 3339) for the initial training window; default = newest job completion")
	fs.Int64Var(&c.MaxBodyBytes, "max-body-bytes", httpapi.DefaultMaxBodyBytes, "request body size cap in bytes")
	fs.BoolVar(&c.Pprof, "pprof", false, "expose /debug/pprof/* on the API port")
	fs.DurationVar(&c.RetrainEvery, "retrain-every", 0, "wall-clock retraining period for the cron ticker (0 = disabled)")
	fs.DurationVar(&c.ShutdownTimeout, "shutdown-timeout", httpapi.DefaultDrainTimeout, "in-flight request drain budget on shutdown")
	fs.IntVar(&c.EncodeCache, "encode-cache", encode.DefaultCacheCapacity, "embedding cache capacity in entries (0 = disabled)")
	fs.IntVar(&c.MaxConcurrency, "max-concurrency", 64, "hard ceiling on concurrent requests (the adaptive limit stays below it)")
	fs.IntVar(&c.QueueDepth, "queue-depth", 128, "admission wait-queue capacity across all priority tiers")
	fs.DurationVar(&c.DefaultDeadline, "default-deadline", httpapi.DefaultDeadline, "per-request deadline for interactive routes (X-Request-Timeout overrides, clamped)")
	fs.Float64Var(&c.RateLimit, "rate-limit", 0, "per-client admission rate in requests/second (0 = disabled)")
	fs.IntVar(&c.FetchAttempts, "fetch-attempts", 4, "attempts per storage query (retries with jittered exponential backoff)")
	fs.DurationVar(&c.FetchBackoff, "fetch-backoff", 50*time.Millisecond, "base backoff between storage query retries")
	fs.IntVar(&c.BreakerThreshold, "breaker-threshold", 5, "consecutive storage failures before the circuit breaker opens")
	fs.DurationVar(&c.BreakerCooldown, "breaker-cooldown", 10*time.Second, "open-breaker cooldown before a half-open probe")
	fs.Float64Var(&c.ChaosRate, "chaos-rate", 0, "inject transient storage faults at this rate in [0,1] (testing only)")
	fs.Uint64Var(&c.ChaosSeed, "chaos-seed", 1, "fault-injection schedule seed (with -chaos-rate)")
	fs.StringVar(&c.DataDir, "data-dir", "", "directory for the durable job store (WAL + snapshots); empty = in-memory only. Existing durable state wins over -trace/-generate")
	fs.StringVar(&c.Fsync, "fsync", "always", "WAL durability point for POST /v1/jobs: always | interval | never")
	fs.DurationVar(&c.FsyncInterval, "fsync-interval", wal.DefaultFsyncInterval, "background fsync period (with -fsync interval)")
	fs.Int64Var(&c.SegmentBytes, "segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation size in bytes")
	fs.IntVar(&c.SnapshotEvery, "snapshot-every", 50000, "snapshot+compact the WAL after this many logged records (0 = never)")
	fs.IntVar(&c.StreamBatch, "stream-batch", httpapi.DefaultStreamBatch, "NDJSON ingest records grouped per commit/ack frame on POST /v1/jobs/stream")
	fs.IntVar(&c.SSEBuffer, "sse-buffer", httpapi.DefaultSSEBuffer, "prediction stream resume-ring and per-subscriber channel capacity")
	fs.DurationVar(&c.SSEHeartbeat, "sse-heartbeat", httpapi.DefaultSSEHeartbeat, "idle keep-alive period on GET /v1/predictions/stream")
	fs.StringVar(&c.ReplaySource, "replay-source", "", "JSONL trace file backing the /v1/replay resource (empty = replay disabled)")
	fs.StringVar(&c.Follow, "follow", "", "leader base URL to replicate from (follower mode: read-only API, writes answer not_leader)")
	fs.DurationVar(&c.FollowPoll, "follow-poll", 250*time.Millisecond, "manifest poll cadence in follower mode")
	fs.DurationVar(&c.MaxLag, "max-lag", 15*time.Second, "replication lag before follower /healthz reports lagging")
	fs.BoolVar(&c.PromoteOnStart, "promote-on-start", false, "boot as leader over an inherited -data-dir with a bumped fencing epoch (fences the previous leader)")
	fs.Float64Var(&c.RetrainJitter, "retrain-jitter", core.DefaultRetrainJitter, "fraction of -retrain-every each cron interval is jittered by (seeded; 0 = fixed period)")
	fs.StringVar(&c.NodeID, "node-id", "", "this node's stable ID in the -peers list (enables the lease-based elector)")
	fs.StringVar(&c.Peers, "peers", "", "static cluster membership as id=url,id=url,... (must include -node-id)")
	fs.DurationVar(&c.LeaseTTL, "lease-ttl", 3*time.Second, "leadership lease TTL: quorum acks older than this fence the write path")
	fs.DurationVar(&c.HeartbeatEvery, "heartbeat-every", 500*time.Millisecond, "follower lease-poll / leader lease-refresh cadence")
	fs.DurationVar(&c.ElectionTimeout, "election-timeout", time.Second, "base election backoff; each candidate draws uniformly from [T, 2T)")
	fs.IntVar(&c.MaxMissed, "max-missed", 3, "consecutive missed heartbeats before a follower suspects the leader")
}

// Defaults returns the shipped configuration: every flag at its default.
func Defaults() Config {
	var c Config
	c.RegisterFlags(flag.NewFlagSet("defaults", flag.ContinueOnError))
	return c
}

// parsed holds the values Validate derives from the string fields.
type parsed struct {
	policy  wal.Policy
	members cluster.Membership // zero without -peers
	trainAt time.Time          // zero: train at the newest job completion
}

// Validate checks every cross-field rule; New runs it first.
func (c Config) Validate() error {
	_, err := c.parse()
	return err
}

func (c Config) parse() (parsed, error) {
	var p parsed
	following := c.Follow != ""
	switch {
	case following && c.PromoteOnStart:
		return p, fmt.Errorf("-follow and -promote-on-start are mutually exclusive: promote a running follower via POST /v1/promote, or restart without -follow")
	case c.PromoteOnStart && c.DataDir == "":
		return p, fmt.Errorf("-promote-on-start requires -data-dir (the inherited durable state to lead over)")
	case following && (c.Generate || c.Trace != ""):
		// A follower's store is the leader's stream; a local seed would
		// be a phantom prefix the leader never had.
		return p, fmt.Errorf("-follow excludes -trace and -generate: a follower's jobs come from the leader")
	case !following && !c.Generate && c.Trace == "" && c.DataDir == "":
		return p, fmt.Errorf("either -trace, -generate, -data-dir or -follow is required")
	case (c.NodeID == "") != (c.Peers == ""):
		return p, fmt.Errorf("-node-id and -peers go together (got node-id=%q peers=%q)", c.NodeID, c.Peers)
	case c.Peers != "" && !following && c.DataDir == "":
		return p, fmt.Errorf("-peers requires a replication role: lead with -data-dir or follow with -follow")
	}
	var err error
	if p.policy, err = wal.ParsePolicy(c.Fsync); err != nil {
		return p, fmt.Errorf("bad -fsync: %w", err)
	}
	if err := core.CheckIndexOptions(c.Index, c.NProbe); err != nil {
		return p, fmt.Errorf("bad -index/-nprobe: %w", err)
	}
	if c.TrainAt != "" {
		if p.trainAt, err = time.Parse(time.RFC3339, c.TrainAt); err != nil {
			return p, fmt.Errorf("bad -train-at: %w", err)
		}
	}
	if c.Peers != "" {
		if p.members, err = cluster.ParsePeers(c.NodeID, c.Peers); err != nil {
			return p, fmt.Errorf("bad -peers: %w", err)
		}
	}
	return p, nil
}
