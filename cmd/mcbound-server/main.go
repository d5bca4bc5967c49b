// Command mcbound-server deploys the MCBound framework as an HTTP
// backend (artifact A1, the flask equivalent). It loads a jobs data
// storage from a JSONL trace file (or generates a synthetic one), runs
// an initial Training Workflow, and serves the inference API; an
// optional background ticker re-triggers the Training Workflow (the
// cronjob of §III-E). The server runs with production timeouts, request
// telemetry on GET /metrics, capped request bodies and signal-driven
// graceful shutdown: SIGTERM/SIGINT stop the retraining ticker, drain
// in-flight requests and exit 0.
//
// Flags parse into a node.Config; internal/node validates them and
// assembles the process, as it does for the failover bench and the
// election chaos suite. This file loads the seed store and serves.
//
// Usage:
//
//	mcbound-server -trace jobs.jsonl -model rf -alpha 15 -port 8080
//	mcbound-server -generate -scale 0.01            # demo without a trace file
//	mcbound-server -generate -retrain-every 24h -pprof
//	mcbound-server -generate -data-dir /var/lib/mcbound            # leader
//	mcbound-server -data-dir /var/lib/mcbound                      # restart over durable state
//	mcbound-server -follow http://leader:8080 -data-dir /var/lib/mcbound-f -port 8081
//	mcbound-server -promote-on-start -data-dir /var/lib/mcbound-f  # lead over inherited state
//
// With -node-id and -peers the node runs under the lease-based elector:
// the leader heartbeats a quorum-acknowledged lease, followers detect
// its death and elect a successor unassisted (see DESIGN.md §8.8):
//
//	mcbound-server -generate -data-dir /var/lib/m1 -node-id n1 \
//	    -peers 'n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080'
//	mcbound-server -follow http://h1:8080 -data-dir /var/lib/m2 -node-id n2 \
//	    -peers 'n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"mcbound/internal/experiments"
	"mcbound/internal/httpapi"
	"mcbound/internal/node"
	"mcbound/internal/store"
	"mcbound/internal/workload"
)

func main() {
	var c node.Config
	c.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "mcbound-server:", err)
		os.Exit(1)
	}
}

func run(c node.Config) error {
	// Reject a bad flag combination before the seed load, not after.
	if err := c.Validate(); err != nil {
		return err
	}
	// SIGTERM/SIGINT trigger the graceful-shutdown path below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	seed, err := loadSeed(c)
	if err != nil {
		return err
	}
	n, err := node.New(ctx, c, seed)
	if err != nil {
		return err
	}
	n.Run(ctx)
	srv := httpapi.NewHTTPServer(fmt.Sprintf(":%d", c.Port), n.Handler())
	log.Printf("serving on %s (model=%s α=%d β=%d, max_body=%dB, pprof=%t)",
		srv.Addr, c.Model, c.Alpha, c.Beta, c.MaxBodyBytes, c.Pprof)
	err = httpapi.ListenAndServe(ctx, srv, c.ShutdownTimeout)
	if cerr := n.Close(); cerr != nil {
		log.Printf("warning: durable store close: %v", cerr)
	}
	if err != nil {
		return err
	}
	log.Printf("shutdown complete")
	return nil
}

// loadSeed loads the jobs data storage named by -trace or -generate;
// nil when neither is set (a follower, or a leader over -data-dir).
func loadSeed(c node.Config) (*store.Store, error) {
	var st *store.Store
	switch {
	case c.Generate:
		log.Printf("generating synthetic trace (scale=%g, seed=%d)...", c.Scale, c.Seed)
		env, err := experiments.NewEnv(workload.EvalConfig(c.Scale), c.Seed)
		if err != nil {
			return nil, err
		}
		st = env.Store
	case c.Trace != "":
		log.Printf("loading trace %s...", c.Trace)
		var err error
		if st, err = store.LoadFile(c.Trace); err != nil {
			return nil, err
		}
	default:
		return nil, nil
	}
	log.Printf("jobs data storage ready: %d jobs", st.Len())
	return st, nil
}
