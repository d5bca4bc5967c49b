package main

// The repl scenario: steady-state replication lag and failover cost,
// measured over the live HTTP surface between two nodes booted through
// node.New (the mcbound-server wiring). A leader with a durable store
// serves the WAL-shipping routes; a follower tails it with a tight poll;
// each sampled insert is timed from leader acknowledgment to visibility
// in the follower's store. Then the leader is torn down and the follower
// promoted, timing leader-death → first write acknowledged by the new
// leader. The scenario aborts the bench run if the promoted leader is
// missing any insert the old leader acknowledged.

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/node"
)

func benchRepl(rep *report) error {
	fmt.Println("benchmarking replication (follower lag, failover)...")

	leaderDir, err := os.MkdirTemp("", "mcbound-replbench-lead-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(leaderDir)
	promDir, err := os.MkdirTemp("", "mcbound-replbench-prom-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(promDir)

	lst, err := servingStore()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	quiet := log.New(io.Discard, "", 0)

	lcfg := node.Defaults()
	lcfg.DataDir = leaderDir
	lcfg.Logger = quiet
	leader, err := node.New(ctx, lcfg, lst)
	if err != nil {
		return err
	}
	defer leader.Close()
	dur := leader.Repl().Durable()
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()

	fcfg := node.Defaults()
	fcfg.Follow = srv.URL
	fcfg.DataDir = promDir
	fcfg.FollowPoll = 2 * time.Millisecond
	fcfg.Logger = quiet
	follower, err := node.New(ctx, fcfg, nil)
	if err != nil {
		return err
	}
	defer follower.Close()
	follower.Run(ctx)
	fst := follower.Store()

	waitFor := func(cond func() bool, what string) error {
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("repl bench: timed out waiting for %s", what)
			}
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}
	if err := waitFor(func() bool { return fst.Len() == lst.Len() }, "bootstrap"); err != nil {
		return err
	}

	// Lag sampling: one acknowledged insert at a time, timed until the
	// follower's live tail makes it readable on the replica.
	const samples = 200
	submit := time.Date(2024, 7, 1, 0, 0, 0, 0, time.UTC)
	lags := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		id := fmt.Sprintf("lag%05d", i)
		j := &job.Job{
			ID: id, User: "u0001", Name: "repl_app", Environment: "gcc/12.2",
			CoresRequested: 48, NodesRequested: 1, NodesAllocated: 1,
			FreqRequested: job.FreqNormal,
			SubmitTime:    submit.Add(time.Duration(i) * time.Second),
		}
		t0 := time.Now()
		if err := dur.Insert(j); err != nil {
			return fmt.Errorf("repl bench: leader insert: %w", err)
		}
		if err := waitFor(func() bool { _, gerr := fst.Get(id); return gerr == nil }, id); err != nil {
			return err
		}
		lags = append(lags, time.Since(t0))
	}
	sort.Slice(lags, func(a, b int) bool { return lags[a] < lags[b] })
	rep.ReplLagSamples = samples
	rep.ReplLagP50Ns = lags[samples/2].Nanoseconds()
	rep.ReplLagP99Ns = lags[samples*99/100].Nanoseconds()

	// Failover: every insert so far was acknowledged and the follower is
	// caught up. Kill the leader, promote, and time to the first write
	// the new leader acknowledges.
	ackedIDs := make([]string, 0, lst.Len())
	for _, j := range lst.All() {
		ackedIDs = append(ackedIDs, j.ID)
	}
	rep.ReplFailoverAcked = int64(len(ackedIDs))

	t0 := time.Now()
	srv.CloseClientConnections()
	srv.Close()
	if _, err := follower.Repl().Promote(); err != nil {
		return fmt.Errorf("repl bench: promote: %w", err)
	}
	prom := follower.Repl().Durable()
	if prom == nil {
		return fmt.Errorf("repl bench: promotion attached no durable store")
	}
	if err := prom.Insert(&job.Job{
		ID: "post-failover", User: "u0001", Name: "repl_app", Environment: "gcc/12.2",
		CoresRequested: 48, NodesRequested: 1, NodesAllocated: 1,
		FreqRequested: job.FreqNormal, SubmitTime: submit.Add(time.Hour),
	}); err != nil {
		return fmt.Errorf("repl bench: post-failover insert: %w", err)
	}
	rep.ReplFailoverNs = time.Since(t0).Nanoseconds()

	// The acceptance gate: zero acked loss across the failover.
	pst := prom.Store()
	for _, id := range ackedIDs {
		if _, err := pst.Get(id); err != nil {
			return fmt.Errorf("repl bench: acked insert %s lost across failover", id)
		}
	}

	fmt.Printf("repl: lag p50=%dµs p99=%dµs over %d samples; failover %dms (%d acked records, zero loss)\n",
		rep.ReplLagP50Ns/1e3, rep.ReplLagP99Ns/1e3, samples,
		rep.ReplFailoverNs/1e6, rep.ReplFailoverAcked)
	return nil
}
