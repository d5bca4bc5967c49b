package main

// The failover scenario: unassisted leader-death recovery time under
// live electors. Each seeded kill boots a fresh three-node cluster
// (leader + two WAL-tailing followers, every node under the lease-based
// elector with tight timings), acknowledges a batch of writes, hard-
// kills the leader, and times leader-death → first write acknowledged
// by the self-elected successor — no operator promote anywhere. The
// scenario aborts the bench run if any acknowledged insert is missing
// on the new leader.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"mcbound/internal/node"
)

const failoverKills = 20

func benchFailover(rep *report) error {
	fmt.Printf("benchmarking unassisted failover (%d seeded leader kills)...\n", failoverKills)
	var times []time.Duration
	var acked int64
	for it := 0; it < failoverKills; it++ {
		d, n, err := failoverOnce(uint64(9000 + it))
		if err != nil {
			return fmt.Errorf("failover kill %d: %w", it, err)
		}
		times = append(times, d)
		acked += int64(n)
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	rep.FailoverKills = failoverKills
	rep.FailoverP50Ns = times[len(times)/2].Nanoseconds()
	rep.FailoverP99Ns = times[len(times)*99/100].Nanoseconds()
	rep.FailoverAcked = acked
	fmt.Printf("failover: leader death -> first accepted write p50=%dms p99=%dms over %d kills (%d acked records, zero loss)\n",
		rep.FailoverP50Ns/1e6, rep.FailoverP99Ns/1e6, failoverKills, acked)
	return nil
}

// failoverOnce runs one kill: returns the death-to-first-accepted-write
// duration and how many acknowledged inserts were verified on the
// successor. Every node boots through node.New, the mcbound-server
// wiring, with tight timings set through their flag fields.
func failoverOnce(seed uint64) (time.Duration, int, error) {
	type fnode struct {
		id   string
		url  string
		srv  *httptest.Server
		proc *node.Node
	}
	ids := []string{"n1", "n2", "n3"}
	srvs := make([]*httptest.Server, 3)
	peers := make([]string, 3)
	for i := range srvs {
		srvs[i] = httptest.NewUnstartedServer(nil)
		peers[i] = ids[i] + "=http://" + srvs[i].Listener.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	var nodes []*fnode
	var dirs []string
	defer func() {
		cancel()
		for _, n := range nodes {
			n.srv.Close()
			n.proc.Close()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()

	for i := range ids {
		dir, err := os.MkdirTemp("", "mcbound-failover-")
		if err != nil {
			return 0, 0, err
		}
		dirs = append(dirs, dir)
		cfg := node.Defaults()
		cfg.NodeID, cfg.Peers = ids[i], strings.Join(peers, ",")
		cfg.DataDir = dir
		cfg.LeaseTTL, cfg.HeartbeatEvery = 100*time.Millisecond, 10*time.Millisecond
		cfg.ElectionTimeout, cfg.MaxMissed = 50*time.Millisecond, 2
		cfg.FollowPoll = 10 * time.Millisecond
		cfg.FetchAttempts, cfg.FetchBackoff = 2, 5*time.Millisecond
		cfg.Seed = seed*131 + uint64(i)
		cfg.Logger = log.New(io.Discard, "", 0)
		if i > 0 {
			cfg.Follow = nodes[0].url
		}
		proc, err := node.New(ctx, cfg, nil)
		if err != nil {
			return 0, 0, err
		}
		nodes = append(nodes, &fnode{id: ids[i], url: "http://" + srvs[i].Listener.Addr().String(), srv: srvs[i], proc: proc})
		srvs[i].Config.Handler = proc.Handler()
		srvs[i].Start()
	}
	for _, n := range nodes {
		n.proc.Run(ctx)
	}

	// Acknowledge a batch of writes on the live leader.
	hc := &http.Client{Timeout: 500 * time.Millisecond}
	post := func(url, id string) bool {
		body := fmt.Sprintf(
			`[{"id":%q,"name":"failover_app","user":"u0001","cores_req":48,"nodes_req":1,"freq_req":2000,"submit":"2024-06-01T00:00:00Z"}]`,
			id)
		resp, err := hc.Post(url+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	var ackedIDs []string
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("fo-%d-%05d", seed, i)
		if !post(nodes[0].url, id) {
			return 0, 0, fmt.Errorf("pre-kill insert %s not acknowledged", id)
		}
		ackedIDs = append(ackedIDs, id)
	}
	// A dead leader ships nothing: acked-write survival across a hard
	// kill is bounded by replication lag, so wait for the tail to drain
	// before pulling the plug (the chaos suite covers the fenced-alive
	// cases where no quiesce is needed).
	leaderSeq := nodes[0].proc.Repl().Durable().CommittedSeq()
	deadline := time.Now().Add(5 * time.Second)
	for {
		caught := true
		for _, n := range nodes[1:] {
			if n.proc.Follower().Status().AppliedSeq < leaderSeq {
				caught = false
			}
		}
		if caught {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("followers never caught up pre-kill")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Kill. No promote call follows — the electors are on their own.
	nodes[0].srv.CloseClientConnections()
	nodes[0].srv.Close()
	nodes[0].proc.Elector().Stop()
	t0 := time.Now()

	deadline = time.Now().Add(15 * time.Second)
	var winner *fnode
	probe := 0
	for winner == nil {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("no follower accepted a write within 15s of the kill: n2=%+v n3=%+v",
				nodes[1].proc.Elector().Status(), nodes[2].proc.Elector().Status())
		}
		for _, n := range nodes[1:] {
			if post(n.url, fmt.Sprintf("fo-%d-probe-%d", seed, probe)) {
				winner = n
				break
			}
			probe++
		}
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(t0)

	for _, id := range ackedIDs {
		if _, err := winner.proc.Store().Get(id); err != nil {
			return 0, 0, fmt.Errorf("acked insert %s lost across unassisted failover to %s", id, winner.id)
		}
	}
	return elapsed, len(ackedIDs), nil
}
