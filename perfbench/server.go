package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// serverProc is an mcbound-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	proc   procStats
	base   string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	log    *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches the binary with the deployment's flags: the
// history trace, a fresh durable store under dir at the default fsync
// policy, and an initial Training Workflow at trainAt. Its log goes to
// a file in dir.
func startServer(bin, dir, history, model string, trainAt time.Time) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-trace", history,
		"-data-dir", filepath.Join(dir, "data"),
		"-model", model,
		"-train-at", trainAt.UTC().Format(time.RFC3339),
		"-port", strconv.Itoa(port),
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the harness dies without stopping it, the kernel kills the
	// server too. (The harness never exits a thread it started a child
	// from: no goroutine ends while locked to its thread.)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{
		cmd:    cmd,
		proc:   newProcStats(cmd.Process.Pid),
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		exited: make(chan struct{}),
		log:    logf,
	}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for the graceful drain and kills the
// process if it has not exited within the timeout.
func (p *serverProc) stop() error {
	defer p.log.Close()
	select {
	case <-p.exited:
		return fmt.Errorf("server exited early: %v", p.err)
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		return p.err
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("server did not drain within 20s")
	}
}

// bootServer starts a server and waits until /healthz answers 200.
func bootServer(ctx context.Context, bin, dir, history, model string, trainAt time.Time) (*serverProc, error) {
	p, err := startServer(bin, dir, history, model, trainAt)
	if err != nil {
		return nil, err
	}
	a := newAPI(p.base, 1)
	defer a.close()
	if err := a.waitReady(ctx, 60*time.Second, p.exited); err != nil {
		_ = p.stop()
		return nil, fmt.Errorf("%w (log: %s)", err, p.log.Name())
	}
	return p, nil
}
