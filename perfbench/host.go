package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// connections is the number of client connections a load generator
// opens: one per CPU, so the generator never multiplexes more requests
// than the host can run at once.
func connections() int { return runtime.NumCPU() }

// fingerprint describes the host and the code a result was measured on.
func fingerprint(seed uint64, server string) map[string]any {
	return map[string]any{
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"race":        raceEnabled,
		"commit":      commit(),
		"source_hash": sourceHash(filepath.Dir(filepath.Dir(server))),
		"seed":        seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads HEAD of the git checkout in the working directory, or
// "none" when the tree is not a git checkout.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

// sourceHash digests every Go source and module file of the tree in the
// working directory except the build directory, so a result names the
// code it measured even where there is no git metadata.
func sourceHash(buildDir string) string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() && filepath.Clean(path) == filepath.Clean(buildDir) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			b, err := os.ReadFile(path)
			if err == nil {
				h.Write([]byte(path))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
