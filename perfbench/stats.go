package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// tail percentile: a p99 over 200 samples rests on two values and says
// nothing, so the tail reported is the highest percentile of tailLadder
// with at least this many samples beyond it.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// dist summarises a sample of durations or values: the median and the
// highest-supported tail percentile, with the sample count.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p"` // 0 when fewer than minBeyond+1 samples
	Tail  float64 `json:"tail"`   // the maximum when TailP is 0
	Max   float64 `json:"max"`
}

// nearestRank returns the nearest-rank p-th percentile of sorted xs and
// the number of samples strictly beyond that rank.
func nearestRank(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	// The epsilon keeps p·n/100 = 9990.000000000002 from rounding up.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// summarize returns the median and the highest percentile of tailLadder
// that has at least minBeyond samples beyond it.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), Max: s[len(s)-1], Tail: s[len(s)-1]}
	d.P50, _ = nearestRank(s, 50)
	for _, p := range tailLadder {
		if v, beyond := nearestRank(s, p); beyond >= minBeyond {
			d.TailP, d.Tail = p, v
			break
		}
	}
	return d
}

// quietMedian returns the median of xs over the entries whose steal
// share is among the lower half (rounded up): the windows in which the
// hypervisor took least of this machine's CPUs.
func quietMedian(xs, steal []float64) float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := make([]float64, 0, (len(xs)+1)/2)
	for _, i := range idx[:(len(xs)+1)/2] {
		keep = append(keep, xs[i])
	}
	return median(keep)
}

// median is the nearest-rank median (0 for an empty sample).
func median(xs []float64) float64 { return summarize(xs).P50 }

// ms and us convert a duration to fractional milli/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return ut + st, nil
}

// parseStatusKB returns the value of a "Key:   N kB" line of
// /proc/<pid>/status in kibibytes.
func parseStatusKB(status, key string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status %s: malformed %q", key, line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// clockTicks returns the kernel's USER_HZ from the AT_CLKTCK auxiliary
// vector entry of raw /proc/self/auxv bytes (pairs of native 64-bit
// words), or 100 when absent.
func clockTicks(auxv []byte) uint64 {
	const atClkTck = 17
	for i := 0; i+16 <= len(auxv); i += 16 {
		if binary.LittleEndian.Uint64(auxv[i:]) == atClkTck {
			if v := binary.LittleEndian.Uint64(auxv[i+8:]); v > 0 {
				return v
			}
		}
	}
	return 100
}

// procStats reads a live process's CPU time and peak resident set.
type procStats struct {
	pid  int
	tick uint64
}

func newProcStats(pid int) procStats {
	auxv, _ := os.ReadFile("/proc/self/auxv") // absent: fall back to 100 Hz
	return procStats{pid: pid, tick: clockTicks(auxv)}
}

// cpu returns the process's user+sys CPU time so far.
func (p procStats) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(string(bytes.TrimSpace(b)))
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / time.Duration(p.tick), nil
}

// peakRSSMB returns VmHWM, the process's peak resident set, in MiB.
func (p procStats) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// parseCPUSteal returns the steal and total jiffies of the aggregate
// "cpu" line of /proc/stat: time the hypervisor ran something else on
// this machine's virtual CPUs, and all time.
func parseCPUSteal(stat string) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: no aggregate cpu line")
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat field %d: %w", i+1, err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealMeter reads the host's cumulative steal and total CPU time.
type stealMeter struct{ steal, total uint64 }

func readSteal() stealMeter {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}
	}
	st, tot, err := parseCPUSteal(string(b))
	if err != nil {
		return stealMeter{}
	}
	return stealMeter{st, tot}
}

// share returns the share of CPU time stolen since m.
func (m stealMeter) share() float64 {
	now := readSteal()
	if now.total <= m.total {
		return 0
	}
	return float64(now.steal-m.steal) / float64(now.total-m.total)
}
