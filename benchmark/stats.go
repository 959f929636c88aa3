package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the sample-support rule for percentiles: a quantile is
// printed only when at least this many samples lie beyond it, so a p95 over
// 100 samples (5 beyond) is refused rather than reported as noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted (ascending)
// samples, and false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the middle value of xs (mean of the two middle values for
// even counts, 0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime returns utime+stime of pid from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after the
	// closing parenthesis. utime and stime are fields 14 and 15.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable cpu times in /proc/%d/stat", pid)
	}
	const userHz = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return time.Duration(utime+stime) * time.Second / userHz, nil
}

// selfCPUTime returns this process's user+system time from getrusage, which
// has microsecond resolution where /proc/<pid>/stat counts 10 ms ticks.
func selfCPUTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuTick is one reading of a process's CPU clock.
type cpuTick struct {
	at  time.Time
	cpu time.Duration
}

// sampleCPU reads the CPU clock at from and then every sub, k+1 readings in
// all, so a window's CPU time can be split over k sub-windows. onStart runs
// just before the first reading (the window's other baselines hook in
// there). The returned function waits for the last reading.
func sampleCPU(read func() (time.Duration, error), from time.Time, sub time.Duration, k int, onStart func()) func() ([]cpuTick, error) {
	var ticks []cpuTick
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := 0; j <= k && err == nil; j++ {
			time.Sleep(time.Until(from.Add(time.Duration(j) * sub)))
			if j == 0 && onStart != nil {
				onStart()
			}
			var cpu time.Duration
			cpu, err = read()
			ticks = append(ticks, cpuTick{time.Now(), cpu})
		}
	}()
	return func() ([]cpuTick, error) {
		<-done
		return ticks, err
	}
}

// peakRSSMB returns VmHWM of pid in MiB (0 when unavailable).
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// envBlock labels a result with the machine and build it came from
// (ROADMAP aim 1): a number without these is not comparable to anything.
func envBlock(root string) map[string]any {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"clock":      "wall",
	}
}
