package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host is the fingerprint stored in every result file. Two result sets are
// only comparable when they come from the same kind of machine; CalibNs is
// the cheap check of that (see compare.go).
type Host struct {
	CPUModel   string  `json:"cpu_model"`
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	CalibNs    float64 `json:"calib_ns"`
}

func fingerprint() Host {
	return Host{
		CPUModel:   cpuModel(),
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		CalibNs:    calibNs(),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA names the commit under test. The acceptance driver runs from an
// exported tree that is not a git repository, where this is "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// calibNs times a fixed operation — xor-folding a 1 MiB buffer — 25 times
// and returns the fastest. It depends on the machine and not on the
// repository, so two result sets whose calibrations disagree were measured
// on different hosts and must not be compared. The fastest and not the
// median, because on a shared host the median says how busy the neighbours
// were at that moment (45 to 95 µs on the reference host), the fastest what
// the machine is (45.2 µs every time).
func calibNs() float64 {
	buf := make([]uint64, 1<<17)
	for i := range buf {
		buf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	best := math.Inf(1)
	for r := 0; r < 25; r++ {
		t0 := time.Now()
		var acc uint64
		for _, v := range buf {
			acc ^= v
		}
		best = math.Min(best, float64(time.Since(t0)))
		calibSink ^= acc
	}
	return best
}

var calibSink uint64

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
