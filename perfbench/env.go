package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"

	"parsec/internal/tensor"
)

// stamp is the environment a result was measured in. Results compare
// only when their stamps are equal.
type stamp struct {
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	KernelTier string  `json:"kernel_tier"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	PollMs     float64 `json:"poll_interval_ms"`
}

func newStamp(b *bench) stamp {
	return stamp{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NProc:      b.nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		KernelTier: tensor.ActiveKernelTier().String(),
		Workload:   b.workload,
		Seed:       b.seed,
		Seconds:    b.seconds.Seconds(),
		Trace:      b.traced(),
		PollMs:     ms(pollInterval),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where there is none.
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
