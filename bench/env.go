package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// environment is recorded in every result: a wall-clock number means
// little without the machine, toolchain and code it came from.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload,omitempty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Phases are the measured phases' lengths in seconds.
	Phases map[string]float64 `json:"phases_s,omitempty"`
}

func currentEnv(cfg config) environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Seconds:    cfg.Duration.Seconds(),
		Phases:     phases(cfg),
	}
}

// phases lists how a run of cfg splits its measured time.
func phases(cfg config) map[string]float64 {
	d := cfg.Duration
	p := map[string]float64{}
	switch {
	case cfg.Workload == "":
		return nil
	case strings.HasPrefix(cfg.Workload, "serve-") && !cfg.Trace:
		p["ladder_step"] = (d * 2 / 10 / time.Duration(len(ladders[false]))).Seconds()
		p["saturation"] = (d * 8 / 10).Seconds()
	case strings.HasPrefix(cfg.Workload, "serve-"):
		p["open_loop_replay"] = (d / 10).Seconds()
		p["http_pass"] = (d / 4).Seconds()
		p["replica_pass"] = (d / 4).Seconds()
		p["overhead_pairs"] = (d * 3 / 10).Seconds()
	case !cfg.Trace:
		p["loop"] = d.Seconds()
	default:
		p["traced_loop"] = (d * 6 / 10).Seconds()
		p["overhead_pairs"] = (d * 3 / 10).Seconds()
	}
	return p
}

// commit is the simulator's revision: from the binary's build info when
// it was built inside a git checkout, else from git when the repository
// root (the directory holding BENCHMARK.json: the current one, or its
// parent when run from bench/) is the top of a checkout, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	root := "."
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		root = ".."
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	top, err := exec.Command("git", "-C", abs, "rev-parse", "--show-toplevel").Output()
	if err != nil || filepath.Clean(strings.TrimSpace(string(top))) != abs {
		return "unknown"
	}
	rev, err := exec.Command("git", "-C", abs, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(rev))
}
