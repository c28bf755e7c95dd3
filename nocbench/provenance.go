package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance stamps a result with the code and host that produced it.
// It is printed beside the metrics, never folded into them.
func provenance(o options) [][2]string {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return [][2]string{
		{"vcs.revision", rev},
		{"vcs.modified", dirty},
		{"go", runtime.Version()},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"cpu", cpuModel()},
		{"seed", fmt.Sprint(o.seed)},
		{"seconds", fmt.Sprint(o.seconds)},
	}
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
