package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// stamp records where and how a result was measured, so that no number is
// read without its box.
type stamp struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	StateFS    string `json:"state_dir_fs"`
	// Note says what the durability figures mean on this box; Warning is set
	// when they mean nothing.
	Note    string `json:"note"`
	Warning string `json:"warning,omitempty"`
}

const fsyncNote = "fsync and rename latency is that of this sandbox's virtual disk, not of a storage device"

// fsNames maps statfs magic numbers to names for the filesystems a state dir
// plausibly sits on.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x858458F6: "ramfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// newStamp stamps a run. A state dir in memory makes fsync free, which would
// record a lie about the durability path: it is refused unless forced, and a
// forced run carries a warning.
func newStamp(stateRoot string, seed int64, allowMemFS bool) (stamp, error) {
	st := stamp{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     os.Getenv("LYNBENCH_COMMIT"),
		Seed:       seed,
		StateFS:    fsType(stateRoot),
		Note:       fsyncNote,
	}
	if st.Commit == "" {
		st.Commit = "unknown"
	}
	if st.StateFS == "tmpfs" || st.StateFS == "ramfs" {
		if !allowMemFS {
			return st, fmt.Errorf("state dir %s is on %s, where fsync is free: the durability figures would be meaningless; put -state-root on a disk, or pass -allow-memfs to force (the result will carry a warning)", stateRoot, st.StateFS)
		}
		st.Warning = "state dir is on " + st.StateFS + ": fsync is free here, so every durability figure (put_snapshot, step latency of adopted steps, restart) understates a real disk"
	}
	return st, nil
}

// peakRSSMB is the process's high-water resident set, from VmHWM.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
