package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// parseStatCPU returns user+system CPU time from the text of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may hold
// spaces or parentheses itself, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * (time.Second / clockTick), nil
}

// parseStatusKB returns one "Name:   123 kB" field of /proc/<pid>/status.
func parseStatusKB(status []byte, field string) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != field {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: unexpected value %q", field, rest)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", field)
}

// procCPU reads a live process's accumulated CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(raw)
}

// procPeakRSS reads a live process's resident-set high-water mark in bytes.
func procPeakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(raw, "VmHWM")
	return kb * 1024, err
}

// hostCPU is the "cpu" line of /proc/stat: the ticks all CPUs have spent in
// total, and the part of them the hypervisor gave to another guest while
// this one had work to run.
type hostCPU struct{ total, steal uint64 }

// parseHostCPU reads the aggregate line of /proc/stat. Its first eight
// columns (user nice system idle iowait irq softirq steal) partition time;
// the guest columns after them are already inside user and nice.
func parseHostCPU(stat []byte) (hostCPU, error) {
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: no aggregate cpu line with a steal column in %q", line)
	}
	var h hostCPU
	for i, col := range f[1:9] {
		v, err := strconv.ParseUint(col, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat column %d: %w", i+1, err)
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, nil
}

func readHostCPU() (hostCPU, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(raw)
}

// stolenShare is the share of CPU time between two readings that the
// hypervisor took away.
func (a hostCPU) stolenShare(b hostCPU) float64 {
	if b.total == a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
