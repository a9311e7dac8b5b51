package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// keep-awake child, which startKeepAwake starts from os.Executable.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == keepAwakeFlag {
		os.Exit(keepAwakeChild())
	}
	os.Exit(m.Run())
}

// cpuTicks is the user time of process pid in clock ticks (proc(5), field 14).
func cpuTicks(t *testing.T, pid int) int64 {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+2:]))
	n, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestKeepAwakeSpinsOnlyWhenTold(t *testing.T) {
	k, note := startKeepAwake()
	if k == nil {
		t.Skipf("this host does not allow it: %s", note)
	}
	pid := k.cmd.Process.Pid
	burnt := func(on bool) int64 {
		k.spin(on)
		time.Sleep(20 * time.Millisecond) // the command travels through a pipe
		before := cpuTicks(t, pid)
		time.Sleep(200 * time.Millisecond)
		return cpuTicks(t, pid) - before
	}
	if n := burnt(false); n > 2 {
		t.Errorf("resting child used %d ticks of CPU in 200 ms", n)
	}
	if n := burnt(true); n < 5 {
		t.Errorf("spinning child used only %d ticks of CPU in 200 ms on an idle machine", n)
	}
	if n := burnt(false); n > 2 {
		t.Errorf("child told to rest again used %d ticks of CPU in 200 ms", n)
	}
	k.stop()
	if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
		t.Errorf("child %d outlives stop", pid)
	}
	(*keepAwake)(nil).spin(true) // a host without keep-awake: both are no-ops
	(*keepAwake)(nil).stop()
}
