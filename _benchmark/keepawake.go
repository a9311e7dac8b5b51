package main

// Keep-awake: during the closed-loop phases of a run a child process holds
// one spinning thread of scheduling class SCHED_IDLE on every processor, so
// that no virtual processor halts between two bursts of work. README, "Why the
// processors are kept awake", has the measurements. In short: flat out, the
// workloads are made of hand-offs between goroutines, connections and the two
// processors; each hand-off that finds the other processor halted pays the
// host for waking it, a price that moves with what else the host is doing.
// A SCHED_IDLE thread runs only when its processor has nothing else to do
// and is preempted the moment anything else becomes runnable there, so it
// takes no time from the program or the generator; it is a separate process,
// so its CPU time is not in the rusage the benchmark reads. In the open-loop
// phases the threads rest: there the processors are mostly idle, and a
// processor that looks fully used keeps the kernel from moving a waking
// thread onto it, which delayed one pacer tick in 25 by milliseconds.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const keepAwakeFlag = "-keep-awake-child"

const schedIdle = 5 // SCHED_IDLE, <linux/sched.h>

// allowedCPUs lists the processors this process may run on.
func allowedCPUs() []int {
	var mask [16]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < int(n)*8 && i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// spinning is whether the child's threads spin or rest; a token on its gate
// wakes a resting thread to look again.
var spinning atomic.Bool

// spinOn turns the calling goroutine's thread into an idle-class thread bound
// to cpu, reports on ready whether the kernel allowed that, and then spins
// whenever spinning is set.
func spinOn(cpu int, ready chan<- error, gate <-chan struct{}) {
	runtime.LockOSThread()
	var prio int32 // struct sched_param{ sched_priority = 0 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		ready <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %v", errno)
		return
	}
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		ready <- fmt.Errorf("sched_setaffinity(%d): %v", cpu, errno)
		return
	}
	ready <- nil
	for range gate {
		for spinning.Load() {
		}
	}
}

// keepAwakeChild is the child's main. It writes one line, "on: …" once the
// threads are ready or "off: …" and the reason, and then obeys the bytes it
// reads from standard input: '1' spin, '0' rest. It ends when standard input
// closes, which it does when the parent asks or dies.
func keepAwakeChild() int {
	cpus := allowedCPUs()
	runtime.GOMAXPROCS(len(cpus) + 1)
	ready := make(chan error, len(cpus))
	gates := make([]chan struct{}, len(cpus))
	for i, cpu := range cpus {
		gates[i] = make(chan struct{}, 1)
		go spinOn(cpu, ready, gates[i])
	}
	for range cpus {
		if err := <-ready; err != nil {
			fmt.Printf("off: %v\n", err)
			return 1
		}
	}
	fmt.Printf("on: %d idle-class spinning threads\n", len(cpus))
	for b := []byte{0}; ; {
		if _, err := os.Stdin.Read(b); err != nil {
			return 0
		}
		spinning.Store(b[0] == '1')
		for _, g := range gates {
			select {
			case g <- struct{}{}:
			default:
			}
		}
	}
}

// keepAwake is the parent's handle on the child.
type keepAwake struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// startKeepAwake starts the child and returns what it reported. A host that
// does not allow it is measured without: the note says so and the handle is
// nil, on which stop does nothing.
func startKeepAwake() (*keepAwake, string) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err.Error() + " (off)"
	}
	cmd := exec.Command(exe, keepAwakeFlag)
	stdin, _ := cmd.StdinPipe()
	out, _ := cmd.StdoutPipe()
	if err := cmd.Start(); err != nil {
		return nil, err.Error() + " (off)"
	}
	k := &keepAwake{cmd: cmd, stdin: stdin}
	note, _ := bufio.NewReader(out).ReadString('\n')
	note = strings.TrimSpace(note)
	if !strings.HasPrefix(note, "on: ") {
		k.stop()
		return nil, strings.TrimPrefix(note, "off: ") + " (off)"
	}
	return k, fmt.Sprintf("%s, pid %d", strings.TrimPrefix(note, "on: "), cmd.Process.Pid)
}

// spin tells the child's threads to spin (true) or to rest.
func (k *keepAwake) spin(on bool) {
	if k == nil {
		return
	}
	cmd := []byte{'0'}
	if on {
		cmd[0] = '1'
	}
	k.stdin.Write(cmd)
}

// stop ends the child and waits for it.
func (k *keepAwake) stop() {
	if k == nil {
		return
	}
	k.stdin.Close()
	k.cmd.Process.Kill()
	k.cmd.Wait()
}
