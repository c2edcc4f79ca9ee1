package main

import (
	"os"
	"os/exec"
	"runtime"
	"time"
)

// The host is a virtual machine: a CPU with nothing to run halts, and
// the next wake-up goes through the hypervisor, which takes a time that
// depends on what the host is doing that minute. At the paced phase's
// rates the pipeline sleeps between traces, so every hop of every trace
// (a dozen goroutine wake-ups) paid that: the median latency of
// state_rsa_chain3 read 1.00-1.65 ms from one second to the next and its
// run-to-run spread was past any bound. A latency benchmark on bare
// metal turns idle states off (idle=poll); unprivileged, the same is had
// by keeping every CPU busy with a process of the idle scheduling class,
// which runs only when nothing else wants the CPU. With the spinners the
// same seconds read 0.88-0.93 ms (README.md has the runs).

// spinLimit ends a spinner whatever happens to the processes above it.
const spinLimit = 5 * time.Minute

// startSpinners starts one idle-priority spinner per CPU and returns the
// function that stops them and waits until each has ended.
func startSpinners() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(self, "-spin")
		if err := c.Start(); err != nil {
			stop()
			return nil, err
		}
		cmds = append(cmds, c)
	}
	return stop, nil
}

// spinMain is the spinner: it lowers itself to the lowest priority and
// burns CPU until it is killed, its parent is gone, or spinLimit is up.
func spinMain() int {
	runtime.LockOSThread()
	runtime.GOMAXPROCS(1)
	if err := lowestPriority(); err != nil {
		return 1
	}
	parent := os.Getppid()
	start := time.Now()
	for os.Getppid() == parent && time.Since(start) < spinLimit {
		for i := 0; i < 1<<22; i++ {
			spinSink++
		}
	}
	return 0
}

var spinSink uint64
