package main

import (
	"syscall"
	"unsafe"
)

// lowestPriority moves the calling thread to SCHED_IDLE. A nice-19
// process would do for the latency, but the kernel counts a CPU that
// runs one as busy when it places a waking thread, and the saturated
// phase lost 3-9 % of its rate to that; a CPU that runs only SCHED_IDLE
// tasks counts as idle, and the rate is what it is without spinners.
func lowestPriority() error {
	const schedIdle = 5
	var param struct{ priority int32 } // struct sched_param: 0 for SCHED_IDLE
	_, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	if errno != 0 {
		return errno
	}
	return nil
}
