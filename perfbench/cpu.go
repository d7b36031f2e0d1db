package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuTime is the CPU time every thread of this process has used so far
// (Linux clock_gettime). The kernel does not charge a process for the time
// the hypervisor gives its virtual CPUs to other tenants (steal time);
// wall time includes it.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
