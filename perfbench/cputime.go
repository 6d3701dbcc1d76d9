package main

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time this process has used, over all its threads.
// A guest kernel with paravirtual steal accounting leaves out the time the
// hypervisor ran someone else, which on a shared VM is the largest source of
// noise in wall-clock rates.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
