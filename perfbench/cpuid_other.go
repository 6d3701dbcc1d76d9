//go:build !amd64

package main

// cpuModel is only known on amd64, where CPUID gives the brand string.
func cpuModel() string { return "unknown" }
