package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002–0x80000004. Asking the CPU keeps the benchmark from reading any
// file outside its checkout.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var brand []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, b, c, d := cpuid(leaf, 0)
		for _, r := range [4]uint32{a, b, c, d} {
			brand = binary.LittleEndian.AppendUint32(brand, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(brand), "\x00"))
}
