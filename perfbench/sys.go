package main

// Operating-system helpers: memory outside the Go heap and the CPU time
// the hypervisor stole, from the syscall package and /proc.

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// offHeapBytes is the size of every offHeap mapping made so far. The
// mappings are populated when made, so all of it is resident.
var offHeapBytes atomic.Int64

// offHeap returns n zeroed values of T in anonymous memory outside the
// Go heap: the garbage collector neither scans it nor counts it toward
// its heap goal. The pages are faulted in up front, so the process's
// resident set grows by exactly the mapping's size (see offHeapBytes).
// T must hold no pointers. The memory lives until the process exits.
func offHeap[T any](n int) []T {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil
	}
	// Counted before mapping, so an RSS sample never sees the pages
	// without the count (a sample taken in between reads low, which a
	// peak ignores).
	offHeapBytes.Add(int64(size))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		// Mapping a few MB can only fail when the process is out of
		// address space or memory; fall back to the heap.
		offHeapBytes.Add(-int64(size))
		return make([]T, n)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)
}

// cpuStat is the system-wide CPU time, in clock ticks, from the first
// line of /proc/stat.
type cpuStat struct {
	steal, total uint64
}

// readCPUStat reads /proc/stat; where it is missing it reads zero, and
// no time counts as stolen.
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	return parseCPUStat(sc.Text())
}

// parseCPUStat reads the aggregate "cpu" line: user nice system idle
// iowait irq softirq steal [guest guest_nice]. Guest time is already
// inside user and nice, so the total stops at steal.
func parseCPUStat(line string) cpuStat {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var s cpuStat
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// unstolen is the share of the CPU time between a and b that the
// hypervisor left to this machine: 1 when nothing was stolen or nothing
// is known.
func unstolen(a, b cpuStat) float64 {
	total := float64(b.total - a.total)
	if b.total <= a.total || b.steal < a.steal {
		return 1
	}
	return 1 - float64(b.steal-a.steal)/total
}
