//go:build unix

package hub

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// BenchmarkAgedHub measures how the operator ages: one hub on one
// AutoMine world runs agedRounds fixed rounds of 150 betting sessions, 1
// in 10 lying, and reports per round the throughput, the process CPU per
// session (getrusage, user+system) and the live heap after a forced GC.
// heap-MB/round is the heap's mean growth per round after the first. The
// world is never reset, so a retainer shows as a rising heap and a
// slowing round. Run it once per invocation:
//
//	go test -run xxx -bench AgedHub -benchtime 1x ./internal/hub
func BenchmarkAgedHub(b *testing.B) {
	const (
		agedRounds = 8
		perRound   = 150
	)
	for i := 0; i < b.N; i++ {
		h, _ := newTestHub(b, 8)
		heap := make([]float64, agedRounds)
		for r := 0; r < agedRounds; r++ {
			specs := make([]*Spec, perRound)
			for j := range specs {
				specs[j] = BettingSpec(4, 600, j%10 == 0)
			}
			cpu0, t0 := cpuTime(b), time.Now()
			for j, rep := range h.Run(specs) {
				if rep.Err != nil {
					b.Fatalf("round %d session %d: %v", r+1, j, rep.Err)
				}
			}
			wall, cpu := time.Since(t0), cpuTime(b)-cpu0
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heap[r] = float64(ms.HeapAlloc) / (1 << 20)
			b.ReportMetric(perRound/wall.Seconds(), fmt.Sprintf("r%d-sessions/s", r+1))
			b.ReportMetric(float64(cpu.Microseconds())/1e3/perRound, fmt.Sprintf("r%d-cpu-ms/session", r+1))
			b.ReportMetric(heap[r], fmt.Sprintf("r%d-heap-MB", r+1))
		}
		b.ReportMetric((heap[agedRounds-1]-heap[0])/(agedRounds-1), "heap-MB/round")
		h.Stop()
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
