package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"onoffchain/internal/hub"
	"onoffchain/internal/keccak"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
)

// sample is what the harness keeps of one Submit→Report. The report's
// Session and Watch are dropped: holding thousands would pin every
// session's participants in the heap and distort peak_rss_mb.
type sample struct {
	idx         int // schedule index; -1 for a ticket resumed by Recover
	id          uint64
	adversarial bool
	latency     time.Duration // Submit → Report returned
	stage       hub.Stage
	err         error
	result      uint64
	submitted   uint64
	disputed    bool
	recovered   bool
	addr        types.Address
	stages      map[hub.Stage]time.Duration
}

func newSample(idx int, adversarial bool, latency time.Duration, rep *hub.Report) *sample {
	return &sample{
		idx: idx, id: rep.ID, adversarial: adversarial, latency: latency,
		stage: rep.Stage, err: rep.Err, result: rep.Result, submitted: rep.Submitted,
		disputed: rep.Disputed, recovered: rep.Recovered, addr: rep.OnChainAddr, stages: rep.Latency,
	}
}

// crashed reports a session torn from its worker by Kill.
func (s *sample) crashed() bool { return errors.Is(s.err, hub.ErrCrashed) }

// closedLoop runs c client goroutines against the world's current hub,
// each Submit → Report → next (hub.Run is not used: it pre-queues 4×Workers
// tickets, so latency would include generator-side queueing).
//
// The clients start together and, every step of a session ending in a
// receipt, stay in step with the miner from then on: sessions complete in
// waves of c. (Starting them a few intervals apart was tried; it made
// latencies less steady, not more — a first Submit that is not triggered
// by a block lands anywhere in the interval, sometimes just before the
// next block and sometimes just after.)
//
// Without killAfter the phase serves exactly n sessions. With killAfter > 0
// (crash_recover) n is ignored: the client that sees the killAfter-th clean
// completion kills the hub, and every client stops at its first crashed
// ticket.
func (w *world) closedLoop(c, n, killAfter int) []*sample {
	limit := w.next.Load() + int64(n)
	if killAfter > 0 {
		limit = 1 << 62
	}
	var completions atomic.Int64
	var mu sync.Mutex
	var samples []*sample
	h := w.hub

	var wg sync.WaitGroup
	for g := 0; g < c; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*sample
			defer func() {
				mu.Lock()
				samples = append(samples, mine...)
				mu.Unlock()
			}()
			for {
				i := w.next.Add(1) - 1
				if i >= limit {
					w.next.Add(-1) // hand the undrawn index back to the next phase
					return
				}
				spec, adv := w.sched.at(int(i))
				trace := w.traceBase + uint64(i) + 1
				sp := w.spans.begin(trace, 0, "session")
				t0 := time.Now()
				ssp := w.spans.begin(trace, sp.id, "hub.Submit")
				tk := h.Submit(spec)
				ssp.end()
				rsp := w.spans.begin(trace, sp.id, "Ticket.Report")
				rep := tk.Report()
				rsp.end()
				lat := time.Since(t0)
				sp.end()
				s := newSample(int(i), adv, lat, rep)
				mine = append(mine, s)
				if s.crashed() {
					return
				}
				if killAfter > 0 && s.err == nil && completions.Add(1) == int64(killAfter) {
					ksp := w.spans.begin(0, 0, "hub.Kill")
					h.Kill()
					ksp.end()
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

// measured is everything a measured window produced, before it is turned
// into metrics: one round's, or a run's rounds pooled.
type measured struct {
	samples    []*sample // fresh sessions and resumed tickets, crashed ones included
	wall       time.Duration
	cpu        time.Duration // getrusage user+sys over the window
	blocks     uint64
	gas        uint64
	txs        uint64
	calldata   uint64
	mallocs    uint64
	permutes   uint64
	glvSplits  uint64
	recoverDur []time.Duration
	crash      crashLedger
}

// add pools another round's window into m.
func (m *measured) add(r *measured) {
	m.samples = append(m.samples, r.samples...)
	m.wall += r.wall
	m.cpu += r.cpu
	m.blocks += r.blocks
	m.gas += r.gas
	m.txs += r.txs
	m.calldata += r.calldata
	m.mallocs += r.mallocs
	m.permutes += r.permutes
	m.glvSplits += r.glvSplits
	m.recoverDur = append(m.recoverDur, r.recoverDur...)
	m.crash.Cycles += r.crash.Cycles
	m.crash.Accepted += r.crash.Accepted
	m.crash.Folded += r.crash.Folded
	m.crash.Resumed += r.crash.Resumed
	m.crash.Abandoned += r.crash.Abandoned
	m.crash.Lost += r.crash.Lost
}

// crashLedger is crash_recover's accounting over its cycles.
type crashLedger struct {
	Cycles    int    `json:"cycles"`
	Accepted  uint64 `json:"accepted"`  // sessions the hubs journaled (fresh, not resumed)
	Folded    int    `json:"folded"`    // dispositions Recover listed, summed over cycles (O(history))
	Resumed   int    `json:"resumed"`   // in flight at a kill, driven to a terminal stage after it
	Abandoned int    `json:"abandoned"` // in flight at a kill, closed out by Recover with a reason
	Lost      int    `json:"lost"`      // accepted, not ended, and absent from Recover's report
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss of this process (kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// measure runs one round's measured window on a warmed world: wl.round
// sessions, or wl.cycles Kill/Recover cycles. The work is fixed, not the
// time: the system slows as its chain grows (a 30 s auto_persession window
// went from 300 to 115 sessions/s), so only windows that serve the same
// sessions on a fresh world are comparable with each other.
func measure(w *world, seed int64) (*measured, error) {
	m := &measured{}
	c := w.wl.clients
	height0 := w.chain.Height()
	var ms0, ms1 runtime.MemStats
	if w.reg != nil {
		runtime.ReadMemStats(&ms0)
	}
	perm0, glv0 := keccak.Permutes(), secp256k1.GLVSplits()
	cpu0, t0 := cpuTime(), time.Now()

	if !w.wl.crash() {
		m.samples = w.closedLoop(c, w.wl.round, 0)
	} else {
		// Kill points come from their own stream: drawing them from the
		// schedule's would make which sessions lie depend on cycle timing.
		// Cycles come in pairs whose kill points add up to killMin+killMax,
		// so every round kills after the same number of completions.
		kills := rand.New(rand.NewSource(seed ^ 0x6b696c6c))
		k := 0
		for cycle := 0; cycle < w.wl.cycles; cycle++ {
			if cycle%2 == 0 {
				k = w.wl.killMin + kills.Intn(w.wl.killMax-w.wl.killMin+1)
			} else {
				k = w.wl.killMin + w.wl.killMax - k
			}
			if err := crashCycle(w, m, c, k); err != nil {
				return nil, err
			}
		}
	}

	m.wall, m.cpu = time.Since(t0), cpuTime()-cpu0
	m.permutes, m.glvSplits = keccak.Permutes()-perm0, secp256k1.GLVSplits()-glv0
	if w.reg != nil {
		runtime.ReadMemStats(&ms1)
		m.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	height1 := w.chain.Height()
	m.blocks = height1 - height0
	for n := height0 + 1; n <= height1; n++ {
		b, err := w.chain.BlockByNumber(n)
		if err != nil {
			return nil, err
		}
		m.gas += b.Header.GasUsed
		m.txs += uint64(len(b.Transactions))
		for _, tx := range b.Transactions {
			m.calldata += uint64(len(tx.Data))
		}
	}
	return m, nil
}

// crashCycle is one generation of crash_recover: serve until the k-th
// clean completion, die, recover from the WAL, drain the resumed tickets.
func crashCycle(w *world, m *measured, c, k int) error {
	gen := w.hub
	// Read after the previous Recover returned: it counts its resumed
	// tickets as started before handing the hub over.
	started0 := gen.Metrics().SessionsStarted
	served := w.closedLoop(c, 0, k)
	sp := w.spans.begin(0, 0, "hub.Stop")
	gen.Stop()
	sp.end()
	accepted := gen.Metrics().SessionsStarted - started0

	sp = w.spans.begin(0, 0, "hub.Recover")
	t0 := time.Now()
	next, rr, err := hub.Recover(w.st, w.chain, w.net, w.faucet, w.hubCfg, w.registry)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("recover (cycle %d): %w", m.crash.Cycles, err)
	}
	w.hub = next
	m.recoverDur = append(m.recoverDur, d)

	// In flight at the kill: crashed tickets by session ID. A ticket whose
	// Submit raced the kill was never journaled and appears nowhere; the
	// hub's own accepted count tells the two apart below.
	inflight := make(map[uint64]*sample)
	var ended uint64 // completed or failed outright: accounted by their samples
	for _, s := range served {
		if s.crashed() {
			inflight[s.id] = s
			continue
		}
		ended++
		m.samples = append(m.samples, s)
	}
	sp = w.spans.begin(0, 0, "drain resumed")
	found := 0
	for _, rs := range rr.Sessions {
		s, ok := inflight[rs.ID]
		if !ok {
			continue
		}
		found++
		switch rs.Outcome {
		case hub.RecoveryResumed:
			m.crash.Resumed++
			t0 := time.Now()
			rep := rs.Ticket.Report()
			rsm := newSample(-1, s.adversarial, time.Since(t0), rep)
			m.samples = append(m.samples, rsm)
		case hub.RecoveryAbandoned:
			m.crash.Abandoned++
		default:
			// A worker never reports a crash after writing the terminal
			// record, so a crashed ticket the WAL calls terminal is as
			// unaccounted as a missing one.
			found--
		}
	}
	sp.end()
	m.crash.Cycles++
	m.crash.Accepted += accepted
	m.crash.Folded += len(rr.Sessions)
	if died := int(accepted - ended); died > found {
		m.crash.Lost += died - found
	}
	return nil
}
