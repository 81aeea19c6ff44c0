package whisper

import (
	"sync"

	"onoffchain/internal/types"
)

// Presence tracks membership liveness from heartbeats: a member is alive
// while its last Mark is within ttl of the caller-supplied clock. The
// clock's units are the caller's business (the federation uses wall-clock
// milliseconds — heartbeats measure process liveness, which the simulated
// chain clock says nothing about).
type Presence struct {
	mu   sync.Mutex
	ttl  uint64
	now  func() uint64
	seen map[types.Address]uint64
}

// NewPresence creates a tracker. ttl and now share one unit; a nil clock
// pins time at zero, making every marked member immortal (useful in
// tests).
func NewPresence(ttl uint64, now func() uint64) *Presence {
	if now == nil {
		now = func() uint64 { return 0 }
	}
	return &Presence{ttl: ttl, now: now, seen: make(map[types.Address]uint64)}
}

// Mark records a heartbeat from the member at the current clock reading.
func (p *Presence) Mark(member types.Address) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// >= so a constant clock (the nil-clock default pins time at zero)
	// still inserts the member — marked members must never read as dead
	// merely because the clock did not move.
	if t := p.now(); t >= p.seen[member] {
		p.seen[member] = t
	}
}

// Alive reports whether the member's last heartbeat is within the ttl.
func (p *Presence) Alive(member types.Address) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	at, ok := p.seen[member]
	return ok && p.now() <= at+p.ttl
}
