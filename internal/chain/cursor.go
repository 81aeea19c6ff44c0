package chain

import "onoffchain/internal/types"

// LogCursor is a resumable position in the chain's log history: the
// poll-side counterpart of a BlockLogSubscription for consumers that persist
// their progress and survive restarts (the hub's watchtower checkpoints
// its cursor in the WAL and resumes from it after a crash). Next drains
// all logs mined since the cursor's position and advances it; the caller
// decides when a position is durable.
//
// A cursor is single-consumer: it holds no locks of its own and must not
// be shared between goroutines without external synchronization.
type LogCursor struct {
	c    *Chain
	q    FilterQuery
	next uint64 // first block not yet returned
}

// NewLogCursor creates a cursor over logs matching q's Address/Topic
// selectors, positioned so the first Next returns logs starting at block
// from. q's FromBlock/ToBlock range fields are ignored — the cursor IS
// the range.
func (c *Chain) NewLogCursor(q FilterQuery, from uint64) *LogCursor {
	return &LogCursor{c: c, q: q, next: from}
}

// Position returns the first block number Next has not yet covered.
func (lc *LogCursor) Position() uint64 { return lc.next }

// Next returns all matching logs in blocks [Position, head] in chain
// order, together with the head block number it advanced through. A nil
// slice with head < Position means no new blocks were mined.
func (lc *LogCursor) Next() ([]*types.Log, uint64) {
	head := lc.c.Height()
	if head < lc.next {
		return nil, head
	}
	q := lc.q
	q.FromBlock, q.ToBlock = lc.next, head
	logs := lc.c.FilterLogs(q)
	lc.next = head + 1
	return logs, head
}
