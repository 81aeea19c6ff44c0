package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"onoffchain/internal/telemetry"
)

// On-disk layout of one record frame:
//
//	┌────────────┬────────────┬──────────────┐
//	│ length u32 │ crc32c u32 │ RLP payload  │   (little-endian header)
//	└────────────┴────────────┴──────────────┘
//
// Appends are group-committed: concurrent callers' frames coalesce into
// one buffered write(2) (and one fsync when Sync is on) per flush. A
// flush is a single sequential write of whole frames, so a crash leaves
// at most one torn region per process generation — always at the tail of
// the segment that was active when that generation died (reopening starts
// a fresh segment, so several crash generations can each leave one torn
// tail). Replay tolerates exactly that: a frame that runs past a
// segment's end-of-file, or whose CRC fails on the final frame, ends that
// segment's replay cleanly; a CRC failure anywhere else is data
// corruption and reported as an error.
//
// Files:
//
//	wal-<idx>.seg   append-only record frames, rotated by size
//	snap-<idx>.snap all state up to and including segment <idx>, written
//	                atomically (tmp + rename) by Compact; replay =
//	                newest snapshot + all segments with index > <idx>

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store errors.
var (
	ErrClosed    = errors.New("store: closed")
	ErrCorrupt   = errors.New("store: corrupt record stream")
	ErrFrameSize = errors.New("store: frame exceeds size limit")
)

const (
	frameHeaderSize = 8
	// maxFrameSize bounds one record (a signed copy is a few KB; segments
	// a few MB). Anything larger is corruption, not data.
	maxFrameSize = 8 << 20
)

// Options tunes the store.
type Options struct {
	// SegmentSize triggers rotation once the active segment exceeds it
	// (default 4 MiB).
	SegmentSize int64
	// Sync fsyncs after every append. Off by default: the dev chain is
	// in-process, so the failure mode under test is process death, where
	// the page cache survives. Turn it on when the failure domain is the
	// whole machine.
	Sync bool
	// Telemetry, when set, publishes the WAL's series (append/fsync
	// latency, group-commit batch size, bytes written, rotations). Nil
	// disables exposition at no per-append cost beyond a nil check.
	Telemetry *telemetry.Registry
}

// Store is an append-only WAL with snapshot compaction. Safe for
// concurrent use; concurrent Appends are group-committed (see Append).
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	idx    uint64 // active segment index
	size   int64
	closed bool
	failed error // sticky: the first write/sync/rotate failure breaks the store

	// Group-commit queue (see AppendAsync): pending frames and whether a
	// leader is currently draining them.
	qmu     sync.Mutex
	queue   []*appendReq
	writing bool

	// Telemetry series (nil handles are no-ops when Options.Telemetry is
	// unset).
	hAppend *telemetry.Histogram // store_append_seconds: one write(2)
	hFsync  *telemetry.Histogram // store_fsync_seconds
	hBatch  *telemetry.Histogram // store_batch_frames: group-commit size
	mBytes  *telemetry.Counter   // store_bytes_total
}

// appendReq is one queued frame awaiting group commit.
type appendReq struct {
	frame []byte
	errc  chan error // buffered(1): the leader never blocks delivering
}

// Open creates or reopens a store rooted at dir. Existing segments and
// snapshots are left in place for Replay; appends go to a fresh segment
// numbered after everything already on disk.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 && segs[n-1] >= next {
		next = segs[n-1] + 1
	}
	if n := len(snaps); n > 0 && snaps[n-1] >= next {
		next = snaps[n-1] + 1
	}
	s := &Store{dir: dir, opts: opts}
	if reg := opts.Telemetry; reg != nil {
		s.hAppend = reg.Histogram("store_append_seconds", telemetry.DurationBuckets())
		s.hFsync = reg.Histogram("store_fsync_seconds", telemetry.DurationBuckets())
		s.hBatch = reg.Histogram("store_batch_frames", telemetry.SizeBuckets())
		s.mBytes = reg.Counter("store_bytes_total")
		// SLO: a sticky write failure means every in-flight session journal
		// is lost on crash — fail the probe outright. A p99 append above
		// 50ms (spinning disk contention, throttled volume) only degrades:
		// group commit keeps the hub live, but admission latency suffers.
		reg.RegisterHealth("wal_append", func() telemetry.ComponentHealth {
			s.mu.Lock()
			failed := s.failed
			s.mu.Unlock()
			if failed != nil {
				return telemetry.Unhealthy("sticky append failure: " + failed.Error())
			}
			if s.hAppend.Count() >= 16 {
				if p99 := s.hAppend.Quantile(0.99); p99 > 0.05 {
					return telemetry.Degraded(fmt.Sprintf("append p99 %.1fms", p99*1e3))
				}
			}
			return telemetry.Healthy()
		})
	}
	if err := s.openSegment(next); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func segName(idx uint64) string  { return fmt.Sprintf("wal-%08d.seg", idx) }
func snapName(idx uint64) string { return fmt.Sprintf("snap-%08d.snap", idx) }

// scanDir lists segment and snapshot indexes in ascending order.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			return 0, false
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		return n, err == nil
	}
	for _, e := range entries {
		if n, ok := parse(e.Name(), "wal-", ".seg"); ok {
			segs = append(segs, n)
		} else if n, ok := parse(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

func (s *Store) openSegment(idx uint64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(idx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.f, s.idx, s.size = f, idx, st.Size()
	return nil
}

// frameRecord builds the on-disk frame for one record — the single
// definition of the frame layout, shared by Append and Compact.
func frameRecord(r *Record) ([]byte, error) {
	payload := r.Encode()
	if len(payload) > maxFrameSize {
		return nil, ErrFrameSize
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderSize:], payload)
	return frame, nil
}

// Append frames and durably writes one record: enqueue, then wait for a
// group commit to carry it. Concurrent Appends coalesce — one leader
// drains the whole queue with a single write(2) (and a single fsync when
// Sync is on), so N concurrent appenders cost one syscall batch instead
// of N. A batch is still one sequential write, so a crash can only tear
// the tail of the final frames, exactly like the single-record case.
func (s *Store) Append(r *Record) error {
	return s.AppendAsync(r)()
}

// AppendAsync reserves the record's position in the WAL NOW — the write
// order is the queue order — and returns a wait function that blocks
// until the record (and everything queued before it) is durable. Callers
// that serialize ordering under their own lock (the hub's journal) call
// AppendAsync inside the lock and wait outside it, which is what lets
// independent appenders coalesce at all. Every returned wait function
// MUST be called: a queued frame is only guaranteed to be written once
// its waiter (or a later one) has pumped the queue.
func (s *Store) AppendAsync(r *Record) func() error {
	frame, err := frameRecord(r)
	if err != nil {
		return func() error { return err }
	}
	req := &appendReq{frame: frame, errc: make(chan error, 1)}
	s.qmu.Lock()
	s.queue = append(s.queue, req)
	s.qmu.Unlock()
	return func() error { return s.awaitAppend(req) }
}

// awaitAppend blocks until req's frame is durably written, becoming the
// group-commit leader if no other appender is already writing.
func (s *Store) awaitAppend(req *appendReq) error {
	for {
		select {
		case err := <-req.errc:
			return err
		default:
		}
		s.qmu.Lock()
		if s.writing {
			// A leader is draining the queue; it will write our frame (it
			// only steps down with the queue empty).
			s.qmu.Unlock()
			return <-req.errc
		}
		s.writing = true
		for len(s.queue) > 0 {
			batch := s.queue
			s.queue = nil
			s.qmu.Unlock()
			err := s.writeBatch(batch)
			for _, q := range batch {
				q.errc <- err
			}
			s.qmu.Lock()
		}
		s.writing = false
		s.qmu.Unlock()
		// Our frame was in a batch we just wrote (or an earlier leader's);
		// the loop re-reads errc.
	}
}

// writeBatch commits one group of frames: a single write(2) of the
// concatenation, one fsync when Sync is on, then a rotation check. Any
// failure is sticky — a WAL that failed a write holds unknown state, so
// every later append and compaction refuses with the original error
// rather than risk persisting a stream with a hole in it.
func (s *Store) writeBatch(batch []*appendReq) error {
	total := 0
	for _, q := range batch {
		total += len(q.frame)
	}
	buf := make([]byte, 0, total)
	for _, q := range batch {
		buf = append(buf, q.frame...)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	fail := func(err error) error {
		s.failed = err
		return err
	}
	writeStart := time.Now()
	if _, err := s.f.Write(buf); err != nil {
		return fail(fmt.Errorf("store: append: %w", err))
	}
	s.hAppend.ObserveSince(writeStart)
	s.hBatch.Observe(float64(len(batch)))
	s.mBytes.Add(uint64(len(buf)))
	s.size += int64(len(buf))
	if s.opts.Sync {
		syncStart := time.Now()
		if err := s.f.Sync(); err != nil {
			return fail(fmt.Errorf("store: sync: %w", err))
		}
		s.hFsync.ObserveSince(syncStart)
	}
	if s.size >= s.opts.SegmentSize {
		if err := s.rotateLocked(); err != nil {
			return fail(err)
		}
	}
	return nil
}

func (s *Store) rotateLocked() error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: rotate: %w", err)
	}
	return s.openSegment(s.idx + 1)
}

// Close seals the active segment. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// Replay returns every durable record in append order: the newest
// snapshot's records (if any) followed by all segment records after it.
// A torn frame at the tail of any segment is expected after a crash and
// ends that segment's replay without error; corruption anywhere else
// returns ErrCorrupt.
func (s *Store) Replay() ([]*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, snaps, err := scanDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []*Record
	base := uint64(0)
	if len(snaps) > 0 {
		base = snaps[len(snaps)-1]
		recs, err := readFrames(filepath.Join(s.dir, snapName(base)), false)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", base, err)
		}
		out = recs
	}
	var live []uint64
	for _, idx := range segs {
		if idx > base {
			live = append(live, idx)
		}
	}
	for _, idx := range live {
		recs, err := readFrames(filepath.Join(s.dir, segName(idx)), true)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", idx, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}

// readFrames decodes a frame stream. tolerateTail (segments, not
// snapshots) permits one torn frame at end-of-file — a frame that runs
// past EOF, a header that is itself partial garbage at EOF, or a CRC
// failure on the frame ending exactly at EOF. Any other malformation is
// ErrCorrupt.
func readFrames(path string, tolerateTail bool) ([]*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []*Record
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < frameHeaderSize {
			if tolerateTail {
				return out, nil
			}
			return nil, fmt.Errorf("%w: short header at offset %d", ErrCorrupt, off)
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		want := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxFrameSize {
			// Never benign: Append refuses frames this large, and a torn
			// single write(2) that got the 8-byte header down wrote a
			// valid length. This is corruption even at the tail.
			return nil, fmt.Errorf("%w: frame length %d at offset %d", ErrCorrupt, length, off)
		}
		if len(rest) < frameHeaderSize+int(length) {
			if tolerateTail {
				// The frame runs past EOF: a torn tail write.
				return out, nil
			}
			return nil, fmt.Errorf("%w: short frame (length %d) at offset %d", ErrCorrupt, length, off)
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(length)]
		if crc32.Checksum(payload, castagnoli) != want {
			if tolerateTail && off+frameHeaderSize+int(length) == len(data) {
				// Torn final frame: the length header survived but the
				// payload bytes did not all make it to disk.
				return out, nil
			}
			return nil, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: offset %d: %v", ErrCorrupt, off, err)
		}
		out = append(out, rec)
		off += frameHeaderSize + int(length)
	}
	return out, nil
}

// Compact atomically replaces all durable history with the given state
// records: it seals the active segment, writes the records to a snapshot
// covering everything up to that segment, then deletes the superseded
// segments and older snapshots. The caller provides the folded state (the
// store does not interpret records); the hub synthesizes the records of
// every live session plus its session-ID high mark.
func (s *Store) Compact(state []*Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		// A failed group write may have torn the durable stream mid-batch;
		// compacting from in-memory state would paper over the hole.
		return s.failed
	}
	sealed := s.idx
	if err := s.rotateLocked(); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	for _, r := range state {
		frame, err := frameRecord(r)
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, snapName(sealed))); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	// The snapshot is durable; everything it supersedes can go. Failures
	// here leave harmless stale files that the next Replay ignores.
	segs, snaps, err := scanDir(s.dir)
	if err != nil {
		return nil
	}
	for _, idx := range segs {
		if idx <= sealed {
			os.Remove(filepath.Join(s.dir, segName(idx)))
		}
	}
	for _, idx := range snaps {
		if idx < sealed {
			os.Remove(filepath.Join(s.dir, snapName(idx)))
		}
	}
	return nil
}
