package state

import (
	"bytes"
	"sync"
	"testing"

	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// committedBase builds a StateDB with a few committed accounts: a funded
// EOA at 0x01, a contract at 0x02 with code and storage.
func committedBase(t *testing.T) *StateDB {
	t.Helper()
	s := New()
	s.SetBalance(addr(1), uint256.NewInt(1_000_000))
	s.SetNonce(addr(1), 7)
	s.SetBalance(addr(2), uint256.NewInt(1))
	s.SetCode(addr(2), []byte{0x60, 0x00})
	s.SetState(addr(2), slot(1), slot(0xAA))
	s.Finalise()
	s.Commit()
	return s
}

func TestRecordingFootprint(t *testing.T) {
	s := committedBase(t)
	f := s.ForkRecording()

	f.GetBalance(addr(1))
	f.GetNonce(addr(1))
	f.GetCode(addr(2))
	f.GetState(addr(2), slot(1))
	f.GetState(addr(2), slot(2))
	f.AddBalance(addr(3), uint256.NewInt(5))
	f.SetNonce(addr(1), 8)
	f.SetState(addr(2), slot(3), slot(0xBB))

	a := f.TakeAccess()
	if a == nil {
		t.Fatal("TakeAccess returned nil after ForkRecording")
	}
	for _, want := range []types.Address{addr(1), addr(2)} {
		if _, ok := a.ReadAccount[want]; !ok {
			t.Errorf("account read of %x not recorded", want)
		}
	}
	for _, want := range []SlotKey{{addr(2), slot(1)}, {addr(2), slot(2)}} {
		if _, ok := a.ReadSlot[want]; !ok {
			t.Errorf("slot read %x/%x not recorded", want.Addr, want.Slot)
		}
	}
	if a.WriteAccount[addr(3)]&wBalance == 0 {
		t.Error("balance write not recorded")
	}
	if a.WriteAccount[addr(1)]&wNonce == 0 {
		t.Error("nonce write not recorded")
	}
	if _, ok := a.WriteSlot[SlotKey{addr(2), slot(3)}]; !ok {
		t.Error("slot write not recorded")
	}
	// Recording stops with TakeAccess.
	f.SetBalance(addr(9), uint256.NewInt(1))
	if got := f.TakeAccess(); got != nil {
		t.Error("second TakeAccess returned a footprint after recording stopped")
	}
}

func TestAccessIndexConflicts(t *testing.T) {
	writerA := newAccess()
	writerA.WriteAccount[addr(1)] = wBalance
	writerA.WriteSlot[SlotKey{addr(2), slot(1)}] = struct{}{}

	ix := NewAccessIndex()
	ix.Add(writerA)

	// Account read vs account write: conflict.
	r1 := newAccess()
	r1.ReadAccount[addr(1)] = struct{}{}
	if !ix.Conflicts(r1) {
		t.Error("account read vs account write missed")
	}
	// Same slot: conflict. Different slot of the same contract: no conflict.
	r2 := newAccess()
	r2.ReadSlot[SlotKey{addr(2), slot(1)}] = struct{}{}
	if !ix.Conflicts(r2) {
		t.Error("slot read vs slot write missed")
	}
	r3 := newAccess()
	r3.ReadSlot[SlotKey{addr(2), slot(9)}] = struct{}{}
	r3.ReadAccount[addr(2)] = struct{}{} // code read of the contract
	if ix.Conflicts(r3) {
		t.Error("disjoint slot + code read flagged: account writes must not shadow slot granularity")
	}
	// Write-write: conflict (blind increments would be lost on replay).
	w1 := newAccess()
	w1.WriteAccount[addr(1)] = wBalance
	if !ix.Conflicts(w1) {
		t.Error("write-write missed")
	}
	// Destroyed account: wildcard over all its slots.
	killer := newAccess()
	killer.WriteAccount[addr(2)] = wDestroyed
	ix2 := NewAccessIndex()
	ix2.Add(killer)
	if !ix2.Conflicts(r3) {
		t.Error("slot read of destroyed account missed")
	}
}

func TestAccessTouches(t *testing.T) {
	a := newAccess()
	a.ReadSlot[SlotKey{addr(4), slot(2)}] = struct{}{}
	if !a.Touches(addr(4)) {
		t.Error("slot read not seen by Touches")
	}
	if a.Touches(addr(5)) {
		t.Error("untouched address reported")
	}
	a.WriteSlot[SlotKey{addr(5), slot(0)}] = struct{}{}
	if !a.Touches(addr(5)) {
		t.Error("slot write not seen by Touches")
	}
}

// TestExtractApplyRoundtrip: run mutations on a recording fork, extract the
// write set, replay it onto a second fork of the same base — the commit
// roots must coincide.
func TestExtractApplyRoundtrip(t *testing.T) {
	base := committedBase(t)

	f := base.ForkRecording()
	f.SubBalance(addr(1), uint256.NewInt(1000))
	f.SetNonce(addr(1), 8)
	f.CreateAccount(addr(7))
	f.SetBalance(addr(7), uint256.NewInt(42))
	f.SetCode(addr(7), []byte{0xFE})
	f.SetState(addr(2), slot(1), slot(0xCC))
	f.SetState(addr(2), slot(5), slot(0xDD))
	f.Finalise()
	access := f.TakeAccess()
	ws := f.ExtractWrites(access)
	wantRoot := f.Commit()

	g := base.Fork()
	g.ApplyWrites(ws)
	g.Finalise()
	if got := g.Commit(); got != wantRoot {
		t.Fatalf("replayed root %x != executed root %x", got, wantRoot)
	}
	if !bytes.Equal(g.GetCode(addr(7)), []byte{0xFE}) {
		t.Error("replay lost created account's code")
	}
}

// TestExtractSkipsReverted: a write that was journal-reverted extracts the
// block-start value (or nothing, for a reverted creation) so its replay is
// a value-level no-op.
func TestExtractSkipsReverted(t *testing.T) {
	base := committedBase(t)
	f := base.ForkRecording()

	snap := f.Snapshot()
	f.CreateAccount(addr(8))
	f.SetBalance(addr(8), uint256.NewInt(5))
	f.SetState(addr(2), slot(6), slot(0xEE))
	f.RevertToSnapshot(snap)
	f.SetState(addr(2), slot(1), slot(0xAB)) // a surviving write
	f.Finalise()

	access := f.TakeAccess()
	ws := f.ExtractWrites(access)
	for _, aw := range ws.Accounts {
		if aw.Addr == addr(8) {
			t.Fatal("reverted account creation extracted")
		}
		for _, sw := range aw.Slots {
			if sw.Slot == slot(6) {
				t.Fatal("reverted slot write extracted")
			}
		}
	}

	g := base.Fork()
	g.ApplyWrites(ws)
	g.Finalise()
	if got := g.GetState(addr(2), slot(1)); got != slot(0xAB) {
		t.Errorf("surviving write lost: %x", got)
	}
}

// TestExtractSelfDestruct: a destroyed account extracts as a destroy and
// replays to the same post-Finalise deletion.
func TestExtractSelfDestruct(t *testing.T) {
	base := committedBase(t)
	f := base.ForkRecording()
	f.SelfDestruct(addr(2))
	f.Finalise()
	access := f.TakeAccess()
	ws := f.ExtractWrites(access)
	wantRoot := f.Commit()

	g := base.Fork()
	g.ApplyWrites(ws)
	g.Finalise()
	if got := g.Commit(); got != wantRoot {
		t.Fatalf("destroy replay root %x != executed %x", got, wantRoot)
	}
	if g.Exist(addr(2)) {
		t.Error("destroyed account still exists after replay")
	}
}

// TestForkIsolation: a fork sees only the committed root; parent dirt stays
// invisible, fork dirt never leaks back.
func TestForkIsolation(t *testing.T) {
	base := committedBase(t)
	base.SetBalance(addr(1), uint256.NewInt(77)) // uncommitted parent dirt

	f := base.Fork()
	if got := f.GetBalance(addr(1)); !got.Eq(uint256.NewInt(1_000_000)) {
		t.Errorf("fork sees uncommitted parent write: %s", got)
	}
	f.SetBalance(addr(1), uint256.NewInt(5))
	f.SetState(addr(2), slot(1), slot(0xFF))
	if got := base.GetBalance(addr(1)); !got.Eq(uint256.NewInt(77)) {
		t.Errorf("fork write leaked into parent: %s", got)
	}
	if got := base.GetState(addr(2), slot(1)); got != slot(0xAA) {
		t.Errorf("fork storage write leaked into parent: %x", got)
	}
}

// TestForkRecordingCodeIsolation: concurrent forks SetCode without racing
// on the parent's content-addressed code store, and still read parent code
// through the fallback.
func TestForkRecordingCodeIsolation(t *testing.T) {
	base := committedBase(t)
	f1 := base.ForkRecording()
	f2 := base.ForkRecording()

	f1.SetCode(addr(10), []byte{0x01})
	f2.SetCode(addr(10), []byte{0x02})
	if !bytes.Equal(f1.GetCode(addr(10)), []byte{0x01}) || !bytes.Equal(f2.GetCode(addr(10)), []byte{0x02}) {
		t.Error("fork-private code stores bleed into each other")
	}
	// Parent code reachable through the fallback store.
	if !bytes.Equal(f1.GetCode(addr(2)), []byte{0x60, 0x00}) {
		t.Error("fork lost access to parent code")
	}
}

// TestConcurrentForks is the race-detector workout for the speculative
// substrate: many recording forks of one committed parent, all executing
// reads and writes (including code-store writes) concurrently.
func TestConcurrentForks(t *testing.T) {
	base := committedBase(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n byte) {
			defer wg.Done()
			f := base.ForkRecording()
			for j := 0; j < 50; j++ {
				f.GetBalance(addr(1))
				f.GetState(addr(2), slot(1))
				f.GetCode(addr(2))
				f.AddBalance(addr(20+n), uint256.NewInt(uint64(j)))
				f.SetState(addr(2), slot(n), slot(n))
				f.SetCode(addr(20+n), []byte{n, byte(j)})
				snap := f.Snapshot()
				f.SetBalance(addr(40+n), uint256.NewInt(1))
				f.RevertToSnapshot(snap)
			}
			f.Finalise()
			a := f.TakeAccess()
			if ws := f.ExtractWrites(a); len(ws.Accounts) == 0 {
				t.Error("empty write set from mutating fork")
			}
		}(byte(i))
	}
	wg.Wait()
	// The parent never saw any of it.
	if base.Exist(addr(21)) {
		t.Error("fork account leaked into parent")
	}
	if got := base.GetBalance(addr(1)); !got.Eq(uint256.NewInt(1_000_000)) {
		t.Errorf("parent balance disturbed: %s", got)
	}
}

// TestSnapshotRevertAcrossForkReads: journal revert inside a fork restores
// values loaded lazily from the committed trie.
func TestSnapshotRevertAcrossForkReads(t *testing.T) {
	base := committedBase(t)
	f := base.Fork()
	snap := f.Snapshot()
	f.SetBalance(addr(1), uint256.NewInt(3))
	f.SetState(addr(2), slot(1), slot(0x11))
	f.RevertToSnapshot(snap)
	if got := f.GetBalance(addr(1)); !got.Eq(uint256.NewInt(1_000_000)) {
		t.Errorf("revert lost trie-loaded balance: %s", got)
	}
	if got := f.GetState(addr(2), slot(1)); got != slot(0xAA) {
		t.Errorf("revert lost trie-loaded storage: %x", got)
	}
}

// TestDirtySetIsolationAcrossCommit: committing a fork does not disturb the
// parent or sibling forks mid-flight.
func TestDirtySetIsolationAcrossCommit(t *testing.T) {
	base := committedBase(t)
	f1 := base.Fork()
	f2 := base.Fork()
	f1.SetBalance(addr(1), uint256.NewInt(111))
	f1.Finalise()
	f1.Commit()
	if got := f2.GetBalance(addr(1)); !got.Eq(uint256.NewInt(1_000_000)) {
		t.Errorf("sibling fork observed f1's commit: %s", got)
	}
	if got := base.GetBalance(addr(1)); !got.Eq(uint256.NewInt(1_000_000)) {
		t.Errorf("parent observed f1's commit: %s", got)
	}
}
