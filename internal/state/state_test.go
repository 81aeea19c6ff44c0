package state

import (
	"testing"

	"onoffchain/internal/trie"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

func addr(b byte) types.Address { return types.BytesToAddress([]byte{b}) }
func slot(b byte) types.Hash    { return types.BytesToHash([]byte{b}) }

func TestBalanceOperations(t *testing.T) {
	s := New()
	a := addr(1)
	if !s.GetBalance(a).IsZero() {
		t.Error("fresh account has balance")
	}
	s.AddBalance(a, uint256.NewInt(100))
	s.SubBalance(a, uint256.NewInt(30))
	if got := s.GetBalance(a); got.Uint64() != 70 {
		t.Errorf("balance = %s, want 70", got)
	}
	s.SetBalance(a, uint256.NewInt(5))
	if got := s.GetBalance(a); got.Uint64() != 5 {
		t.Errorf("balance = %s, want 5", got)
	}
	// GetBalance must return a copy, not an alias.
	b := s.GetBalance(a)
	b.SetUint64(9999)
	if s.GetBalance(a).Uint64() != 5 {
		t.Error("GetBalance leaks internal pointer")
	}
}

func TestNonceAndCode(t *testing.T) {
	s := New()
	a := addr(2)
	s.SetNonce(a, 7)
	if s.GetNonce(a) != 7 {
		t.Error("nonce mismatch")
	}
	code := []byte{0x60, 0x00, 0x60, 0x00, 0xf3}
	s.SetCode(a, code)
	if got := s.GetCode(a); string(got) != string(code) {
		t.Errorf("code = %x", got)
	}
	if s.GetCodeSize(a) != len(code) {
		t.Error("code size mismatch")
	}
	if s.GetCodeHash(a) == types.EmptyCodeHash {
		t.Error("code hash not updated")
	}
	if s.GetCodeHash(addr(99)) != (types.Hash{}) {
		t.Error("missing account should have zero code hash")
	}
}

func TestStorage(t *testing.T) {
	s := New()
	a := addr(3)
	k, v := slot(1), slot(0xAB)
	if !s.GetState(a, k).IsZero() {
		t.Error("fresh slot not zero")
	}
	s.SetState(a, k, v)
	if s.GetState(a, k) != v {
		t.Error("slot readback mismatch")
	}
}

func TestSnapshotRevert(t *testing.T) {
	s := New()
	a := addr(4)
	s.AddBalance(a, uint256.NewInt(1000))
	s.SetNonce(a, 1)
	s.SetState(a, slot(1), slot(10))

	snap := s.Snapshot()
	s.SubBalance(a, uint256.NewInt(999))
	s.SetNonce(a, 42)
	s.SetState(a, slot(1), slot(99))
	s.SetState(a, slot(2), slot(77))
	s.SetCode(a, []byte{1, 2, 3})

	s.RevertToSnapshot(snap)

	if got := s.GetBalance(a); got.Uint64() != 1000 {
		t.Errorf("balance after revert = %s", got)
	}
	if s.GetNonce(a) != 1 {
		t.Errorf("nonce after revert = %d", s.GetNonce(a))
	}
	if s.GetState(a, slot(1)) != slot(10) {
		t.Error("slot 1 not reverted")
	}
	if !s.GetState(a, slot(2)).IsZero() {
		t.Error("slot 2 not reverted")
	}
	if s.GetCode(a) != nil {
		t.Error("code not reverted")
	}
}

func TestNestedSnapshots(t *testing.T) {
	s := New()
	a := addr(5)
	s.AddBalance(a, uint256.NewInt(10))
	s1 := s.Snapshot()
	s.AddBalance(a, uint256.NewInt(10))
	s2 := s.Snapshot()
	s.AddBalance(a, uint256.NewInt(10))
	s.RevertToSnapshot(s2)
	if s.GetBalance(a).Uint64() != 20 {
		t.Errorf("after inner revert: %s", s.GetBalance(a))
	}
	s.RevertToSnapshot(s1)
	if s.GetBalance(a).Uint64() != 10 {
		t.Errorf("after outer revert: %s", s.GetBalance(a))
	}
}

func TestRevertAccountCreation(t *testing.T) {
	s := New()
	a := addr(6)
	snap := s.Snapshot()
	s.AddBalance(a, uint256.NewInt(1))
	if !s.Exist(a) {
		t.Fatal("account not created")
	}
	s.RevertToSnapshot(snap)
	if s.Exist(a) {
		t.Error("account creation not reverted")
	}
}

func TestSelfDestruct(t *testing.T) {
	s := New()
	a := addr(7)
	s.AddBalance(a, uint256.NewInt(500))
	s.SetCode(a, []byte{0xff})

	snap := s.Snapshot()
	s.SelfDestruct(a)
	if !s.HasSelfDestructed(a) || !s.GetBalance(a).IsZero() {
		t.Error("selfdestruct not applied")
	}
	s.RevertToSnapshot(snap)
	if s.HasSelfDestructed(a) || s.GetBalance(a).Uint64() != 500 {
		t.Error("selfdestruct not reverted")
	}

	s.SelfDestruct(a)
	s.Commit()
	if s.Exist(a) {
		t.Error("selfdestructed account survived commit")
	}
}

func TestRefundCounter(t *testing.T) {
	s := New()
	s.AddRefund(15000)
	s.AddRefund(15000)
	if s.GetRefund() != 30000 {
		t.Error("refund accumulation wrong")
	}
	snap := s.Snapshot()
	s.AddRefund(4800)
	s.RevertToSnapshot(snap)
	if s.GetRefund() != 30000 {
		t.Error("refund not reverted")
	}
}

func TestLogsJournaled(t *testing.T) {
	s := New()
	s.SetTxContext(12)
	s.AddLog(&types.Log{Address: addr(1)})
	snap := s.Snapshot()
	s.AddLog(&types.Log{Address: addr(2)})
	s.AddLog(&types.Log{Address: addr(3)})
	s.RevertToSnapshot(snap)
	logs := s.TakeLogs()
	if len(logs) != 1 {
		t.Fatalf("%d logs after the revert, want 1", len(logs))
	}
	if logs[0].BlockNumber != 12 {
		t.Error("log context wrong")
	}
	if len(s.TakeLogs()) != 0 {
		t.Error("TakeLogs did not clear")
	}
}

func TestCommitRootDeterministic(t *testing.T) {
	build := func() types.Hash {
		s := New()
		for i := byte(1); i <= 20; i++ {
			s.AddBalance(addr(i), uint256.NewInt(uint64(i)*1000))
			s.SetNonce(addr(i), uint64(i))
			s.SetState(addr(i), slot(i), slot(i+1))
		}
		return s.Commit()
	}
	if build() != build() {
		t.Error("commit root not deterministic")
	}
}

func TestCommitRootChangesWithState(t *testing.T) {
	s := New()
	s.AddBalance(addr(1), uint256.NewInt(1))
	r1 := s.Commit()
	s.AddBalance(addr(1), uint256.NewInt(1))
	r2 := s.Commit()
	if r1 == r2 {
		t.Error("root unchanged after balance change")
	}
}

func TestEmptyStateRoot(t *testing.T) {
	s := New()
	if s.Commit() != trie.EmptyRoot {
		t.Error("empty state root != EmptyRoot")
	}
}

func TestStorageSurvivesCommitCycles(t *testing.T) {
	s := New()
	a := addr(9)
	s.SetState(a, slot(1), slot(11))
	s.SetState(a, slot(2), slot(22))
	s.Commit()
	s.SetState(a, slot(3), slot(33))
	s.Commit()
	if s.GetState(a, slot(1)) != slot(11) || s.GetState(a, slot(2)) != slot(22) || s.GetState(a, slot(3)) != slot(33) {
		t.Error("storage lost across commits")
	}
	// Clearing a slot must remove it.
	s.SetState(a, slot(2), types.Hash{})
	s.Commit()
	if !s.GetState(a, slot(2)).IsZero() {
		t.Error("cleared slot survived")
	}
}

func TestEmptyPerEIP161(t *testing.T) {
	s := New()
	a := addr(11)
	if !s.Empty(a) {
		t.Error("missing account not empty")
	}
	s.AddBalance(a, new(uint256.Int)) // touch with zero
	if !s.Empty(a) {
		t.Error("zero-balance touched account not empty")
	}
	s.AddBalance(a, uint256.NewInt(1))
	if s.Empty(a) {
		t.Error("funded account considered empty")
	}
}

func TestFinaliseClearsJournal(t *testing.T) {
	s := New()
	s.AddBalance(addr(1), uint256.NewInt(10))
	s.AddRefund(100)
	s.Finalise()
	if s.GetRefund() != 0 {
		t.Error("refund survived finalise")
	}
	if s.Snapshot() != 0 {
		t.Error("journal not cleared")
	}
	// Post-finalise revert to 0 must be a no-op, not roll back balances.
	s.RevertToSnapshot(0)
	if s.GetBalance(addr(1)).Uint64() != 10 {
		t.Error("finalised mutation rolled back")
	}
}

// TestParallelCommitMatchesSerial: the parallel storage flush must produce
// the identical storage tries and state root as a serial flush of the same
// mutations.
func TestParallelCommitMatchesSerial(t *testing.T) {
	build := func() *StateDB {
		s := New()
		for a := byte(1); a <= 24; a++ {
			s.SetNonce(addr(a), uint64(a))
			s.AddBalance(addr(a), uint256.NewInt(uint64(a)*1000))
			for k := byte(0); k < 8; k++ {
				s.SetState(addr(a), slot(a^k), types.BytesToHash([]byte{a, k, a + k}))
			}
		}
		return s
	}
	// flush runs flushStorage with the given worker count and stores the
	// tries it returns, as Commit does. It then empties each object's dirty
	// storage, so the Commit that follows folds exactly these tries and
	// does not flush the slots a second time.
	flush := func(s *StateDB, workers int) map[types.Address]types.Hash {
		s.Finalise()
		var objs []*stateObject
		for _, obj := range s.objects {
			if len(obj.storage) > 0 {
				objs = append(objs, obj)
			}
		}
		roots := make(map[types.Address]types.Hash)
		for i, st := range s.flushStorage(objs, workers) {
			obj := objs[i]
			s.tries[obj.address] = st
			if h := st.Hash(); h != obj.account.Root {
				t.Fatalf("%d workers: account %s trie %s, account root %s", workers, obj.address.Hex(), h.Hex(), obj.account.Root.Hex())
			}
			roots[obj.address] = obj.account.Root
			clear(obj.storage)
		}
		return roots
	}
	serial, parallel := build(), build()
	serialRoots, parallelRoots := flush(serial, 1), flush(parallel, 8)
	if len(serialRoots) != 24 || len(parallelRoots) != 24 {
		t.Fatalf("flushed %d accounts serially, %d in parallel; want 24", len(serialRoots), len(parallelRoots))
	}
	for a, want := range serialRoots {
		if got := parallelRoots[a]; got != want {
			t.Fatalf("account %s: parallel storage root %s, serial %s", a.Hex(), got.Hex(), want.Hex())
		}
	}
	rootSerial, rootParallel := serial.Commit(), parallel.Commit()
	if rootSerial != rootParallel {
		t.Fatalf("parallel commit root %s, serial %s", rootParallel.Hex(), rootSerial.Hex())
	}
	// Storage still readable after both.
	for _, s := range []*StateDB{serial, parallel} {
		for a := byte(1); a <= 24; a++ {
			for k := byte(0); k < 8; k++ {
				want := types.BytesToHash([]byte{a, k, a + k})
				if got := s.GetState(addr(a), slot(a^k)); got != want {
					t.Fatalf("account %d slot %d: got %s, want %s", a, k, got.Hex(), want.Hex())
				}
			}
		}
	}
}

// TestCommitEndsEveryObject: after Commit no account is cached, and every
// committed field reads back from the trie and the code store — directly,
// after a revert of later writes, and through a Fork. Two contracts with
// the same code share one stored copy.
func TestCommitEndsEveryObject(t *testing.T) {
	s := New()
	code := []byte{0x60, 0x01, 0x60, 0x00, 0x55, 0x00}
	for a := byte(1); a <= 3; a++ {
		s.SetBalance(addr(a), uint256.NewInt(uint64(a)*100))
		s.SetNonce(addr(a), uint64(a))
		for k := byte(1); k <= 4; k++ {
			s.SetState(addr(a), slot(k), slot(a*16+k))
		}
	}
	s.SetCode(addr(1), code)
	s.SetCode(addr(2), code)
	s.Commit()
	if len(s.objects) != 0 {
		t.Fatalf("%d objects cached after Commit, want 0", len(s.objects))
	}
	if len(s.codes) != 1 {
		t.Fatalf("code store holds %d entries, want 1", len(s.codes))
	}
	if c1, c2 := s.GetCode(addr(1)), s.GetCode(addr(2)); &c1[0] != &c2[0] {
		t.Error("two contracts with identical code hold two copies")
	}

	check := func(label string, db *StateDB) {
		t.Helper()
		for a := byte(1); a <= 3; a++ {
			if got := db.GetBalance(addr(a)); got.Uint64() != uint64(a)*100 {
				t.Errorf("%s: account %d balance %s", label, a, got)
			}
			if got := db.GetNonce(addr(a)); got != uint64(a) {
				t.Errorf("%s: account %d nonce %d", label, a, got)
			}
			for k := byte(1); k <= 4; k++ {
				if got := db.GetState(addr(a), slot(k)); got != slot(a*16+k) {
					t.Errorf("%s: account %d slot %d = %s", label, a, k, got.Hex())
				}
			}
		}
		for a, want := range map[byte][]byte{1: code, 2: code, 3: nil} {
			if got := db.GetCode(addr(a)); string(got) != string(want) {
				t.Errorf("%s: account %d code %x, want %x", label, a, got, want)
			}
		}
	}
	check("after commit", s)
	check("fork", s.Fork())

	snap := s.Snapshot()
	for a := byte(1); a <= 3; a++ {
		s.SetBalance(addr(a), uint256.NewInt(1))
		s.SetNonce(addr(a), 99)
		s.SetState(addr(a), slot(1), slot(0xEE))
		s.SetState(addr(a), slot(2), types.Hash{})
		s.SetCode(addr(a), []byte{0xfe})
	}
	s.RevertToSnapshot(snap)
	check("after revert", s)
	s.Commit()
	if len(s.objects) != 0 {
		t.Fatalf("%d objects cached after the second Commit, want 0", len(s.objects))
	}
	check("after revert and commit", s)
	check("fork after revert and commit", s.Fork())
}

// TestCommitForkMatchesDirectWrites: writes made on a fork and folded back
// with CommitFork give the root, and the reads, of the same writes made on
// the state itself — including a destroyed account, a cleared slot and new
// code — while the state's own reads before the fold see none of them.
func TestCommitForkMatchesDirectWrites(t *testing.T) {
	build := func() *StateDB {
		s := New()
		for i := byte(1); i <= 4; i++ {
			s.SetBalance(addr(i), uint256.NewInt(uint64(i)*100))
			s.SetState(addr(i), slot(1), slot(i))
			s.SetState(addr(i), slot(2), slot(9))
		}
		s.Commit()
		return s
	}
	write := func(s *StateDB) {
		s.AddBalance(addr(1), uint256.NewInt(5))
		s.SetState(addr(2), slot(1), types.Hash{})
		s.SetState(addr(2), slot(3), slot(7))
		s.SelfDestruct(addr(3))
		s.SetCode(addr(5), []byte{0x60, 0x00})
		s.SetNonce(addr(5), 1)
		s.Finalise()
	}
	direct := build()
	write(direct)
	want := direct.Commit()

	s := build()
	s.GetState(addr(2), slot(1)) // a cached read the fold must supersede
	f := s.Fork()
	write(f)
	if s.GetBalance(addr(1)).Uint64() != 100 || s.GetState(addr(2), slot(1)) != slot(2) || s.GetCodeSize(addr(5)) != 0 {
		t.Fatal("the state sees its fork's writes before the fold")
	}
	if got := s.CommitFork(f); got != want {
		t.Fatalf("CommitFork root %x, want %x", got, want)
	}
	if s.GetBalance(addr(1)).Uint64() != 105 || s.GetState(addr(2), slot(1)) != (types.Hash{}) ||
		s.GetState(addr(2), slot(3)) != slot(7) || s.Exist(addr(3)) || s.GetCodeSize(addr(5)) != 2 {
		t.Fatal("the state does not read its fork's writes after the fold")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("CommitFork accepted a fork of another state")
		}
	}()
	s.CommitFork(build().Fork())
}
