package vm

import (
	"testing"

	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// DELEGATECALL executes the target's code in the caller's storage context
// and preserves msg.sender.
func TestDelegateCallStorageContext(t *testing.T) {
	evm, st := testEVM()
	// Library: SSTORE slot1 = CALLER (to observe sender preservation).
	lib := deploy(st, 0x70, asm(CALLER, push1(1), SSTORE, STOP))
	// Proxy: DELEGATECALL the library.
	proxy := deploy(st, 0x71, asm(
		push1(0), push1(0), push1(0), push1(0),
		push1(0x70),
		byte(PUSH2), 0xff, 0xff,
		DELEGATECALL,
		POP, STOP,
	))
	_, _, err := evm.Call(caller, proxy, nil, 200_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The write landed in the PROXY's storage, not the library's.
	got := st.GetState(proxy, types.BytesToHash([]byte{1}))
	want := types.BytesToHash(caller[:])
	if got != want {
		t.Errorf("proxy slot = %s, want caller %s", got.Hex(), want.Hex())
	}
	if !st.GetState(lib, types.BytesToHash([]byte{1})).IsZero() {
		t.Error("library storage written")
	}
}

// CALLCODE also uses the caller's storage but msg.sender becomes the
// calling contract.
func TestCallCodeStorageContext(t *testing.T) {
	evm, st := testEVM()
	deploy(st, 0x72, asm(CALLER, push1(2), SSTORE, STOP))
	proxy := deploy(st, 0x73, asm(
		push1(0), push1(0), push1(0), push1(0), push1(0),
		push1(0x72),
		byte(PUSH2), 0xff, 0xff,
		CALLCODE,
		POP, STOP,
	))
	_, _, err := evm.Call(caller, proxy, nil, 200_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := st.GetState(proxy, types.BytesToHash([]byte{2}))
	if want := types.BytesToHash(proxy[:]); got != want {
		t.Errorf("callcode sender = %s, want proxy %s", got.Hex(), want.Hex())
	}
}

func TestCreate2DeterministicAddress(t *testing.T) {
	evm, _ := testEVM()
	initCode := asm(push1(0), push1(0), RETURN) // deploys empty code
	salt := types.BytesToHash([]byte{0x42})
	_, addr1, _, err := evm.Create2(caller, initCode, 200_000, nil, salt)
	if err != nil {
		t.Fatal(err)
	}
	// Same salt + code from a different nonce must give the same address
	// formula — so a second create at the same address collides.
	_, _, _, err = evm.Create2(caller, initCode, 200_000, nil, salt)
	if err != ErrContractAddressCollision {
		t.Errorf("second create2 err = %v, want collision", err)
	}
	// Different salt gives a different address.
	_, addr2, _, err := evm.Create2(caller, initCode, 200_000, nil, types.BytesToHash([]byte{0x43}))
	if err != nil {
		t.Fatal(err)
	}
	if addr1 == addr2 {
		t.Error("different salts produced the same address")
	}
}

func TestExtCodeOpcodes(t *testing.T) {
	evm, st := testEVM()
	target := deploy(st, 0x74, asm(STOP, STOP, STOP))
	// EXTCODESIZE of target, then EXTCODEHASH; return both.
	code := asm(
		push1(0x74), EXTCODESIZE, push1(0), MSTORE,
		push1(0x74), EXTCODEHASH, push1(32), MSTORE,
		push1(64), push1(0), RETURN,
	)
	probe := deploy(st, 0x75, code)
	ret, _, err := evm.Call(caller, probe, nil, 200_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := new(uint256.Int).SetBytes(ret[:32])
	if size.Uint64() != 3 {
		t.Errorf("extcodesize = %s", size)
	}
	hash := types.BytesToHash(ret[32:])
	if hash != st.GetCodeHash(target) {
		t.Errorf("extcodehash = %s", hash.Hex())
	}
	// EXTCODEHASH of a nonexistent account is zero.
	code2 := asm(push1(0x99), EXTCODEHASH, push1(0), MSTORE, push1(32), push1(0), RETURN)
	probe2 := deploy(st, 0x76, code2)
	ret2, _, err := evm.Call(caller, probe2, nil, 200_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !new(uint256.Int).SetBytes(ret2).IsZero() {
		t.Error("extcodehash of empty account nonzero")
	}
}

func TestReturnDataCopyOutOfBounds(t *testing.T) {
	evm, st := testEVM()
	// RETURNDATACOPY with no prior call: any nonzero size is out of bounds.
	code := asm(push1(1), push1(0), push1(0), RETURNDATACOPY, STOP)
	target := deploy(st, 0x77, code)
	if _, _, err := evm.Call(caller, target, nil, 100_000, nil); err != ErrReturnDataOutOfBounds {
		t.Errorf("err = %v", err)
	}
}

func TestCallToPrecompileViaOpcode(t *testing.T) {
	evm, st := testEVM()
	// Call identity precompile (0x04) copying 3 bytes through it.
	code := asm(
		push1(0xAA), push1(0), MSTORE8,
		push1(0xBB), push1(1), MSTORE8,
		push1(0xCC), push1(2), MSTORE8,
		push1(3), push1(0x20), // retSize, retOffset
		push1(3), push1(0), // argsSize, argsOffset
		push1(0),    // value
		push1(0x04), // identity
		byte(PUSH2), 0xff, 0xff,
		CALL,
		POP,
		push1(3), push1(0x20), RETURN,
	)
	target := deploy(st, 0x78, code)
	ret, _, err := evm.Call(caller, target, nil, 200_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret) != 3 || ret[0] != 0xAA || ret[1] != 0xBB || ret[2] != 0xCC {
		t.Errorf("identity copy = %x", ret)
	}
}

func TestSixtyFourthRuleCapsForwarding(t *testing.T) {
	evm, st := testEVM()
	// Callee burns everything it gets (infinite loop); caller requests a
	// huge forward but must retain >= 1/64 of its gas and succeed.
	deploy(st, 0x79, asm(JUMPDEST, push1(0), JUMP))
	callerCode := asm(
		push1(0), push1(0), push1(0), push1(0), push1(0),
		push1(0x79),
		byte(PUSH32),
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		CALL,
		push1(0), MSTORE, push1(32), push1(0), RETURN,
	)
	target := deploy(st, 0x7a, callerCode)
	ret, left, err := evm.Call(caller, target, nil, 500_000, nil)
	if err != nil {
		t.Fatalf("outer call died: %v", err)
	}
	// Inner call failed (OOG) but the outer survived on its 1/64 reserve.
	if got := new(uint256.Int).SetBytes(ret); !got.IsZero() {
		t.Error("burning callee reported success")
	}
	if left == 0 {
		t.Error("outer frame kept no gas")
	}
}
