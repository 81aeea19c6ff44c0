package vm

import (
	"testing"

	"onoffchain/internal/uint256"
)

// Exact gas assertions pin the yellow-paper schedule the reproduction's
// Table II comparability depends on. Each case runs a hand-assembled
// fragment and asserts the precise gas consumed by the frame (no
// transaction intrinsic cost at this layer).
func TestExactOpcodeGas(t *testing.T) {
	cases := []struct {
		name string
		code []byte
		want uint64
	}{
		{
			// PUSH1 + PUSH1 + ADD + STOP = 3 + 3 + 3 + 0.
			"add", asm(push1(1), push1(2), ADD, STOP), 9,
		},
		{
			// MSTORE to word 0: 3 + 3 + 3 + memory expansion 1 word (3).
			"mstore", asm(push1(1), push1(0), MSTORE, STOP), 12,
		},
		{
			// SHA3 of 32 bytes at 0: 3 + 3 + (30 + 6*1) + mem 3 = 45.
			"sha3", asm(push1(32), push1(0), SHA3, STOP), 45,
		},
		{
			// EXP with 1-byte exponent: 3 + 3 + (10 + 50) = 66.
			"exp", asm(push1(0x10), push1(2), SWAP1, EXP, STOP), 66 + 3, // +3 for SWAP1
		},
		{
			// SLOAD cold (pre-Berlin flat 200): 3 + 200.
			"sload", asm(push1(1), SLOAD, STOP), 203,
		},
		{
			// SSTORE zero->nonzero: 3 + 3 + 20000.
			"sstore-set", asm(push1(7), push1(1), SSTORE, STOP), 20006,
		},
		{
			// SSTORE zero->zero: 3 + 3 + 5000 (reset rate).
			"sstore-noop", asm(push1(0), push1(1), SSTORE, STOP), 5006,
		},
		{
			// JUMPDEST costs 1; JUMP costs 8: 3 + 8 + 1 + 0.
			"jump", asm(push1(3), JUMP, JUMPDEST, STOP), 12,
		},
		{
			// BALANCE (Constantinople 400): 3 + 400.
			"balance", asm(push1(0x99), BALANCE, STOP), 403,
		},
		{
			// LOG1, 1 byte of data from memory word 0:
			// MSTORE8 (3+3+3+mem 3) + topic push 3 + size/offset pushes 6 +
			// LOG1 (375+375) + data byte 8.
			"log1", asm(push1(0xEE), push1(0), MSTORE8, push1(0x77), push1(1), push1(0), LOG1, STOP),
			3 + 3 + 3 + 3 + 3 + 3 + 3 + 375 + 375 + 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evm, st := testEVM()
			target := deploy(st, 0x90, tc.code)
			const budget = 1_000_000
			_, left, err := evm.Call(caller, target, nil, budget, nil)
			if err != nil {
				t.Fatalf("exec: %v", err)
			}
			if used := budget - left; used != tc.want {
				t.Errorf("gas used = %d, want %d", used, tc.want)
			}
		})
	}
}

// The quadratic memory term: expanding to w words costs 3w + w^2/512.
func TestExactMemoryExpansionGas(t *testing.T) {
	evm, st := testEVM()
	// MSTORE at offset 32*1024-32 expands to 1024 words:
	// cost = 3*1024 + 1024^2/512 = 3072 + 2048 = 5120.
	code := asm(push1(1), byte(PUSH2), 0x7f, 0xe0, MSTORE, STOP)
	target := deploy(st, 0x91, code)
	const budget = 1_000_000
	_, left, err := evm.Call(caller, target, nil, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(3 + 3 + 3 + 5120)
	if used := budget - left; used != want {
		t.Errorf("gas used = %d, want %d", used, want)
	}
}

// CALL with value: 700 base + 9000 value surcharge + 25000 new account,
// minus the 2300 stipend given to (and unused by) the empty callee.
func TestExactCallValueGas(t *testing.T) {
	evm, st := testEVM()
	st.SetBalance(caller, uint256.NewInt(1_000_000))
	st.Finalise()
	code := asm(
		push1(0), push1(0), push1(0), push1(0), // ret/args
		push1(5),    // value
		push1(0x99), // fresh account
		push1(0),    // gas request
		CALL, POP, STOP,
	)
	target := deploy(st, 0x92, code)
	// Fund the calling contract so the transfer succeeds.
	st.SetBalance(target, uint256.NewInt(100))
	st.Finalise()
	const budget = 1_000_000
	_, left, err := evm.Call(caller, target, nil, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 7 pushes (21) + POP (2) + CALL 700 + value 9000 + new account 25000,
	// minus the 2300 stipend the empty callee hands back unconsumed
	// (mainnet semantics: the stipend is granted on top of the forwarded
	// gas and refunds like any leftover).
	want := uint64(21 + 2 + 700 + 9000 + 25000 - 2300)
	if used := budget - left; used != want {
		t.Errorf("gas used = %d, want %d", used, want)
	}
}

// A call's input and output regions are one memory expansion, to the
// further end, whichever region reaches it; and a region too large to pay
// for is refused before memory grows, so the frame fails with out-of-gas
// rather than allocating it.
func TestCallMemoryExpansionGas(t *testing.T) {
	// STATICCALL(gas 0, identity, in [inOff, +inSize), out [outOff, +outSize))
	call := func(inOff, inSize, outOff, outSize []byte) []byte {
		return asm(outSize, outOff, inSize, inOff, push1(4), push1(0), STATICCALL, POP, STOP)
	}
	// 6 pushes (18) + STATICCALL 700 + POP 2, and memory: four words in
	// every case. The precompile gets no gas, fails, and hands none back.
	words := func(n uint64) uint64 { return 3*n + n*n/512 }
	for _, c := range []struct {
		name string
		code []byte
		want uint64
	}{
		{"input reaches further", call(push1(0), push1(0x80), push1(0), push1(0x20)), 720 + words(4)},
		{"output reaches further", call(push1(0), push1(0x20), push1(0x40), push1(0x40)), 720 + words(4)},
		{"disjoint regions", call(push1(0x60), push1(0x20), push1(0), push1(0x20)), 720 + words(4)},
	} {
		evm, st := testEVM()
		target := deploy(st, 0x93, c.code)
		const budget = 1_000_000
		_, left, err := evm.Call(caller, target, nil, budget, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if used := budget - left; used != c.want {
			t.Errorf("%s: gas used = %d, want %d", c.name, used, c.want)
		}
	}
	evm, st := testEVM()
	huge := []byte{byte(PUSH1 + 4), 0x20, 0x60, 0x20, 0x60, 0x20} // ~139 GB
	target := deploy(st, 0x94, call(push1(0), huge, push1(0), push1(0)))
	if _, _, err := evm.Call(caller, target, nil, 1_000_000, nil); err != ErrOutOfGas {
		t.Errorf("huge input region: err = %v, want out of gas", err)
	}
}
