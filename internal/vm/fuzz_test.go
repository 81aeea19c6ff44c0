package vm_test

import (
	"testing"

	"onoffchain/internal/abi"
	"onoffchain/internal/hub"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/types"
	"onoffchain/internal/vm"
)

// FuzzVMDiff pins the interpreter to the pre-jump-table loop kept in
// oracle_test.go: arbitrary code and calldata, run as a creation and then
// as a call of whatever code the creation returns, must leave identical
// return bytes, error, gas, refund, logs and state on both.
func FuzzVMDiff(f *testing.F) {
	// The four hub specs' signed off-chain bytecode, called the way the
	// sandbox calls it.
	selector := abi.SelectorOf("computeResult()")
	for _, spec := range []*hub.Spec{
		hub.BettingSpec(16, 600, false),
		hub.PoolSpec(4, 600, false),
		hub.LotterySpec(6, 64, 600, false),
		hub.AuctionSpec(600, false),
	} {
		split, err := hybrid.Split(spec.Source, spec.Contract, spec.Policy)
		if err != nil {
			f.Fatalf("%s: split: %v", spec.Scenario, err)
		}
		addrs := make([]types.Address, split.Participants)
		for i := range addrs {
			addrs[i] = types.BytesToAddress([]byte{0xA0, byte(i + 1)})
		}
		bytecode, err := split.OffChain.DeployWithArgs(spec.CtorArgs(addrs, 1_500_000_000)...)
		if err != nil {
			f.Fatalf("%s: off-chain bytecode: %v", spec.Scenario, err)
		}
		f.Add(bytecode, selector[:])
	}
	// A PUSH32 cut short by the end of the code, and a jump into PUSH data
	// whose byte is JUMPDEST.
	f.Add([]byte{byte(vm.PUSH32), 1, 2, 3}, []byte(nil))
	f.Add([]byte{byte(vm.PUSH1), byte(vm.JUMPDEST), byte(vm.PUSH1), 1, byte(vm.JUMP)}, []byte(nil))
	for _, code := range blockEdgeCases() {
		f.Add(code, []byte(nil))
	}
	// Every opcode, undefined ones included, over seventeen stack words:
	// enough operands for any instruction (SWAP16 takes the most), so each
	// reaches its own case.
	for op := 0; op < 256; op++ {
		var code []byte
		for i := 0; i < 17; i++ {
			code = append(code, byte(vm.PUSH1), 0x20)
		}
		f.Add(append(code, byte(op)), []byte{0xde, 0xad})
	}
	f.Fuzz(func(t *testing.T, code, input []byte) {
		vm.CheckAgainstOracle(t, code, input)
	})
}

// asm assembles opcodes and immediate bytes given as ints.
func asm(parts ...int) []byte {
	code := make([]byte, len(parts))
	for i, p := range parts {
		code[i] = byte(p)
	}
	return code
}

// blockEdgeCases is code that takes the interpreter's basic blocks to
// their edges: a block whose checks fail partway, a block whose prepaid
// gas must be given back, GAS partway through straight-line code, jumps
// into PUSH data, and code that ends without a STOP.
func blockEdgeCases() [][]byte {
	const (
		push1, push2, push32       = int(vm.PUSH1), int(vm.PUSH2), int(vm.PUSH32)
		jumpdest, jump, jumpi, pop = int(vm.JUMPDEST), int(vm.JUMP), int(vm.JUMPI), int(vm.POP)
	)
	var cases [][]byte

	// Stack underflow at the third POP of a block entered on an empty
	// stack, and overflow at the 1025th PUSH.
	cases = append(cases, asm(push1, 1, push1, 2, pop, pop, pop, push1, 0, pop))
	var deep []int
	for i := 0; i <= vm.StackLimit; i++ {
		deep = append(deep, push1, 1)
	}
	cases = append(cases, asm(deep...))

	// Forty-nine SSTOREs of fresh slots (20,006 gas each with their
	// pushes), a PUSH2 and a 26-gas loop run 746 times leave 307 of the
	// 1,000,000 gas when the loop's JUMPI falls through into one block: j
	// JUMPDESTs, an MSTORE that grows memory by a word (3 gas), ten
	// PUSH1/POP pairs (50 gas). With j = 248..246 the block is entered fast
	// with 0..2 gas to spare, so the MSTORE's charge fails on the prepaid
	// gas alone, which must be given back; the block then runs out of gas
	// op by op. Smaller j leaves enough gas; larger j fails the block's gas
	// check on entry.
	for _, j := range []int{210, 245, 246, 247, 248, 249, 270} {
		var code []int
		for slot := 1; slot <= 49; slot++ {
			code = append(code, push1, 1, push1, slot, int(vm.SSTORE))
		}
		loop := len(code) + 3
		code = append(code, push2, 746>>8, 746&0xff)
		code = append(code, jumpdest, push1, 1, int(vm.SWAP1), int(vm.SUB), int(vm.DUP1), push1, loop, jumpi)
		for i := 0; i < j; i++ {
			code = append(code, jumpdest)
		}
		code = append(code, push1, 0, push1, 0, int(vm.MSTORE))
		for i := 0; i < 10; i++ {
			code = append(code, push1, 0, pop)
		}
		cases = append(cases, asm(code...))
	}

	// Errors other than gas partway through a fast block: an MLOAD whose
	// offset overflows, a RETURNDATACOPY past the return data.
	mload := []int{push32}
	for i := 0; i < 32; i++ {
		mload = append(mload, 0xff)
	}
	cases = append(cases, asm(append(mload, int(vm.MLOAD), push1, 0, pop, push1, 0, pop)...))
	cases = append(cases, asm(push1, 1, push1, 0, push1, 0, int(vm.RETURNDATACOPY), push1, 0, pop))

	// GAS partway through straight-line code, its reading returned.
	cases = append(cases, asm(push1, 1, push1, 2, int(vm.ADD), int(vm.GAS), push1, 0, int(vm.MSTORE),
		push1, 32, push1, 0, int(vm.RETURN)))

	// A slot read twice around a write: by the frame itself, and by a
	// call back into the contract (one byte of calldata takes the SSTORE
	// branch at 35).
	sload, sstore := int(vm.SLOAD), int(vm.SSTORE)
	cases = append(cases, asm(push1, 0, sload, pop, push1, 5, push1, 0, sstore,
		push1, 0, sload, push1, 0, int(vm.MSTORE), push1, 32, push1, 0, int(vm.RETURN)))
	cases = append(cases, asm(int(vm.CALLDATASIZE), push1, 35, jumpi,
		push1, 0, sload, pop,
		push1, 0, push1, 0, push1, 1, push1, 0, push1, 0, int(vm.ADDRESS), push2, 0xff, 0xff, int(vm.CALL), pop,
		push1, 0, sload, push1, 0, int(vm.MSTORE), push1, 32, push1, 0, int(vm.RETURN),
		jumpdest, push1, 7, push1, 0, sstore, int(vm.STOP)))

	// A jump to a JUMPDEST byte inside PUSH data, with a real JUMPDEST
	// after it.
	cases = append(cases, asm(push1, 4, jump, push2, jumpdest, jumpdest, jumpdest, int(vm.STOP)))

	// Code that ends without STOP: after an ADD, and after a JUMPI that
	// falls through at the last byte.
	cases = append(cases, asm(push1, 1, push1, 2, int(vm.ADD)))
	cases = append(cases, asm(push1, 0, push1, 0, jumpi))

	// A PUSH cut short by the end of the code at the end of a jumped-to
	// block, and a PUSH1 with no immediate at all.
	cases = append(cases, asm(push1, 3, jump, jumpdest, push1, 7, push1, 0, int(vm.MSTORE), push32, 1, 2))
	cases = append(cases, asm(push1, 0, push1))
	return cases
}
