package vm

import (
	"sync"

	"onoffchain/internal/uint256"
)

// Basic blocks. A block is the straight run of instructions from an entry
// point (pc 0, a jump's destination, or the instruction after one that
// ends a block) up to and including the first instruction that ends one:
// a jump, a halt, an undefined opcode, or an instruction that reads the
// gas left (GAS, the CALL and CREATE families), which must see exactly
// the gas the op-by-op loop would. A JUMPDEST reached by falling through
// does not end the block it is in; the block entered at that JUMPDEST is
// the tail of the same run.
//
// On entry the interpreter checks the block's constant gas and stack
// bounds at once. When they hold, it charges the constant gas and runs
// the block without a check per instruction: none of those checks can
// fail. When one does not, it runs the block op by op, so the halt comes
// at the same instruction, with the same error and gas left. Dynamic gas
// is still charged where it arises; if the prepaid constant gas of the
// block's later instructions is what stands in the way of such a charge,
// or an instruction fails some other way, that gas is given back first
// (Contract.charge, Contract.halt).
//
// A block is analysed the first time it is entered, and entering it runs
// it to its end unless the frame halts there. Every instruction but the
// one that ends a block costs at least 1 gas, so the analysis costs no
// more steps than the gas it runs on, plus one block per frame: hostile
// code cannot make it quadratic.

// endsBlock marks the defined opcodes after which a block ends; an
// undefined one ends it too, by halting.
var endsBlock = [256]bool{
	STOP: true, JUMP: true, JUMPI: true, GAS: true, RETURN: true, REVERT: true,
	SELFDESTRUCT: true, CREATE: true, CREATE2: true, CALL: true,
	CALLCODE: true, DELEGATECALL: true, STATICCALL: true,
}

// blockCost is the static cost of the block entered at pc: its constant
// gas, the stack height it needs on entry, and the most it grows the
// stack.
func blockCost(code []byte, pc uint64) (gas uint64, need, grow int) {
	height := 0
	for pc < uint64(len(code)) {
		op := OpCode(code[pc])
		spec := stackSpecs[op]
		if !spec.defined {
			break // halts before any check or charge
		}
		gas += constGas[op]
		need = max(need, spec.pop-height)
		height += spec.push - spec.pop
		grow = max(grow, height)
		if endsBlock[op] {
			break
		}
		pc++
		if op.IsPush() {
			pc += uint64(op - PUSH1 + 1)
		}
	}
	return gas, need, grow
}

// A frame keeps each block's cost, once analysed, packed into a word at
// the block's pc. Compiled code needs few words of stack and little gas
// per block; a block beyond the fields is marked to run op by op.
const (
	blockAnalyzed  = 1 << 31
	blockSlow      = 1 << 30
	blockBoundBits = 7
	blockBoundMax  = 1<<blockBoundBits - 1
	blockGasShift  = 2 * blockBoundBits
	blockGasMax    = 1<<(30-blockGasShift) - 1
)

func packBlock(gas uint64, need, grow int) uint32 {
	if gas > blockGasMax || need > blockBoundMax || grow > blockBoundMax {
		return blockAnalyzed | blockSlow
	}
	return blockAnalyzed | uint32(gas)<<blockGasShift | uint32(grow)<<blockBoundBits | uint32(need)
}

// frame is one run's scratch: its operand stack, its memory and its block
// table, one word per byte of code. Runs recycle frames through framePool,
// so none of them is allocated per call: a fresh stack is 32 KiB to zero.
// Nothing a run returns or logs aliases them (Memory.get copies).
type frame struct {
	stack  Stack
	mem    Memory
	blocks []uint32
	// slots caches the values the frame's SLOADs read, direct-mapped by a
	// key's low bits, so a loop over the same slots reads the state once;
	// slotsOK marks the valid entries. An SSTORE, a call and a creation
	// empty it: those are the only ways the contract's storage can change
	// while the frame runs.
	slots   [8]slotEntry
	slotsOK uint8
}

type slotEntry struct{ key, val uint256.Int }

var framePool = sync.Pool{New: func() any { return new(frame) }}

// reset readies f for a run of code: an empty stack, no memory, no block
// analysed.
func (f *frame) reset(code []byte) {
	f.stack.n = 0
	f.mem.store = f.mem.store[:0]
	f.slotsOK = 0
	if cap(f.blocks) < len(code) {
		f.blocks = make([]uint32, len(code))
		return
	}
	f.blocks = f.blocks[:len(code)]
	clear(f.blocks)
}

// cachedSlot returns the cache entry for key k and whether it holds k's
// value. On a miss the caller reads the state and fills the entry.
func (f *frame) cachedSlot(k *uint256.Int) (e *slotEntry, hit bool) {
	i := k[0] % uint64(len(f.slots))
	e = &f.slots[i]
	if f.slotsOK&(1<<i) != 0 && e.key == *k {
		return e, true
	}
	f.slotsOK |= 1 << i
	return e, false
}

// enter starts c's block at pc and reports whether it runs fast: its
// constant gas is then paid, and its stack bounds hold.
func (f *frame) enter(c *Contract, pc uint64) bool {
	if pc >= uint64(len(c.Code)) {
		return true // an implicit STOP
	}
	b := f.blocks[pc]
	if b == 0 {
		b = packBlock(blockCost(c.Code, pc))
		f.blocks[pc] = b
	}
	need, grow := int(b&blockBoundMax), int(b>>blockBoundBits&blockBoundMax)
	gas := uint64(b >> blockGasShift & blockGasMax)
	h := f.stack.n
	if b&blockSlow != 0 || h < need || h+grow > StackLimit || c.Gas < gas {
		return false
	}
	c.Gas -= gas
	return true
}

// restGas is the constant gas a block entered fast has prepaid for its
// instructions after pc, which have not run.
func restGas(code []byte, pc uint64) uint64 {
	op := OpCode(code[pc])
	if endsBlock[op] {
		return 0
	}
	pc++
	if op.IsPush() {
		pc += uint64(op - PUSH1 + 1)
	}
	gas, _, _ := blockCost(code, pc)
	return gas
}

// charge deducts a dynamic cost at pc and reports whether the block still
// runs fast. If the gas a fast block prepaid for its later instructions is
// what stands in the way, it is given back and the block finishes op by
// op, so the charge fails exactly where the op-by-op loop's would; a
// failed charge therefore always reports a slow block.
func (c *Contract) charge(cost uint64, fast bool, pc uint64) (stillFast, ok bool) {
	if c.Gas >= cost {
		c.Gas -= cost
		return fast, true
	}
	if fast {
		c.Gas += restGas(c.Code, pc)
	}
	return false, c.useGas(cost)
}

// halt is err, the error the frame ends with at pc, after giving back the
// gas a block entered fast prepaid for its instructions after pc.
func (c *Contract) halt(err error, fast bool, pc uint64) error {
	if fast {
		c.Gas += restGas(c.Code, pc)
	}
	return err
}
