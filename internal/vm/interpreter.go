package vm

import (
	"onoffchain/internal/keccak"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// stackSpec describes stack consumption per opcode for uniform validation.
type stackSpec struct {
	pop, push int
	defined   bool
}

var stackSpecs [256]stackSpec

func init() {
	def := func(op OpCode, pop, push int) {
		stackSpecs[op] = stackSpec{pop: pop, push: push, defined: true}
	}
	def(STOP, 0, 0)
	for _, op := range []OpCode{ADD, MUL, SUB, DIV, SDIV, MOD, SMOD, EXP, SIGNEXTEND, LT, GT, SLT, SGT, EQ, AND, OR, XOR, BYTE, SHL, SHR, SAR} {
		def(op, 2, 1)
	}
	for _, op := range []OpCode{ADDMOD, MULMOD} {
		def(op, 3, 1)
	}
	for _, op := range []OpCode{ISZERO, NOT, CALLDATALOAD, MLOAD, BALANCE, EXTCODESIZE, EXTCODEHASH, BLOCKHASH} {
		def(op, 1, 1)
	}
	def(SHA3, 2, 1)
	for _, op := range []OpCode{ADDRESS, ORIGIN, CALLER, CALLVALUE, CALLDATASIZE, CODESIZE, GASPRICE, RETURNDATASIZE, COINBASE, TIMESTAMP, NUMBER, DIFFICULTY, GASLIMIT, PC, MSIZE, GAS} {
		def(op, 0, 1)
	}
	for _, op := range []OpCode{CALLDATACOPY, CODECOPY, RETURNDATACOPY} {
		def(op, 3, 0)
	}
	def(EXTCODECOPY, 4, 0)
	def(POP, 1, 0)
	def(MSTORE, 2, 0)
	def(MSTORE8, 2, 0)
	def(SLOAD, 1, 1)
	def(SSTORE, 2, 0)
	def(JUMP, 1, 0)
	def(JUMPI, 2, 0)
	def(JUMPDEST, 0, 0)
	for i := 0; i < 32; i++ {
		def(PUSH1+OpCode(i), 0, 1)
	}
	for i := 0; i < 16; i++ {
		def(DUP1+OpCode(i), i+1, i+2)  // requires i+1, net +1
		def(SWAP1+OpCode(i), i+2, i+2) // requires i+2
	}
	for i := 0; i <= 4; i++ {
		def(LOG0+OpCode(i), 2+i, 0)
	}
	def(CREATE, 3, 1)
	def(CREATE2, 4, 1)
	def(CALL, 7, 1)
	def(CALLCODE, 7, 1)
	def(DELEGATECALL, 6, 1)
	def(STATICCALL, 6, 1)
	def(RETURN, 2, 0)
	def(REVERT, 2, 0)
	def(SELFDESTRUCT, 1, 0)
}

// memExpansion computes the gas to grow memory so [offset, offset+size) is
// addressable, returning the concrete offset/size as uint64. A zero-size
// reference touches no memory whatever its offset, so it comes back as
// [0, 0): the caller's resize to off+sz must not grow memory for free.
func memExpansion(mem *Memory, offset, size *uint256.Int) (cost, off, sz uint64, err error) {
	if size.IsZero() {
		return 0, 0, 0, nil
	}
	if !offset.IsUint64() || !size.IsUint64() {
		return 0, 0, 0, ErrGasUintOverflow
	}
	off, sz = offset.Uint64(), size.Uint64()
	end := off + sz
	if end < off || end > 1<<40 { // 1 TiB hard cap guards the simulator
		return 0, 0, 0, ErrGasUintOverflow
	}
	newWords := toWordSize(end)
	curWords := toWordSize(mem.size())
	if newWords <= curWords {
		return 0, off, sz, nil
	}
	return memoryGasCost(newWords) - memoryGasCost(curWords), off, sz, nil
}

// run executes a contract frame to completion. Write protection is
// governed by evm.static, which STATICCALL sets for the whole subtree.
// It runs basic blocks (block.go): fast, with the constant gas and stack
// bounds of a whole block checked on entry, or op by op.
func (evm *EVM) run(c *Contract) ([]byte, error) {
	evm.depth++
	prevReturnData := evm.returnData
	evm.returnData = nil
	defer func() {
		evm.depth--
		evm.returnData = prevReturnData
	}()
	readOnly := evm.static

	if len(c.Code) == 0 {
		return nil, nil
	}

	f := framePool.Get().(*frame)
	defer framePool.Put(f)
	f.reset(c.Code)
	st, mem := &f.stack, &f.mem
	var pc uint64
	code := c.Code
	fast := f.enter(c, 0)
	var ok bool

	for {
		if pc >= uint64(len(code)) {
			return nil, nil // implicit STOP
		}
		op := OpCode(code[pc])
		if !fast {
			spec := stackSpecs[op]
			if !spec.defined {
				return nil, ErrInvalidOpcode
			}
			if st.len() < spec.pop {
				return nil, ErrStackUnderflow
			}
			if st.len()-spec.pop+spec.push > StackLimit {
				return nil, ErrStackOverflow
			}
			if !c.useGas(constGas[op]) {
				return nil, ErrOutOfGas
			}
		}

		// A switch on op's value with a case for every byte value compiles
		// to a jump table: every opcode costs one indexed branch, not a
		// compare per case listed above it. Operands are worked on in
		// place: drop pops without copying the word, and the result
		// overwrites the slot it lands in.
		switch op {
		case STOP:
			return nil, nil

		case ADD, MUL, SUB, DIV, SDIV, MOD, SMOD, EXP, SIGNEXTEND, LT, GT,
			SLT, SGT, EQ, AND, OR, XOR, BYTE, SHL, SHR, SAR:
			x := st.drop()
			y := st.peek(0)
			var z uint256.Int
			switch op {
			case ADD:
				z.Add(x, y)
			case MUL:
				z.Mul(x, y)
			case SUB:
				z.Sub(x, y)
			case DIV:
				z.Div(x, y)
			case SDIV:
				z.SDiv(x, y)
			case MOD:
				z.Mod(x, y)
			case SMOD:
				z.SMod(x, y)
			case EXP:
				if fast, ok = c.charge(expGasCost(y), fast, pc); !ok {
					return nil, ErrOutOfGas
				}
				z.Exp(x, y)
			case SIGNEXTEND:
				z.SignExtend(x, y)
			case LT:
				if x.Lt(y) {
					z.SetOne()
				}
			case GT:
				if x.Gt(y) {
					z.SetOne()
				}
			case SLT:
				if x.Slt(y) {
					z.SetOne()
				}
			case SGT:
				if x.Sgt(y) {
					z.SetOne()
				}
			case EQ:
				if x.Eq(y) {
					z.SetOne()
				}
			case AND:
				z.And(x, y)
			case OR:
				z.Or(x, y)
			case XOR:
				z.Xor(x, y)
			case BYTE:
				z.Byte(x, y)
			case SHL:
				if x.IsUint64() && x.Uint64() < 256 {
					z.Lsh(y, uint(x.Uint64()))
				}
			case SHR:
				if x.IsUint64() && x.Uint64() < 256 {
					z.Rsh(y, uint(x.Uint64()))
				}
			case SAR:
				if x.IsUint64() && x.Uint64() < 256 {
					z.SRsh(y, uint(x.Uint64()))
				} else if y.Sign() < 0 {
					z.Not(&z) // all ones
				}
			}
			*y = z

		case ADDMOD, MULMOD:
			x := st.drop()
			y := st.drop()
			m := st.peek(0)
			var z uint256.Int
			if op == ADDMOD {
				z.AddMod(x, y, m)
			} else {
				z.MulMod(x, y, m)
			}
			*m = z

		case ISZERO:
			v := st.peek(0)
			if v.IsZero() {
				v.SetOne()
			} else {
				v.Clear()
			}

		case NOT:
			v := st.peek(0)
			v.Not(v)

		case SHA3:
			offset := st.drop()
			size := st.peek(0)
			var data []byte
			if msize := mem.size(); offset.IsUint64() && size.IsUint64() && size[0] <= msize && offset[0] <= msize-size[0] {
				// In bounds: nothing to grow or charge for memory.
				if fast, ok = c.charge(toWordSize(size[0])*GasSha3Word, fast, pc); !ok {
					return nil, ErrOutOfGas
				}
				data = mem.store[offset[0] : offset[0]+size[0]]
			} else {
				cost, off, sz, err := memExpansion(mem, offset, size)
				if err != nil {
					return nil, c.halt(err, fast, pc)
				}
				if fast, ok = c.charge(cost+toWordSize(sz)*GasSha3Word, fast, pc); !ok {
					return nil, ErrOutOfGas
				}
				mem.resize(off + sz)
				data = mem.view(off, sz)
			}
			h := keccak.Sum256(data)
			size.SetBytes32(&h)

		case ADDRESS:
			pushAddress(st, c.Address)
		case BALANCE:
			a := st.peek(0)
			addr := wordToAddress(a)
			*a = *evm.State.GetBalance(addr)
		case ORIGIN:
			pushAddress(st, evm.Tx.Origin)
		case CALLER:
			pushAddress(st, c.CallerAddress)
		case CALLVALUE:
			st.push(c.Value)
		case CALLDATALOAD:
			v := st.peek(0)
			v.SetBytes(readSlice(c.Input, v, 32))
		case CALLDATASIZE:
			st.pushUint64(uint64(len(c.Input)))
		case CODESIZE:
			st.pushUint64(uint64(len(c.Code)))
		case GASPRICE:
			st.push(evm.Tx.GasPrice)
		case RETURNDATASIZE:
			st.pushUint64(uint64(len(evm.returnData)))

		case CALLDATACOPY, CODECOPY, RETURNDATACOPY:
			memOff := st.drop()
			dataOff := st.drop()
			size := st.drop()
			cost, off, sz, err := memExpansion(mem, memOff, size)
			if err != nil {
				return nil, c.halt(err, fast, pc)
			}
			if fast, ok = c.charge(cost+toWordSize(sz)*GasCopyWord, fast, pc); !ok {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			var src []byte
			switch op {
			case CALLDATACOPY:
				src = c.Input
			case CODECOPY:
				src = c.Code
			case RETURNDATACOPY:
				// Strict bounds: out-of-range is an error, not zero fill.
				end := new(uint256.Int).Add(dataOff, size)
				if !end.IsUint64() || end.Uint64() > uint64(len(evm.returnData)) {
					return nil, c.halt(ErrReturnDataOutOfBounds, fast, pc)
				}
				src = evm.returnData
			}
			mem.set(off, readSlice(src, dataOff, sz))

		case EXTCODESIZE:
			a := st.peek(0)
			addr := wordToAddress(a)
			a.SetUint64(uint64(evm.State.GetCodeSize(addr)))

		case EXTCODECOPY:
			target := st.drop()
			memOff := st.drop()
			codeOff := st.drop()
			size := st.drop()
			cost, off, sz, err := memExpansion(mem, memOff, size)
			if err != nil {
				return nil, c.halt(err, fast, pc)
			}
			if fast, ok = c.charge(cost+toWordSize(sz)*GasCopyWord, fast, pc); !ok {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			extCode := evm.State.GetCode(wordToAddress(target))
			mem.set(off, readSlice(extCode, codeOff, sz))

		case EXTCODEHASH:
			a := st.peek(0)
			addr := wordToAddress(a)
			if evm.State.Empty(addr) {
				a.Clear()
			} else {
				a.SetBytes(evm.State.GetCodeHash(addr).Bytes())
			}

		case BLOCKHASH:
			v := st.peek(0)
			if v.IsUint64() && v.Uint64() < evm.Block.Number && evm.Block.Number-v.Uint64() <= 256 {
				h := evm.Block.BlockHash(v.Uint64())
				v.SetBytes(h.Bytes())
			} else {
				v.Clear()
			}
		case COINBASE:
			pushAddress(st, evm.Block.Coinbase)
		case TIMESTAMP:
			st.pushUint64(evm.Block.Time)
		case NUMBER:
			st.pushUint64(evm.Block.Number)
		case DIFFICULTY:
			st.push(evm.Block.Difficulty)
		case GASLIMIT:
			st.pushUint64(evm.Block.GasLimit)

		case POP:
			st.drop()

		case MLOAD:
			offset := st.peek(0)
			if w := mem.word(offset); w != nil {
				offset.SetBytes32(w)
				break
			}
			cost, off, _, err := memExpansion(mem, offset, uint256.NewInt(32))
			if err != nil {
				return nil, c.halt(err, fast, pc)
			}
			if fast, ok = c.charge(cost, fast, pc); !ok {
				return nil, ErrOutOfGas
			}
			mem.resize(off + 32)
			offset.SetBytes32((*[32]byte)(mem.store[off:]))

		case MSTORE:
			offset := st.drop()
			value := st.drop()
			if w := mem.word(offset); w != nil {
				value.PutBytes32(w)
				break
			}
			cost, off, _, err := memExpansion(mem, offset, uint256.NewInt(32))
			if err != nil {
				return nil, c.halt(err, fast, pc)
			}
			if fast, ok = c.charge(cost, fast, pc); !ok {
				return nil, ErrOutOfGas
			}
			mem.resize(off + 32)
			value.PutBytes32((*[32]byte)(mem.store[off:]))

		case MSTORE8:
			offset := st.drop()
			value := st.drop()
			cost, off, _, err := memExpansion(mem, offset, uint256.NewInt(1))
			if err != nil {
				return nil, c.halt(err, fast, pc)
			}
			if fast, ok = c.charge(cost, fast, pc); !ok {
				return nil, ErrOutOfGas
			}
			mem.resize(off + 1)
			mem.setByte(off, byte(value.Uint64()))

		case SLOAD:
			k := st.peek(0)
			e, hit := f.cachedSlot(k)
			if hit {
				*k = e.val
				break
			}
			val := evm.State.GetState(c.Address, types.Hash(k.Bytes32()))
			e.key = *k
			k.SetBytes32((*[32]byte)(&val))
			e.val = *k

		case SSTORE:
			if readOnly {
				return nil, c.halt(ErrWriteProtection, fast, pc)
			}
			key := st.drop()
			val := st.drop()
			kh := types.Hash(key.Bytes32())
			vh := types.Hash(val.Bytes32())
			current := evm.State.GetState(c.Address, kh)
			// Pre-EIP-1283 rule (the schedule Solidity-era gas intuition and
			// the paper's Table II numbers are based on).
			var cost uint64
			switch {
			case current.IsZero() && !vh.IsZero():
				cost = GasSstoreSet
			default:
				cost = GasSstoreReset
				if !current.IsZero() && vh.IsZero() {
					evm.State.AddRefund(GasSstoreRefund)
				}
			}
			if fast, ok = c.charge(cost, fast, pc); !ok {
				return nil, ErrOutOfGas
			}
			evm.State.SetState(c.Address, kh, vh)
			f.slotsOK = 0

		case JUMP:
			dest := st.drop()
			if !c.validJumpdest(dest) {
				return nil, ErrInvalidJump
			}
			pc = dest.Uint64()
			fast = f.enter(c, pc)
			continue

		case JUMPI:
			dest := st.drop()
			cond := st.drop()
			if !cond.IsZero() {
				if !c.validJumpdest(dest) {
					return nil, ErrInvalidJump
				}
				pc = dest.Uint64()
				fast = f.enter(c, pc)
				continue
			}
			fast = f.enter(c, pc+1)

		case PC:
			st.pushUint64(pc)
		case MSIZE:
			st.pushUint64(mem.size())
		case GAS:
			st.pushUint64(c.Gas)
			fast = f.enter(c, pc+1)
		case JUMPDEST:
			// no-op

		case PUSH1:
			v := st.slot()
			if pc+1 < uint64(len(code)) {
				v.SetUint64(uint64(code[pc+1]))
			} else {
				v.Clear()
			}
			pc += 2
			continue

		case PUSH2, PUSH1 + 2, PUSH1 + 3, PUSH1 + 4, PUSH1 + 5,
			PUSH1 + 6, PUSH1 + 7, PUSH1 + 8, PUSH1 + 9, PUSH1 + 10, PUSH1 + 11,
			PUSH1 + 12, PUSH1 + 13, PUSH1 + 14, PUSH1 + 15, PUSH1 + 16, PUSH1 + 17,
			PUSH1 + 18, PUSH1 + 19, PUSH1 + 20, PUSH1 + 21, PUSH1 + 22, PUSH1 + 23,
			PUSH1 + 24, PUSH1 + 25, PUSH1 + 26, PUSH1 + 27, PUSH1 + 28, PUSH1 + 29,
			PUSH1 + 30, PUSH1 + 31:
			n := uint64(op-PUSH1) + 1
			v := st.slot()
			if end := pc + 1 + n; end <= uint64(len(code)) {
				v.SetBytes(code[pc+1 : end])
			} else {
				*v = truncatedPush(code[pc+1:], n)
			}
			pc += n + 1
			continue

		case DUP1, DUP1 + 1, DUP1 + 2, DUP1 + 3, DUP1 + 4, DUP1 + 5, DUP1 + 6,
			DUP1 + 7, DUP1 + 8, DUP1 + 9, DUP1 + 10, DUP1 + 11, DUP1 + 12, DUP1 + 13,
			DUP1 + 14, DUP1 + 15:
			st.dup(int(op-DUP1) + 1)

		case SWAP1, SWAP1 + 1, SWAP1 + 2, SWAP1 + 3, SWAP1 + 4, SWAP1 + 5,
			SWAP1 + 6, SWAP1 + 7, SWAP1 + 8, SWAP1 + 9, SWAP1 + 10, SWAP1 + 11,
			SWAP1 + 12, SWAP1 + 13, SWAP1 + 14, SWAP1 + 15:
			st.swap(int(op-SWAP1) + 1)

		case LOG0, LOG1, LOG2, LOG3, LOG4:
			if readOnly {
				return nil, c.halt(ErrWriteProtection, fast, pc)
			}
			nTopics := int(op - LOG0)
			offset := st.drop()
			size := st.drop()
			topics := make([]types.Hash, nTopics)
			for i := 0; i < nTopics; i++ {
				topics[i] = types.Hash(st.drop().Bytes32())
			}
			cost, off, sz, err := memExpansion(mem, offset, size)
			if err != nil {
				return nil, c.halt(err, fast, pc)
			}
			if fast, ok = c.charge(cost+sz*GasLogByte, fast, pc); !ok {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			evm.State.AddLog(&types.Log{
				Address: c.Address,
				Topics:  topics,
				Data:    mem.get(off, sz),
			})

		case CREATE, CREATE2:
			if readOnly {
				return nil, ErrWriteProtection
			}
			value := st.pop()
			offset := st.drop()
			size := st.drop()
			var salt uint256.Int
			if op == CREATE2 {
				salt = st.pop()
			}
			cost, off, sz, err := memExpansion(mem, offset, size)
			if err != nil {
				return nil, err
			}
			if op == CREATE2 {
				cost += toWordSize(sz) * GasSha3Word // hashing the init code
			}
			if !c.useGas(cost) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			initCode := mem.get(off, sz)
			// EIP-150: forward all but 1/64th.
			forward := c.Gas - c.Gas/64
			c.Gas -= forward
			var ret []byte
			var addr types.Address
			var leftGas uint64
			if op == CREATE {
				ret, addr, leftGas, err = evm.Create(c.Address, initCode, forward, &value)
			} else {
				ret, addr, leftGas, err = evm.Create2(c.Address, initCode, forward, &value, types.Hash(salt.Bytes32()))
			}
			c.Gas += leftGas
			f.slotsOK = 0 // the callee may have written this contract's storage
			res := st.slot()
			res.Clear()
			if err == nil {
				res.SetBytes(addr.Bytes())
				evm.returnData = nil
			} else if err == ErrExecutionReverted {
				evm.returnData = ret
			} else {
				evm.returnData = nil
			}
			fast = f.enter(c, pc+1)

		case CALL, CALLCODE, DELEGATECALL, STATICCALL:
			gasReq := st.drop()
			target := st.drop()
			var value uint256.Int
			if op == CALL || op == CALLCODE {
				value = st.pop()
			}
			inOff := st.drop()
			inSize := st.drop()
			outOff := st.drop()
			outSize := st.drop()

			if op == CALL && readOnly && !value.IsZero() {
				return nil, ErrWriteProtection
			}

			costIn, inO, inS, err := memExpansion(mem, inOff, inSize)
			if err != nil {
				return nil, err
			}
			costOut, outO, outS, err := memExpansion(mem, outOff, outSize)
			if err != nil {
				return nil, err
			}
			// Both regions are priced from the same memory size, so the
			// larger is the cost of growing to the further end; memory
			// grows only once the gas is paid.
			extra := max(costIn, costOut)
			if !value.IsZero() {
				extra += GasCallValue
				if op == CALL && !evm.State.Exist(wordToAddress(target)) {
					extra += GasNewAccount
				}
			}
			if !c.useGas(extra) {
				return nil, ErrOutOfGas
			}
			mem.resize(inO + inS)
			mem.resize(outO + outS)

			// EIP-150 forwarding cap.
			available := c.Gas - c.Gas/64
			forward := available
			if gasReq.IsUint64() && gasReq.Uint64() < available {
				forward = gasReq.Uint64()
			}
			c.Gas -= forward
			if !value.IsZero() {
				forward += GasCallStipend
			}

			input := mem.get(inO, inS)
			addr := wordToAddress(target)
			var ret []byte
			var leftGas uint64
			switch op {
			case CALL:
				ret, leftGas, err = evm.Call(c.Address, addr, input, forward, &value)
			case CALLCODE:
				ret, leftGas, err = evm.CallCode(c.Address, addr, input, forward, &value)
			case DELEGATECALL:
				ret, leftGas, err = evm.DelegateCall(c, addr, input, forward)
			case STATICCALL:
				ret, leftGas, err = evm.StaticCall(c.Address, addr, input, forward)
			}
			c.Gas += leftGas
			f.slotsOK = 0 // the callee may have written this contract's storage
			evm.returnData = ret
			if len(ret) > 0 && outS > 0 {
				n := uint64(len(ret))
				if n > outS {
					n = outS
				}
				mem.set(outO, ret[:n])
			}
			res := st.slot()
			res.Clear()
			if err == nil {
				res.SetOne()
			}
			fast = f.enter(c, pc+1)

		case RETURN:
			offset := st.drop()
			size := st.drop()
			cost, off, sz, err := memExpansion(mem, offset, size)
			if err != nil {
				return nil, err
			}
			if !c.useGas(cost) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			return mem.get(off, sz), nil

		case REVERT:
			offset := st.drop()
			size := st.drop()
			cost, off, sz, err := memExpansion(mem, offset, size)
			if err != nil {
				return nil, err
			}
			if !c.useGas(cost) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			return mem.get(off, sz), ErrExecutionReverted

		case SELFDESTRUCT:
			if readOnly {
				return nil, ErrWriteProtection
			}
			target := wordToAddress(st.drop())
			balance := evm.State.GetBalance(c.Address)
			if !balance.IsZero() && !evm.State.Exist(target) {
				if !c.useGas(GasNewAccount) {
					return nil, ErrOutOfGas
				}
			}
			if !evm.State.HasSelfDestructed(c.Address) {
				evm.State.AddRefund(GasSelfdestructRefund)
			}
			evm.State.AddBalance(target, balance)
			evm.State.SelfDestruct(c.Address)
			return nil, nil

		// INVALID and the undefined opcodes reach here only in a block run
		// fast: none has a stack spec, so op by op they halt above.
		// Listing them gives every byte value a case, which the compiler
		// needs before it emits a jump table (a case range for at least
		// every fourth value) rather than a binary search.
		case INVALID,
			0x0c, 0x0d, 0x0e, 0x0f,
			0x1e, 0x1f,
			0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x2b, 0x2c,
			0x2d, 0x2e, 0x2f,
			0x46, 0x47, 0x48, 0x49, 0x4a, 0x4b, 0x4c, 0x4d, 0x4e, 0x4f,
			0x5c, 0x5d, 0x5e, 0x5f,
			0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf, 0xb0,
			0xb1, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xbb, 0xbc,
			0xbd, 0xbe, 0xbf, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8,
			0xc9, 0xca, 0xcb, 0xcc, 0xcd, 0xce, 0xcf, 0xd0, 0xd1, 0xd2, 0xd3, 0xd4,
			0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xdb, 0xdc, 0xdd, 0xde, 0xdf, 0xe0,
			0xe1, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xeb, 0xec,
			0xed, 0xee, 0xef,
			0xf6, 0xf7, 0xf8, 0xf9,
			0xfb, 0xfc:
			return nil, ErrInvalidOpcode
		}
		pc++
	}
}

// truncatedPush is the value of an n-byte PUSH whose immediate the code
// cuts short after tail: the missing bytes read as zeros on the right.
func truncatedPush(tail []byte, n uint64) (v uint256.Int) {
	var buf [32]byte
	copy(buf[:n], tail)
	v.SetBytes(buf[:n])
	return v
}

// readSlice reads size bytes from data at a 256-bit offset with zero fill.
func readSlice(data []byte, offset *uint256.Int, size uint64) []byte {
	out := make([]byte, size)
	if !offset.IsUint64() {
		return out
	}
	off := offset.Uint64()
	if off >= uint64(len(data)) {
		return out
	}
	copy(out, data[off:])
	return out
}

func pushAddress(st *Stack, addr types.Address) {
	var v uint256.Int
	v.SetBytes(addr.Bytes())
	st.push(&v)
}

func wordToAddress(v *uint256.Int) types.Address {
	b := v.Bytes32()
	return types.BytesToAddress(b[12:])
}
