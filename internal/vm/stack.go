package vm

import "onoffchain/internal/uint256"

// Stack is the EVM operand stack. Its StackLimit words are held by value,
// so no slot aliases another, in one fixed array, so a push never grows
// it. The interpreter checks the bounds before an instruction runs (once
// per basic block where it can), so the accessors check nothing but Go's
// index. A frame's stack comes from the frame pool (block.go).
type Stack struct {
	data [StackLimit]uint256.Int
	n    int
}

func (s *Stack) len() int { return s.n }

func (s *Stack) push(v *uint256.Int) {
	s.data[s.n] = *v
	s.n++
}

func (s *Stack) pushUint64(v uint64) {
	s.data[s.n].SetUint64(v)
	s.n++
}

// slot pushes a word the caller writes in place through the pointer.
func (s *Stack) slot() *uint256.Int {
	s.n++
	return &s.data[s.n-1]
}

// pop removes and returns the top element by value.
func (s *Stack) pop() uint256.Int {
	s.n--
	return s.data[s.n]
}

// drop removes the top element and returns a pointer to it, valid until
// the next push: the in-place pop.
func (s *Stack) drop() *uint256.Int {
	s.n--
	return &s.data[s.n]
}

// peek returns a pointer to the n'th element from the top (0 = top). The
// pointer is valid until the next push.
func (s *Stack) peek(n int) *uint256.Int {
	return &s.data[s.n-1-n]
}

func (s *Stack) dup(n int) {
	s.data[s.n] = s.data[s.n-n]
	s.n++
}

func (s *Stack) swap(n int) {
	top := s.n - 1
	s.data[top], s.data[top-n] = s.data[top-n], s.data[top]
}

// Memory is the EVM byte-addressed volatile memory with word-granular
// expansion.
type Memory struct {
	store []byte
}

// size returns the current memory size in bytes.
func (m *Memory) size() uint64 { return uint64(len(m.store)) }

// resize grows memory to at least size bytes, rounded up to a word, with
// zeros. The backing array grows as append grows it, with spare capacity,
// so memory grown a word at a time is not copied whole each time.
func (m *Memory) resize(size uint64) {
	if size <= uint64(len(m.store)) {
		return
	}
	rounded := toWordSize(size) * 32
	m.store = append(m.store, make([]byte, rounded-uint64(len(m.store)))...)
}

// word returns the 32 bytes at offset if memory already holds them: the
// in-bounds path of MLOAD and MSTORE, which neither charges nor grows.
func (m *Memory) word(offset *uint256.Int) *[32]byte {
	off := offset[0]
	if !offset.IsUint64() || off >= uint64(len(m.store)) || uint64(len(m.store))-off < 32 {
		return nil
	}
	return (*[32]byte)(m.store[off:])
}

// set writes value at [offset, offset+len(value)). Memory must already be
// sized (the interpreter charges and resizes before calling).
func (m *Memory) set(offset uint64, value []byte) {
	if len(value) == 0 {
		return
	}
	copy(m.store[offset:offset+uint64(len(value))], value)
}

// setByte writes a single byte.
func (m *Memory) setByte(offset uint64, b byte) {
	m.store[offset] = b
}

// get returns a copy of memory [offset, offset+size).
func (m *Memory) get(offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	out := make([]byte, size)
	copy(out, m.store[offset:offset+size])
	return out
}

// view returns a direct slice of memory (no copy); caller must not retain
// it across resizes.
func (m *Memory) view(offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	return m.store[offset : offset+size]
}
