package abi

import (
	"reflect"
	"testing"

	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// word is x as one big-endian ABI word.
func word(x uint64) []byte {
	w := uint256.NewInt(x).Bytes32()
	return w[:]
}

// FuzzABIDecode feeds DecodeValues hostile bytes for a tuple of types
// picked by kinds (one type per byte). It must return an error or values,
// never panic; values it returns must encode and decode back to
// themselves.
func FuzzABIDecode(f *testing.F) {
	valid, err := EncodeValues([]Type{Uint256, Bytes, Address, String, Bool, Bytes32},
		[]interface{}{uint64(7), []byte("payload"), types.BytesToAddress([]byte{1, 2}), "s", true, types.Hash{3}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 4, 1, 5, 2, 3}, valid)
	// A dynamic offset of 2^64-16: offset+32 wraps to 16.
	f.Add([]byte{byte(Bytes)}, word(1<<64-16))
	// A length that wraps offset+32+length to 23.
	f.Add([]byte{byte(Bytes)}, append(word(32), word(1<<64-41)...))
	f.Fuzz(func(t *testing.T, kinds, data []byte) {
		if len(kinds) > 16 {
			return
		}
		typs := make([]Type, len(kinds))
		for i, k := range kinds {
			typs[i] = Type(k % byte(String+1))
		}
		vals, err := DecodeValues(typs, data)
		if err != nil {
			return
		}
		enc, err := EncodeValues(typs, vals)
		if err != nil {
			t.Fatalf("decoded %v does not encode: %v", vals, err)
		}
		again, err := DecodeValues(typs, enc)
		if err != nil {
			t.Fatalf("re-encoded %x does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(again, vals) {
			t.Fatalf("round trip: %v, want %v", again, vals)
		}
	})
}
