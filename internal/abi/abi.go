// Package abi implements the Solidity contract ABI: 4-byte function
// selectors, head/tail argument encoding, return-value decoding and event
// topics, for the types the system uses (uint8..uint256, address, bool,
// bytes32, dynamic bytes and string).
package abi

import (
	"errors"
	"fmt"
	"strings"

	"onoffchain/internal/keccak"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// Type is an ABI type kind.
type Type int

// Supported ABI types.
const (
	Uint256 Type = iota // also covers uint8..uint248 (one padded word)
	Address
	Bool
	Bytes32
	Bytes  // dynamic
	String // dynamic
)

// String returns the canonical Solidity name.
func (t Type) String() string {
	switch t {
	case Uint256:
		return "uint256"
	case Address:
		return "address"
	case Bool:
		return "bool"
	case Bytes32:
		return "bytes32"
	case Bytes:
		return "bytes"
	case String:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// ParseType resolves a Solidity type name.
func ParseType(name string) (Type, error) {
	switch {
	case name == "address":
		return Address, nil
	case name == "bool":
		return Bool, nil
	case name == "bytes32":
		return Bytes32, nil
	case name == "bytes":
		return Bytes, nil
	case name == "string":
		return String, nil
	case strings.HasPrefix(name, "uint"):
		return Uint256, nil
	default:
		return 0, fmt.Errorf("abi: unsupported type %q", name)
	}
}

// IsDynamic reports whether the type uses tail encoding.
func (t Type) IsDynamic() bool { return t == Bytes || t == String }

// Method describes a callable function.
type Method struct {
	Name    string
	Inputs  []Type
	Outputs []Type
	// RawNames preserves the exact type names for the selector signature
	// (uint8 vs uint256 changes the selector).
	RawNames []string
}

// NewMethod builds a method from Solidity type names, e.g.
// NewMethod("deployVerifiedInstance", []string{"bytes","uint8","bytes32",...}, []string{}).
func NewMethod(name string, inputs, outputs []string) (*Method, error) {
	m := &Method{Name: name, RawNames: inputs}
	for _, in := range inputs {
		t, err := ParseType(in)
		if err != nil {
			return nil, err
		}
		m.Inputs = append(m.Inputs, t)
	}
	for _, out := range outputs {
		t, err := ParseType(out)
		if err != nil {
			return nil, err
		}
		m.Outputs = append(m.Outputs, t)
	}
	return m, nil
}

// MustMethod is NewMethod that panics on error (for static tables).
func MustMethod(name string, inputs, outputs []string) *Method {
	m, err := NewMethod(name, inputs, outputs)
	if err != nil {
		panic(err)
	}
	return m
}

// Signature returns the canonical signature, e.g. "transfer(address,uint256)".
func (m *Method) Signature() string {
	return m.Name + "(" + strings.Join(m.RawNames, ",") + ")"
}

// SelectorOf computes the 4-byte selector of an explicit signature string.
func SelectorOf(signature string) [4]byte {
	h := keccak.Sum256([]byte(signature))
	var sel [4]byte
	copy(sel[:], h[:4])
	return sel
}

// Selector returns the method's 4-byte selector.
func (m *Method) Selector() [4]byte { return SelectorOf(m.Signature()) }

// EventTopic returns the topic0 hash for an event signature.
func EventTopic(signature string) types.Hash {
	return types.Hash(keccak.Sum256([]byte(signature)))
}

// Pack encodes a call: selector followed by ABI-encoded arguments.
func (m *Method) Pack(args ...interface{}) ([]byte, error) {
	if len(args) != len(m.Inputs) {
		return nil, fmt.Errorf("abi: %s expects %d args, got %d", m.Name, len(m.Inputs), len(args))
	}
	body, err := EncodeValues(m.Inputs, args)
	if err != nil {
		return nil, fmt.Errorf("abi: pack %s: %w", m.Name, err)
	}
	sel := m.Selector()
	return append(sel[:], body...), nil
}

// Unpack decodes return data according to the method's outputs.
func (m *Method) Unpack(data []byte) ([]interface{}, error) {
	return DecodeValues(m.Outputs, data)
}

// EncodeValues ABI-encodes a tuple using head/tail encoding.
func EncodeValues(typs []Type, args []interface{}) ([]byte, error) {
	if len(typs) != len(args) {
		return nil, errors.New("abi: type/arg count mismatch")
	}
	headSize := 32 * len(typs)
	head := make([]byte, 0, headSize)
	var tail []byte
	for i, t := range typs {
		if t.IsDynamic() {
			offset := uint256.NewInt(uint64(headSize + len(tail)))
			w := offset.Bytes32()
			head = append(head, w[:]...)
			enc, err := encodeDynamic(t, args[i])
			if err != nil {
				return nil, err
			}
			tail = append(tail, enc...)
		} else {
			w, err := encodeStatic(t, args[i])
			if err != nil {
				return nil, err
			}
			head = append(head, w[:]...)
		}
	}
	return append(head, tail...), nil
}

func encodeStatic(t Type, v interface{}) ([32]byte, error) {
	var w [32]byte
	switch t {
	case Uint256:
		switch x := v.(type) {
		case *uint256.Int:
			w = x.Bytes32()
		case uint256.Int:
			w = x.Bytes32()
		case uint64:
			w = uint256.NewInt(x).Bytes32()
		case int:
			if x < 0 {
				return w, errors.New("abi: negative int for uint")
			}
			w = uint256.NewInt(uint64(x)).Bytes32()
		case byte:
			w = uint256.NewInt(uint64(x)).Bytes32()
		default:
			return w, fmt.Errorf("abi: cannot encode %T as uint256", v)
		}
	case Address:
		switch x := v.(type) {
		case types.Address:
			copy(w[12:], x.Bytes())
		case [20]byte:
			copy(w[12:], x[:])
		default:
			return w, fmt.Errorf("abi: cannot encode %T as address", v)
		}
	case Bool:
		x, ok := v.(bool)
		if !ok {
			return w, fmt.Errorf("abi: cannot encode %T as bool", v)
		}
		if x {
			w[31] = 1
		}
	case Bytes32:
		switch x := v.(type) {
		case types.Hash:
			copy(w[:], x.Bytes())
		case [32]byte:
			copy(w[:], x[:])
		case []byte:
			if len(x) > 32 {
				return w, errors.New("abi: bytes32 overflow")
			}
			copy(w[:], x) // left-aligned like Solidity fixed bytes
		default:
			return w, fmt.Errorf("abi: cannot encode %T as bytes32", v)
		}
	default:
		return w, fmt.Errorf("abi: %s is not a static type", t)
	}
	return w, nil
}

func encodeDynamic(t Type, v interface{}) ([]byte, error) {
	var payload []byte
	switch t {
	case Bytes:
		x, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("abi: cannot encode %T as bytes", v)
		}
		payload = x
	case String:
		x, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("abi: cannot encode %T as string", v)
		}
		payload = []byte(x)
	default:
		return nil, fmt.Errorf("abi: %s is not a dynamic type", t)
	}
	lenWord := uint256.NewInt(uint64(len(payload))).Bytes32()
	out := append([]byte{}, lenWord[:]...)
	out = append(out, payload...)
	if pad := len(payload) % 32; pad != 0 {
		out = append(out, make([]byte, 32-pad)...)
	}
	return out, nil
}

// DecodeValues decodes an ABI-encoded tuple.
func DecodeValues(typs []Type, data []byte) ([]interface{}, error) {
	out := make([]interface{}, 0, len(typs))
	for i, t := range typs {
		headOff := 32 * i
		if headOff+32 > len(data) {
			return nil, errors.New("abi: data too short")
		}
		word := data[headOff : headOff+32]
		if t.IsDynamic() {
			// Bounds are compared as what is left of data, never as a sum
			// that hostile words could wrap past 2^64.
			off := new(uint256.Int).SetBytes(word)
			if !off.IsUint64() || off.Uint64() > uint64(len(data)) || uint64(len(data))-off.Uint64() < 32 {
				return nil, errors.New("abi: bad dynamic offset")
			}
			o := off.Uint64()
			length := new(uint256.Int).SetBytes(data[o : o+32])
			if !length.IsUint64() || length.Uint64() > uint64(len(data))-(o+32) {
				return nil, errors.New("abi: bad dynamic length")
			}
			payload := data[o+32 : o+32+length.Uint64()]
			if t == String {
				out = append(out, string(payload))
			} else {
				out = append(out, append([]byte{}, payload...))
			}
			continue
		}
		switch t {
		case Uint256:
			out = append(out, new(uint256.Int).SetBytes(word))
		case Address:
			out = append(out, types.BytesToAddress(word[12:]))
		case Bool:
			out = append(out, word[31] != 0)
		case Bytes32:
			out = append(out, types.BytesToHash(word))
		}
	}
	return out, nil
}
