// Package rlp implements Ethereum's Recursive Length Prefix serialization.
// RLP encodes two kinds of items: byte strings and lists of items. It is
// used here for transaction/block hashing, trie node encoding, and the
// CREATE contract-address derivation keccak256(rlp([sender, nonce])).
package rlp

import (
	"errors"
	"fmt"
)

// Kind distinguishes the two RLP item kinds.
type Kind int

const (
	// KindBytes is a byte-string item.
	KindBytes Kind = iota
	// KindList is a list item.
	KindList
)

// Item is a decoded RLP item: either a byte string or a list of items.
type Item struct {
	Kind  Kind
	Bytes []byte  // valid when Kind == KindBytes
	Items []*Item // valid when Kind == KindList
}

// Encoder is implemented by types that know how to append their own RLP
// encoding.
type Encoder interface {
	EncodeRLP() []byte
}

// Bytes returns a byte-string item.
func Bytes(b []byte) *Item { return &Item{Kind: KindBytes, Bytes: b} }

// String returns a byte-string item from a string.
func String(s string) *Item { return &Item{Kind: KindBytes, Bytes: []byte(s)} }

// Uint returns a byte-string item holding the minimal big-endian encoding
// of v (zero encodes as the empty string, per the RLP spec).
func Uint(v uint64) *Item { return Bytes(uintBytes(v)) }

// List returns a list item.
func List(items ...*Item) *Item { return &Item{Kind: KindList, Items: items} }

func uintBytes(v uint64) []byte {
	if v == 0 {
		return nil
	}
	var buf [8]byte
	n := 0
	for i := 7; i >= 0; i-- {
		buf[7-i] = byte(v >> (8 * uint(i)))
	}
	for n < 8 && buf[n] == 0 {
		n++
	}
	return buf[n:]
}

// Encode returns the RLP encoding of the item tree.
func Encode(item *Item) []byte {
	return appendItem(nil, item)
}

// EncodeBytes returns the RLP encoding of a single byte string.
func EncodeBytes(b []byte) []byte { return Encode(Bytes(b)) }

// EncodeList returns the RLP encoding of a list of items.
func EncodeList(items ...*Item) []byte { return Encode(List(items...)) }

func appendItem(dst []byte, item *Item) []byte {
	switch item.Kind {
	case KindBytes:
		return appendString(dst, item.Bytes)
	case KindList:
		var payload []byte
		for _, it := range item.Items {
			payload = appendItem(payload, it)
		}
		dst = appendLength(dst, 0xc0, len(payload))
		return append(dst, payload...)
	default:
		panic(fmt.Sprintf("rlp: invalid kind %d", item.Kind))
	}
}

func appendString(dst, b []byte) []byte {
	if len(b) == 1 && b[0] < 0x80 {
		return append(dst, b[0])
	}
	dst = appendLength(dst, 0x80, len(b))
	return append(dst, b...)
}

func appendLength(dst []byte, offset byte, length int) []byte {
	if length < 56 {
		return append(dst, offset+byte(length))
	}
	lb := uintBytes(uint64(length))
	dst = append(dst, offset+55+byte(len(lb)))
	return append(dst, lb...)
}

// Decoding errors.
var (
	ErrTruncated     = errors.New("rlp: input truncated")
	ErrTrailingBytes = errors.New("rlp: trailing bytes after item")
	ErrCanonical     = errors.New("rlp: non-canonical encoding")
	ErrTooDeep       = errors.New("rlp: nesting too deep")
)

const maxDepth = 64

// Decode parses a complete RLP item from data, rejecting trailing bytes.
func Decode(data []byte) (*Item, error) {
	item, rest, err := decodeItem(data, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrTrailingBytes
	}
	return item, nil
}

func decodeItem(data []byte, depth int) (*Item, []byte, error) {
	if depth > maxDepth {
		return nil, nil, ErrTooDeep
	}
	if len(data) == 0 {
		return nil, nil, ErrTruncated
	}
	b := data[0]
	switch {
	case b < 0x80: // single byte
		return Bytes(data[:1]), data[1:], nil
	case b <= 0xb7: // short string
		n := int(b - 0x80)
		if len(data) < 1+n {
			return nil, nil, ErrTruncated
		}
		if n == 1 && data[1] < 0x80 {
			return nil, nil, ErrCanonical // should have been a single byte
		}
		return Bytes(data[1 : 1+n]), data[1+n:], nil
	case b <= 0xbf: // long string
		ln := int(b - 0xb7)
		n, rest, err := decodeLength(data[1:], ln)
		if err != nil {
			return nil, nil, err
		}
		if n < 56 {
			return nil, nil, ErrCanonical
		}
		if len(rest) < n {
			return nil, nil, ErrTruncated
		}
		return Bytes(rest[:n]), rest[n:], nil
	case b <= 0xf7: // short list
		n := int(b - 0xc0)
		return decodeListPayload(data[1:], n, depth)
	default: // long list
		ln := int(b - 0xf7)
		n, rest, err := decodeLength(data[1:], ln)
		if err != nil {
			return nil, nil, err
		}
		if n < 56 {
			return nil, nil, ErrCanonical
		}
		restAfter := rest
		return decodeListPayload(restAfter, n, depth)
	}
}

func decodeLength(data []byte, lenBytes int) (int, []byte, error) {
	if len(data) < lenBytes {
		return 0, nil, ErrTruncated
	}
	if lenBytes == 0 || lenBytes > 8 {
		return 0, nil, ErrCanonical
	}
	if data[0] == 0 {
		return 0, nil, ErrCanonical // no leading zeros in length
	}
	var n uint64
	for i := 0; i < lenBytes; i++ {
		n = n<<8 | uint64(data[i])
	}
	if n > 1<<31 {
		return 0, nil, fmt.Errorf("rlp: length %d too large", n)
	}
	return int(n), data[lenBytes:], nil
}

func decodeListPayload(data []byte, n, depth int) (*Item, []byte, error) {
	if len(data) < n {
		return nil, nil, ErrTruncated
	}
	payload := data[:n]
	var items []*Item
	for len(payload) > 0 {
		item, rest, err := decodeItem(payload, depth+1)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, item)
		payload = rest
	}
	return &Item{Kind: KindList, Items: items}, data[n:], nil
}

// Uint64 interprets a decoded byte-string item as a big-endian unsigned
// integer, enforcing canonical form (no leading zeros, fits in 64 bits).
func (it *Item) Uint64() (uint64, error) {
	if it.Kind != KindBytes {
		return 0, errors.New("rlp: expected bytes, found list")
	}
	if len(it.Bytes) > 8 {
		return 0, errors.New("rlp: integer overflows uint64")
	}
	if len(it.Bytes) > 0 && it.Bytes[0] == 0 {
		return 0, ErrCanonical
	}
	var v uint64
	for _, b := range it.Bytes {
		v = v<<8 | uint64(b)
	}
	return v, nil
}
