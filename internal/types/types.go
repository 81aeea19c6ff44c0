// Package types defines the fundamental blockchain data types shared by the
// whole system: addresses, hashes, transactions, receipts, logs and blocks,
// together with their RLP encodings and hashing rules.
// The encodings follow Ethereum's homestead-era rules, which is what the
// paper's mechanism depends on (contract addresses derived from
// keccak256(rlp([sender, nonce])), ecrecover-compatible signatures).
package types

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"onoffchain/internal/keccak"
	"onoffchain/internal/rlp"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/uint256"
)

// AddressLength is the byte length of an account address.
const AddressLength = 20

// HashLength is the byte length of a 256-bit hash.
const HashLength = 32

// Address is a 20-byte account identifier.
type Address [AddressLength]byte

// Hash is a 32-byte Keccak-256 digest.
type Hash [HashLength]byte

// BytesToAddress converts b to an Address, left-padding or truncating to 20
// bytes (keeping the rightmost bytes, the EVM convention).
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > AddressLength {
		b = b[len(b)-AddressLength:]
	}
	copy(a[AddressLength-len(b):], b)
	return a
}

// HexToAddress parses a 0x-prefixed or bare hex address.
func HexToAddress(s string) (Address, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return Address{}, fmt.Errorf("types: bad address hex: %w", err)
	}
	if len(b) != AddressLength {
		return Address{}, fmt.Errorf("types: address must be %d bytes, got %d", AddressLength, len(b))
	}
	return BytesToAddress(b), nil
}

// Bytes returns the address as a byte slice.
func (a Address) Bytes() []byte { return a[:] }

// Hex returns the 0x-prefixed lowercase hex form.
func (a Address) Hex() string { return "0x" + hex.EncodeToString(a[:]) }

// String implements fmt.Stringer.
func (a Address) String() string { return a.Hex() }

// IsZero reports whether the address is the zero address.
func (a Address) IsZero() bool { return a == Address{} }

// BytesToHash converts b to a Hash, left-padding or truncating to 32 bytes.
func BytesToHash(b []byte) Hash {
	var h Hash
	if len(b) > HashLength {
		b = b[len(b)-HashLength:]
	}
	copy(h[HashLength-len(b):], b)
	return h
}

// HexToHash parses a 0x-prefixed or bare hex hash.
func HexToHash(s string) (Hash, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return Hash{}, fmt.Errorf("types: bad hash hex: %w", err)
	}
	if len(b) != HashLength {
		return Hash{}, fmt.Errorf("types: hash must be %d bytes, got %d", HashLength, len(b))
	}
	return BytesToHash(b), nil
}

// Bytes returns the hash as a byte slice.
func (h Hash) Bytes() []byte { return h[:] }

// Hex returns the 0x-prefixed lowercase hex form.
func (h Hash) Hex() string { return "0x" + hex.EncodeToString(h[:]) }

// String implements fmt.Stringer.
func (h Hash) String() string { return h.Hex() }

// IsZero reports whether the hash is all zeros.
func (h Hash) IsZero() bool { return h == Hash{} }

// EmptyCodeHash is keccak256 of the empty byte string — the code hash of
// every externally-owned account.
var EmptyCodeHash = Hash(keccak.Sum256(nil))

// CreateAddress computes the address of a contract created by sender with
// the given account nonce: keccak256(rlp([sender, nonce]))[12:].
func CreateAddress(sender Address, nonce uint64) Address {
	enc := rlp.EncodeList(rlp.Bytes(sender[:]), rlp.Uint(nonce))
	h := keccak.Sum256(enc)
	return BytesToAddress(h[12:])
}

// Transaction is a homestead-style transaction. A nil To denotes contract
// creation.
type Transaction struct {
	Nonce    uint64
	GasPrice *uint256.Int
	Gas      uint64
	To       *Address
	Value    *uint256.Int
	Data     []byte

	// Signature values; V is 27+recid. R and S are scalar value types —
	// an unsigned transaction has the zero scalars (never valid in a real
	// signature).
	V byte
	R secp256k1.Scalar
	S secp256k1.Scalar

	// sender caches the sending address, keyed by everything it is a
	// function of (sig hash, V, R, S): recovery costs two scalar
	// multiplications and validation needs it several times per
	// transaction, while re-keying on every call keeps a tampered payload or
	// an overwritten signature detectable. Guarded by senderMu.
	senderMu   sync.Mutex
	senderFor  senderKey
	senderSet  bool
	senderAddr Address
}

// senderKey is what a transaction's sender is a function of.
type senderKey struct {
	sigHash Hash
	v       byte
	r, s    secp256k1.Scalar
}

func (tx *Transaction) senderKey() senderKey {
	return senderKey{sigHash: tx.SigHash(), v: tx.V, r: tx.R, s: tx.S}
}

// senderCachedFor reports whether the memo holds the sender for key.
func (tx *Transaction) senderCachedFor(key senderKey) bool {
	tx.senderMu.Lock()
	defer tx.senderMu.Unlock()
	return tx.senderSet && tx.senderFor == key
}

func (tx *Transaction) cacheSender(key senderKey, addr Address) {
	tx.senderMu.Lock()
	tx.senderFor, tx.senderAddr, tx.senderSet = key, addr, true
	tx.senderMu.Unlock()
}

// NewTransaction builds an unsigned call transaction.
func NewTransaction(nonce uint64, to Address, value *uint256.Int, gas uint64, gasPrice *uint256.Int, data []byte) *Transaction {
	toCopy := to
	return &Transaction{
		Nonce:    nonce,
		GasPrice: defaultZero(gasPrice),
		Gas:      gas,
		To:       &toCopy,
		Value:    defaultZero(value),
		Data:     data,
	}
}

// NewContractCreation builds an unsigned create transaction.
func NewContractCreation(nonce uint64, value *uint256.Int, gas uint64, gasPrice *uint256.Int, code []byte) *Transaction {
	return &Transaction{
		Nonce:    nonce,
		GasPrice: defaultZero(gasPrice),
		Gas:      gas,
		Value:    defaultZero(value),
		Data:     code,
	}
}

func defaultZero(v *uint256.Int) *uint256.Int {
	if v == nil {
		return new(uint256.Int)
	}
	return v.Clone()
}

// IsContractCreation reports whether the transaction creates a contract.
func (tx *Transaction) IsContractCreation() bool { return tx.To == nil }

func (tx *Transaction) sigFields() []*rlp.Item {
	toBytes := []byte(nil)
	if tx.To != nil {
		toBytes = tx.To.Bytes()
	}
	return []*rlp.Item{
		rlp.Uint(tx.Nonce),
		rlp.Bytes(tx.GasPrice.Bytes()),
		rlp.Uint(tx.Gas),
		rlp.Bytes(toBytes),
		rlp.Bytes(tx.Value.Bytes()),
		rlp.Bytes(tx.Data),
	}
}

// SigHash returns the hash that is signed: keccak256 of the RLP of the six
// core fields (homestead rules, no chain id).
func (tx *Transaction) SigHash() Hash {
	return Hash(keccak.Sum256(rlp.EncodeList(tx.sigFields()...)))
}

// EncodeRLP returns the canonical RLP encoding of the signed transaction.
func (tx *Transaction) EncodeRLP() []byte {
	items := tx.sigFields()
	items = append(items,
		rlp.Uint(uint64(tx.V)),
		rlp.Bytes(tx.R.Bytes()),
		rlp.Bytes(tx.S.Bytes()),
	)
	return rlp.EncodeList(items...)
}

// Hash returns the transaction hash: keccak256 of the signed RLP encoding.
func (tx *Transaction) Hash() Hash {
	return Hash(keccak.Sum256(tx.EncodeRLP()))
}

// Sign signs the transaction in place with the given key and primes the
// sender cache with the signer's address — the value recovery would
// return, without the recovery. A transaction decoded from bytes carries
// no cache and still recovers.
func (tx *Transaction) Sign(key *secp256k1.PrivateKey) error {
	h := tx.SigHash()
	sig, err := secp256k1.Sign(key, h[:])
	if err != nil {
		return err
	}
	tx.V = sig.V + 27
	tx.R = sig.R
	tx.S = sig.S
	tx.cacheSender(senderKey{sigHash: h, v: tx.V, r: tx.R, s: tx.S}, Address(key.EthereumAddress()))
	return nil
}

// Sender returns the sending address: recovered from the signature, or
// remembered from Sign. The answer is cached, so repeated calls
// (validation, execution, pool scans) pay the elliptic-curve cost at most
// once.
func (tx *Transaction) Sender() (Address, error) {
	if tx.R.IsZero() || tx.S.IsZero() {
		return Address{}, errors.New("types: transaction is unsigned")
	}
	if tx.V < 27 {
		return Address{}, fmt.Errorf("types: invalid signature v=%d", tx.V)
	}
	key := tx.senderKey()
	tx.senderMu.Lock()
	defer tx.senderMu.Unlock()
	if tx.senderSet && tx.senderFor == key {
		return tx.senderAddr, nil
	}
	addr, err := secp256k1.RecoverAddress(key.sigHash[:], tx.R, tx.S, tx.V-27)
	if err != nil {
		return Address{}, err
	}
	tx.senderFor, tx.senderAddr, tx.senderSet = key, Address(addr), true
	return tx.senderAddr, nil
}

// Cost returns value + gas*gasPrice, the maximum the sender can be charged.
func (tx *Transaction) Cost() *uint256.Int {
	cost := new(uint256.Int).SetUint64(tx.Gas)
	cost.Mul(cost, tx.GasPrice)
	return cost.Add(cost, tx.Value)
}

// Receipt statuses.
const (
	ReceiptStatusFailed     = uint64(0)
	ReceiptStatusSuccessful = uint64(1)
)

// Log is an EVM log record emitted by the LOG0..LOG4 opcodes.
type Log struct {
	Address     Address
	Topics      []Hash
	Data        []byte
	BlockNumber uint64
}

// Receipt records the outcome of a transaction execution.
type Receipt struct {
	Status            uint64
	CumulativeGasUsed uint64
	GasUsed           uint64
	BlockNumber       uint64  // the block that carries the tx; not part of the consensus encoding
	ContractAddress   Address // set when the tx created a contract
	Logs              []*Log
	RevertReason      []byte // raw return data of a REVERT, if any
}

// Succeeded reports whether the transaction executed without reverting.
func (r *Receipt) Succeeded() bool { return r.Status == ReceiptStatusSuccessful }

// EncodeRLP encodes the consensus fields of the receipt: status,
// cumulative gas and each log's address, topics and data.
func (r *Receipt) EncodeRLP() []byte {
	logItems := make([]*rlp.Item, len(r.Logs))
	for i, l := range r.Logs {
		topicItems := make([]*rlp.Item, len(l.Topics))
		for j, t := range l.Topics {
			topicItems[j] = rlp.Bytes(t.Bytes())
		}
		logItems[i] = rlp.List(rlp.Bytes(l.Address.Bytes()), rlp.List(topicItems...), rlp.Bytes(l.Data))
	}
	return rlp.EncodeList(
		rlp.Uint(r.Status),
		rlp.Uint(r.CumulativeGasUsed),
		rlp.List(logItems...),
	)
}

// Header is a block header. Consensus fields irrelevant to a single-node
// dev chain (difficulty, uncles, mix digest) are omitted; the structure is
// otherwise Ethereum-shaped so state/receipt commitments remain meaningful.
type Header struct {
	ParentHash  Hash
	Coinbase    Address
	Root        Hash // state trie root after this block
	TxHash      Hash // transaction trie root
	ReceiptHash Hash // receipt trie root
	Number      uint64
	GasLimit    uint64
	GasUsed     uint64
	Time        uint64
	Extra       []byte
}

// EncodeRLP encodes the header fields.
func (h *Header) EncodeRLP() []byte {
	return rlp.EncodeList(
		rlp.Bytes(h.ParentHash.Bytes()),
		rlp.Bytes(h.Coinbase.Bytes()),
		rlp.Bytes(h.Root.Bytes()),
		rlp.Bytes(h.TxHash.Bytes()),
		rlp.Bytes(h.ReceiptHash.Bytes()),
		rlp.Uint(h.Number),
		rlp.Uint(h.GasLimit),
		rlp.Uint(h.GasUsed),
		rlp.Uint(h.Time),
		rlp.Bytes(h.Extra),
	)
}

// Hash returns the keccak256 of the RLP-encoded header.
func (h *Header) Hash() Hash {
	return Hash(keccak.Sum256(h.EncodeRLP()))
}

// Block is a header plus its transaction list and receipts.
type Block struct {
	Header       *Header
	Transactions []*Transaction
	Receipts     []*Receipt
}

// Hash returns the block (header) hash.
func (b *Block) Hash() Hash { return b.Header.Hash() }

// Number returns the block number.
func (b *Block) Number() uint64 { return b.Header.Number }

// Time returns the block timestamp.
func (b *Block) Time() uint64 { return b.Header.Time }

// DeriveTxListHash computes a commitment over an ordered transaction list.
// (A full trie-based commitment is unnecessary for a dev chain; a keccak
// over the concatenated canonical encodings pins the same content.)
func DeriveTxListHash(txs []*Transaction) Hash {
	h := keccak.New256()
	for _, tx := range txs {
		h.Write(tx.EncodeRLP())
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// DeriveReceiptListHash computes a commitment over ordered receipts, and so
// over every log's address, topics and data, in order.
func DeriveReceiptListHash(receipts []*Receipt) Hash {
	h := keccak.New256()
	for _, r := range receipts {
		h.Write(r.EncodeRLP())
	}
	var out Hash
	h.Sum(out[:0])
	return out
}
