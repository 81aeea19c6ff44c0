package types

import (
	"bytes"
	"encoding/hex"
	"testing"

	"onoffchain/internal/keccak"
	"onoffchain/internal/rlp"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/uint256"
)

func TestAddressConversions(t *testing.T) {
	a := BytesToAddress([]byte{1, 2, 3})
	if a.Hex() != "0x0000000000000000000000000000000000010203" {
		t.Errorf("Hex = %s", a.Hex())
	}
	parsed, err := HexToAddress(a.Hex())
	if err != nil || parsed != a {
		t.Errorf("round trip: %v, %v", parsed, err)
	}
	// Oversized input keeps the rightmost 20 bytes.
	long := make([]byte, 32)
	long[11] = 0xaa
	long[31] = 0xbb
	a2 := BytesToAddress(long)
	if a2[19] != 0xbb || a2[0] != 0 {
		t.Errorf("truncation wrong: %x", a2)
	}
	if _, err := HexToAddress("0x1234"); err == nil {
		t.Error("short address accepted")
	}
	if _, err := HexToAddress("0xzz5f4552091a69125d5dfcb7b8c2659029395bdf"); err == nil {
		t.Error("bad hex accepted")
	}
}

func TestHashConversions(t *testing.T) {
	h := BytesToHash([]byte{0xff})
	if h[31] != 0xff || h != (Hash{31: 0xff}) {
		t.Errorf("hash conversion wrong: %s", h.Hex())
	}
	parsed, err := HexToHash(h.Hex())
	if err != nil || parsed != h {
		t.Errorf("round trip: %v, %v", parsed, err)
	}
	if !(Hash{}).IsZero() || h.IsZero() {
		t.Error("IsZero wrong")
	}
}

// The canonical Ethereum vector: the first contract deployed by an address
// has a deterministic, well-known derivation.
func TestCreateAddressKnownVector(t *testing.T) {
	// Famous vector: sender 0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0, nonce 0
	// creates 0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d.
	sender, err := HexToAddress("0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0")
	if err != nil {
		t.Fatal(err)
	}
	got := CreateAddress(sender, 0)
	if got.Hex() != "0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d" {
		t.Errorf("CreateAddress nonce 0 = %s", got.Hex())
	}
}

func TestCreateAddressChangesWithNonce(t *testing.T) {
	sender := BytesToAddress([]byte{1})
	seen := map[Address]bool{}
	for n := uint64(0); n < 50; n++ {
		a := CreateAddress(sender, n)
		if seen[a] {
			t.Fatalf("duplicate create address at nonce %d", n)
		}
		seen[a] = true
	}
}

func TestTransactionSignSenderRoundTrip(t *testing.T) {
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xBEEF))
	want := Address(key.EthereumAddress())

	to := BytesToAddress([]byte{9})
	tx := NewTransaction(3, to, uint256.NewInt(1e18), 21000, uint256.NewInt(1e9), []byte("hi"))
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	got, err := tx.Sender()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sender = %s, want %s", got.Hex(), want.Hex())
	}
}

func TestTransactionSenderRejectsUnsigned(t *testing.T) {
	tx := NewTransaction(0, Address{}, nil, 21000, nil, nil)
	if _, err := tx.Sender(); err == nil {
		t.Error("unsigned tx produced a sender")
	}
}

func TestTransactionTamperingChangesSender(t *testing.T) {
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xF00D))
	tx := NewTransaction(0, BytesToAddress([]byte{1}), uint256.NewInt(5), 21000, uint256.NewInt(1), nil)
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	orig, _ := tx.Sender()
	tx.Value = uint256.NewInt(50000) // tamper
	got, err := tx.Sender()
	if err == nil && got == orig {
		t.Error("tampered tx still recovers original sender")
	}
}

func TestTransactionHashStable(t *testing.T) {
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(1234))
	tx := NewTransaction(1, BytesToAddress([]byte{2}), uint256.NewInt(7), 50000, uint256.NewInt(2), []byte{1, 2, 3})
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	h1, h2 := tx.Hash(), tx.Hash()
	if h1 != h2 {
		t.Error("hash not deterministic")
	}
	if tx.SigHash() == tx.Hash() {
		t.Error("sig hash should differ from tx hash (includes signature)")
	}
}

func TestContractCreationTx(t *testing.T) {
	tx := NewContractCreation(0, nil, 100000, uint256.NewInt(1), []byte{0x60, 0x00})
	if !tx.IsContractCreation() {
		t.Error("creation tx not flagged")
	}
	call := NewTransaction(0, Address{}, nil, 100000, uint256.NewInt(1), nil)
	if call.IsContractCreation() {
		t.Error("call tx flagged as creation")
	}
}

func TestTransactionCost(t *testing.T) {
	tx := NewTransaction(0, Address{}, uint256.NewInt(100), 21000, uint256.NewInt(3), nil)
	want := uint256.NewInt(21000*3 + 100)
	if !tx.Cost().Eq(want) {
		t.Errorf("cost = %s, want %s", tx.Cost(), want)
	}
}

func TestReceiptEncodeAndSucceeded(t *testing.T) {
	l := &Log{Address: BytesToAddress([]byte{1}), Topics: []Hash{BytesToHash([]byte{9})}, Data: []byte("d")}
	r := &Receipt{Status: ReceiptStatusSuccessful, CumulativeGasUsed: 21000, GasUsed: 21000, Logs: []*Log{l}}
	item, err := rlp.Decode(r.EncodeRLP())
	if err != nil {
		t.Fatal(err)
	}
	if item.Kind != rlp.KindList || len(item.Items) != 3 || len(item.Items[2].Items) != 1 {
		t.Fatalf("receipt encodes as %+v, want [status, cumulative gas, [log]]", item)
	}
	enc := item.Items[2].Items[0]
	if len(enc.Items) != 3 || !bytes.Equal(enc.Items[0].Bytes, l.Address[:]) ||
		len(enc.Items[1].Items) != 1 || !bytes.Equal(enc.Items[1].Items[0].Bytes, l.Topics[0][:]) ||
		!bytes.Equal(enc.Items[2].Bytes, l.Data) {
		t.Errorf("log encodes as %+v, want [address, [topic], data]", enc)
	}
	if !r.Succeeded() {
		t.Error("Succeeded() wrong")
	}
}

// TestReceiptHashCommitsToLogs holds that the receipt commitment moves with
// any change to a log's address, topics or data, and with the logs' order:
// what a header bloom would summarise, the receipt hash already pins.
func TestReceiptHashCommitsToLogs(t *testing.T) {
	receipts := func() []*Receipt {
		return []*Receipt{
			{Status: ReceiptStatusSuccessful, CumulativeGasUsed: 30000},
			{Status: ReceiptStatusSuccessful, CumulativeGasUsed: 60000, Logs: []*Log{
				{Address: BytesToAddress([]byte{0xAA}), Topics: []Hash{BytesToHash([]byte{1}), BytesToHash([]byte{2})}, Data: []byte{0x10, 0x20}},
				{Address: BytesToAddress([]byte{0xBB}), Topics: []Hash{BytesToHash([]byte{3})}, Data: []byte{0x30}},
			}},
		}
	}
	base := DeriveReceiptListHash(receipts())
	for _, tc := range []struct {
		name   string
		mutate func(logs []*Log)
	}{
		{"address", func(logs []*Log) { logs[0].Address[19] ^= 1 }},
		{"first topic", func(logs []*Log) { logs[0].Topics[0][31] ^= 1 }},
		{"second topic", func(logs []*Log) { logs[0].Topics[1][0] ^= 1 }},
		{"topic dropped", func(logs []*Log) { logs[0].Topics = logs[0].Topics[:1] }},
		{"data byte", func(logs []*Log) { logs[1].Data[0] ^= 1 }},
		{"data extended", func(logs []*Log) { logs[1].Data = append(logs[1].Data, 0) }},
		{"logs swapped", func(logs []*Log) { logs[0], logs[1] = logs[1], logs[0] }},
	} {
		rs := receipts()
		tc.mutate(rs[1].Logs)
		if DeriveReceiptListHash(rs) == base {
			t.Errorf("%s: receipt list hash unchanged", tc.name)
		}
	}
	if DeriveReceiptListHash(receipts()) != base {
		t.Error("receipt list hash not a function of its receipts")
	}
}

func TestHeaderHashChangesWithFields(t *testing.T) {
	h := &Header{Number: 1, Time: 1000, GasLimit: 8_000_000}
	h1 := h.Hash()
	h.Time = 1001
	if h.Hash() == h1 {
		t.Error("hash unchanged after timestamp change")
	}
}

func TestDeriveListHashes(t *testing.T) {
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(55))
	tx1 := NewTransaction(0, Address{}, nil, 21000, uint256.NewInt(1), nil)
	tx1.Sign(key)
	tx2 := NewTransaction(1, Address{}, nil, 21000, uint256.NewInt(1), nil)
	tx2.Sign(key)
	a := DeriveTxListHash([]*Transaction{tx1, tx2})
	b := DeriveTxListHash([]*Transaction{tx2, tx1})
	if a == b {
		t.Error("tx list hash insensitive to order")
	}
	r1 := &Receipt{Status: 1, GasUsed: 1}
	r2 := &Receipt{Status: 0, GasUsed: 2}
	if DeriveReceiptListHash([]*Receipt{r1}) == DeriveReceiptListHash([]*Receipt{r2}) {
		t.Error("receipt list hash collision")
	}
}

func TestTxEncodeRLPIsCanonical(t *testing.T) {
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(8))
	tx := NewTransaction(2, BytesToAddress([]byte{3}), uint256.NewInt(9), 30000, uint256.NewInt(4), []byte{0xde, 0xad})
	tx.Sign(key)
	enc := hex.EncodeToString(tx.EncodeRLP())
	// Must decode and re-encode identically (canonical form).
	enc2 := hex.EncodeToString(tx.EncodeRLP())
	if enc != enc2 {
		t.Error("encoding unstable")
	}
}

// TestSignedTxGoldenEncoding pins the exact wire bytes of a signed
// transaction (deterministic RFC 6979 signing makes this reproducible).
// The fixture was generated by the pre-rewrite big.Int implementation;
// the fixed-limb scalar types must keep every byte — WAL journals and
// block bodies written by older builds replay through this encoding.
func TestSignedTxGoldenEncoding(t *testing.T) {
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xBEEF))
	to, _ := HexToAddress("0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0")
	tx := NewTransaction(7, to, uint256.NewInt(12345), 21000, uint256.NewInt(1), []byte{1, 2, 3})
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	const golden = "f8640701825208946ac7ea33f8831ea9dcc53393aaa88b25a785dbf0823039830102031ca012942ac6cd25fd43631f5ba46bcd2d5e67edb2e86e17df83929c2c6b5e2c9f71a062423de9889fe6fec510798d8af8c8e2df47b7c087db110edc97fb7b30e7a367"
	if got := hex.EncodeToString(tx.EncodeRLP()); got != golden {
		t.Fatalf("signed tx encoding changed:\n got %s\nwant %s", got, golden)
	}
	if tx.Hash().Hex() != "0x6ee34ccec454e2d684c11ba57ee6c38e2ede7548fd2ce8ca4de785fcd9e50038" {
		t.Fatalf("tx hash changed: %s", tx.Hash().Hex())
	}
	// And the decode path round-trips the golden bytes.
	raw, _ := hex.DecodeString(golden)
	dec, err := DecodeTransaction(raw)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := dec.Sender()
	if err != nil || sender != Address(key.EthereumAddress()) {
		t.Fatalf("golden decode sender: %v %v", sender, err)
	}
}

// Sign primes the sender memo: the signer's own Sender() call costs no
// recovery, and answers what a recovery from the wire bytes answers.
func TestSignPrimesSender(t *testing.T) {
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xC0DE))
	tx := NewTransaction(2, BytesToAddress([]byte{3}), uint256.NewInt(9), 21000, uint256.NewInt(1), []byte{1})
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	before := secp256k1.GLVSplits()
	primed, err := tx.Sender()
	if err != nil {
		t.Fatal(err)
	}
	if n := secp256k1.GLVSplits() - before; n != 0 {
		t.Errorf("Sender after Sign did %d scalar multiplications, want none", n)
	}
	decoded, err := DecodeTransaction(tx.EncodeRLP())
	if err != nil {
		t.Fatal(err)
	}
	before = secp256k1.GLVSplits()
	recovered, err := decoded.Sender()
	if err != nil {
		t.Fatal(err)
	}
	if secp256k1.GLVSplits() == before {
		t.Error("a transaction decoded from bytes must recover its sender")
	}
	if primed != recovered || primed != Address(key.EthereumAddress()) {
		t.Errorf("primed sender %s, recovered %s", primed.Hex(), recovered.Hex())
	}
}

// The memo is keyed by everything the sender is a function of: overwriting
// the exported signature fields after a Sender() call must not keep
// answering with the old signer.
func TestSenderMemoKeyedBySignature(t *testing.T) {
	keyA, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xA))
	keyB, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xB))
	tx := NewTransaction(0, BytesToAddress([]byte{1}), uint256.NewInt(5), 21000, uint256.NewInt(1), nil)
	if err := tx.Sign(keyA); err != nil {
		t.Fatal(err)
	}
	if got, _ := tx.Sender(); got != Address(keyA.EthereumAddress()) {
		t.Fatalf("sender = %s, want A", got.Hex())
	}
	h := tx.SigHash()
	sig, err := secp256k1.Sign(keyB, h[:])
	if err != nil {
		t.Fatal(err)
	}
	tx.V, tx.R, tx.S = sig.V+27, sig.R, sig.S
	got, err := tx.Sender()
	if err != nil {
		t.Fatal(err)
	}
	if got != Address(keyB.EthereumAddress()) {
		t.Errorf("sender after overwriting the signature = %s, want B %s", got.Hex(), Address(keyB.EthereumAddress()).Hex())
	}
	// Each field alone re-keys the memo too.
	for name, mutate := range map[string]func(){
		"V": func() { tx.V ^= 1 },
		"R": func() { tx.R = sig.S },
		"S": func() { tx.S = sig.R },
	} {
		tx.V, tx.R, tx.S = sig.V+27, sig.R, sig.S
		mutate()
		if again, err := tx.Sender(); err == nil && again == got {
			t.Errorf("mutating %s alone still answers the memoised sender", name)
		}
	}
}

// FuzzSignPrimesSender: for any key and any transaction fields, the sender
// Sign primes is the sender recovered from the transaction's own bytes.
func FuzzSignPrimesSender(f *testing.F) {
	f.Add([]byte{1}, uint64(0), uint64(21000), uint64(1), uint64(0), []byte{1}, []byte(nil), false)
	f.Add([]byte("key"), uint64(7), uint64(8_000_000), uint64(1e9), uint64(1e18), []byte("to"), []byte{0x60, 0x00}, true)
	f.Fuzz(func(t *testing.T, seed []byte, nonce, gas, gasPrice, value uint64, to, data []byte, create bool) {
		key, err := secp256k1.PrivateKeyFromBytes(keccak.Sum256Bytes(seed))
		if err != nil {
			return // a digest outside [1, n)
		}
		tx := NewTransaction(nonce, BytesToAddress(to), uint256.NewInt(value), gas, uint256.NewInt(gasPrice), data)
		if create {
			tx = NewContractCreation(nonce, uint256.NewInt(value), gas, uint256.NewInt(gasPrice), data)
		}
		if err := tx.Sign(key); err != nil {
			t.Fatal(err)
		}
		primed, err := tx.Sender()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeTransaction(tx.EncodeRLP())
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := decoded.Sender()
		if err != nil {
			t.Fatal(err)
		}
		if primed != recovered {
			t.Fatalf("primed sender %s != recovered sender %s", primed.Hex(), recovered.Hex())
		}
	})
}
