package hybrid

import (
	"errors"
	"fmt"

	"onoffchain/internal/keccak"
	"onoffchain/internal/rlp"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
)

// SigTuple is one participant's (v, r, s) signature over the off-chain
// bytecode hash, the format the paper's Algorithm 4 produces and the
// on-chain ecrecover consumes (v = 27 + recid).
type SigTuple struct {
	V byte
	R [32]byte
	S [32]byte
}

// SignedCopy is the paper's "signed copy of the off-chain contract": the
// deployable bytecode (init code with constructor arguments appended) plus
// one signature per participant, in participant order.
type SignedCopy struct {
	Bytecode []byte
	Sigs     []SigTuple
}

// HashBytecode is the agreed message: keccak256 of the bytecode, matching
// both the paper's JavaScript (soliditySha3 of the code) and the generated
// deployVerifiedInstance's on-chain check.
func HashBytecode(bytecode []byte) types.Hash {
	return types.Hash(keccak.Sum256(bytecode))
}

// SignBytecode produces one participant's signature tuple.
func SignBytecode(key *secp256k1.PrivateKey, bytecode []byte) (SigTuple, error) {
	h := HashBytecode(bytecode)
	sig, err := secp256k1.Sign(key, h.Bytes())
	if err != nil {
		return SigTuple{}, fmt.Errorf("hybrid: sign bytecode: %w", err)
	}
	v, r, s := sig.VRS27()
	return SigTuple{V: v, R: r, S: s}, nil
}

// VerifySignature checks one tuple against an expected signer address.
func VerifySignature(bytecode []byte, sig SigTuple, signer types.Address) bool {
	if sig.V != 27 && sig.V != 28 {
		return false
	}
	h := HashBytecode(bytecode)
	r, rOK := secp256k1.ScalarFromBytes(sig.R[:])
	s, sOK := secp256k1.ScalarFromBytes(sig.S[:])
	if !rOK || !sOK {
		return false // component out of the scalar range: never a valid signature
	}
	addr, err := secp256k1.RecoverAddress(h.Bytes(), r, s, sig.V-27)
	if err != nil {
		return false
	}
	return types.Address(addr) == signer
}

// Verify checks that the copy carries a valid signature from every
// participant, in order. This is the integrity check every participant
// performs before interacting with the on-chain contract (paper §III
// deploy/sign stage), mirroring the on-chain verification.
func (sc *SignedCopy) Verify(participants []types.Address) error {
	if len(sc.Sigs) != len(participants) {
		return fmt.Errorf("hybrid: have %d signatures, need %d", len(sc.Sigs), len(participants))
	}
	for i, p := range participants {
		if !VerifySignature(sc.Bytecode, sc.Sigs[i], p) {
			return fmt.Errorf("hybrid: signature %d does not match participant %s", i, p.Hex())
		}
	}
	return nil
}

// VerifyWithKeys checks the copy against the participants' public keys,
// in order, folding all signatures into a single shared-chain batch
// verification (one random-linear-combination ladder instead of one
// recovery per participant). Each signature is still checked with full
// recovery equivalence — a pinned job verifies iff ecrecover of
// (hash, r, s, v) yields exactly the participant's key — so the outcome
// matches Verify whenever the keys hash to the given addresses. Call
// sites that hold participant keys (the session protocol does) should
// prefer this over the address-based Verify.
func (sc *SignedCopy) VerifyWithKeys(pubs []*secp256k1.PublicKey) error {
	if len(sc.Sigs) != len(pubs) {
		return fmt.Errorf("hybrid: have %d signatures, need %d", len(sc.Sigs), len(pubs))
	}
	h := HashBytecode(sc.Bytecode)
	jobs := make([]secp256k1.VerifyJob, len(pubs))
	for i := range pubs {
		sig := &sc.Sigs[i]
		if sig.V != 27 && sig.V != 28 {
			return fmt.Errorf("hybrid: signature %d has invalid v %d", i, sig.V)
		}
		r, rOK := secp256k1.ScalarFromBytes(sig.R[:])
		s, sOK := secp256k1.ScalarFromBytes(sig.S[:])
		if !rOK || !sOK {
			return fmt.Errorf("hybrid: signature %d component out of scalar range", i)
		}
		jobs[i] = secp256k1.VerifyJob{Pub: pubs[i], Hash: [32]byte(h), R: r, S: s, V: sig.V}
	}
	ok := secp256k1.VerifyBatch(jobs)
	for i := range ok {
		if !ok[i] {
			return fmt.Errorf("hybrid: signature %d does not match participant key", i)
		}
	}
	return nil
}

// AddSignature inserts a signature at the participant's index, growing the
// list as needed.
func (sc *SignedCopy) AddSignature(index int, sig SigTuple) {
	for len(sc.Sigs) <= index {
		sc.Sigs = append(sc.Sigs, SigTuple{})
	}
	sc.Sigs[index] = sig
}

// Encode serializes the signed copy with RLP for transport over the
// off-chain channel.
func (sc *SignedCopy) Encode() []byte {
	items := []*rlp.Item{rlp.Bytes(sc.Bytecode)}
	for i := range sc.Sigs {
		sig := &sc.Sigs[i]
		items = append(items, rlp.List(
			rlp.Uint(uint64(sig.V)),
			rlp.Bytes(sig.R[:]),
			rlp.Bytes(sig.S[:]),
		))
	}
	return rlp.EncodeList(items...)
}

// DecodeSignedCopy parses a transported signed copy.
func DecodeSignedCopy(data []byte) (*SignedCopy, error) {
	item, err := rlp.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("hybrid: decode signed copy: %w", err)
	}
	if item.Kind != rlp.KindList || len(item.Items) < 1 {
		return nil, errors.New("hybrid: malformed signed copy")
	}
	if item.Items[0].Kind != rlp.KindBytes {
		return nil, errors.New("hybrid: malformed signed copy bytecode")
	}
	sc := &SignedCopy{Bytecode: item.Items[0].Bytes}
	for _, sigItem := range item.Items[1:] {
		if sigItem.Kind != rlp.KindList || len(sigItem.Items) != 3 {
			return nil, errors.New("hybrid: malformed signature tuple")
		}
		v, err := sigItem.Items[0].Uint64()
		if err != nil || v > 255 {
			return nil, errors.New("hybrid: malformed signature v")
		}
		sig := SigTuple{V: byte(v)}
		if !fill32(sig.R[:], sigItem.Items[1]) || !fill32(sig.S[:], sigItem.Items[2]) {
			return nil, errors.New("hybrid: malformed signature component")
		}
		sc.Sigs = append(sc.Sigs, sig)
	}
	return sc, nil
}

// fill32 right-aligns a decoded byte-string into a 32-byte word,
// rejecting lists and oversized components (which would otherwise panic
// the negative-index copy this replaces — found by fuzzing).
func fill32(dst []byte, it *rlp.Item) bool {
	if it.Kind != rlp.KindBytes || len(it.Bytes) > len(dst) {
		return false
	}
	copy(dst[len(dst)-len(it.Bytes):], it.Bytes)
	return true
}
