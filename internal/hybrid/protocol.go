package hybrid

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/rlp"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// Session drives one run of the four-stage protocol for a split contract.
// The stages map one-to-one onto the paper's Fig. 2.
type Session struct {
	Split   *SplitResult
	Parties []*Participant // in participant order (index = signature slot)

	// OnChainAddr is set by BindOnChain (stage 2).
	OnChainAddr types.Address
	// Copy is the fully-signed off-chain contract (stage 2).
	Copy *SignedCopy
	// InstanceAddr is the verified instance created during a dispute
	// (stage 4).
	InstanceAddr types.Address
	// DisputeFellBack reports that the latest Dispute mispredicted the
	// instance address and had to re-send returnDisputeResolution one block
	// later.
	DisputeFellBack bool

	// Trace is the session's causal identity; when set, whisper envelopes
	// posted on the session channel carry it so a remote peer can stitch
	// the exchange into the originating trace. Zero means untraced.
	Trace telemetry.TraceContext

	topic  whisper.Topic
	symKey []byte
}

// NewSession binds the split artifacts to the participant set.
func NewSession(split *SplitResult, parties []*Participant) (*Session, error) {
	if len(parties) != split.Participants {
		return nil, fmt.Errorf("hybrid: split expects %d participants, got %d", split.Participants, len(parties))
	}
	addrs := make([]types.Address, len(parties))
	for i, p := range parties {
		addrs[i] = p.Addr
	}
	// The topic is derived from the contract name AND the participant set,
	// so concurrent sessions of the same contract (a hub running thousands
	// of instances) do not share a channel. Every participant derives the
	// same topic independently.
	tag := ""
	for _, a := range addrs {
		tag += "/" + a.Hex()
	}
	return &Session{
		Split:   split,
		Parties: parties,
		topic:   whisper.TopicFromString("hybrid/signed-copy/" + split.Name + tag),
		symKey:  whisper.SharedTopicKey("hybrid/"+split.Name, addrs),
	}, nil
}

// PartyKeys parses party scalars from untrusted bytes (a federated tower's
// guard record): each must be a 32-byte scalar in [1, n).
func PartyKeys(scalars [][]byte) ([]*secp256k1.PrivateKey, error) {
	keys := make([]*secp256k1.PrivateKey, len(scalars))
	for i, sc := range scalars {
		key, err := secp256k1.PrivateKeyFromBytes(sc)
		if err != nil {
			return nil, fmt.Errorf("hybrid: party %d scalar: %w", i, err)
		}
		keys[i] = key
	}
	return keys, nil
}

// RebuildSession reconstructs a deployed, signed session from its party
// keys — re-derived by a recovering hub, parsed from gossip by a federated
// tower (PartyKeys) — and its durable bytes: one participant per key on c
// (with a whisper node when net is set), every receipt wait bounded by ctx,
// the on-chain address, and the decoded signed copy. The bytes are
// untrusted: anything malformed is an error before a participant is built.
// The copy's signatures are NOT verified here — a caller that acts on the
// copy beyond disputing with it (Dispute and the miners both re-check)
// calls Copy.Verify itself.
func RebuildSession(split *SplitResult, keys []*secp256k1.PrivateKey, c *chain.Chain, net *whisper.Network, ctx context.Context, contract types.Address, copyEnc []byte) (*Session, error) {
	if len(keys) != split.Participants {
		return nil, fmt.Errorf("hybrid: %d party keys, split expects %d", len(keys), split.Participants)
	}
	if contract.IsZero() {
		return nil, errors.New("hybrid: rebuild: zero contract address")
	}
	cp, err := DecodeSignedCopy(copyEnc)
	if err != nil {
		return nil, err
	}
	parties := make([]*Participant, len(keys))
	for i, key := range keys {
		parties[i] = NewParticipant(key, c, net)
		parties[i].Ctx = ctx
	}
	sess, err := NewSession(split, parties)
	if err != nil {
		return nil, err
	}
	sess.OnChainAddr = contract
	sess.Copy = cp
	return sess, nil
}

// ParticipantAddrs returns the ordered participant addresses.
func (s *Session) ParticipantAddrs() []types.Address {
	addrs := make([]types.Address, len(s.Parties))
	for i, p := range s.Parties {
		addrs[i] = p.Addr
	}
	return addrs
}

// participantPubs returns the ordered participant public keys, enabling
// shared-chain batch verification of the signed copy.
func (s *Session) participantPubs() []*secp256k1.PublicKey {
	pubs := make([]*secp256k1.PublicKey, len(s.Parties))
	for i, p := range s.Parties {
		pubs[i] = &p.Key.PublicKey
	}
	return pubs
}

// DeployOnChain performs the first half of stage 2 (deploy/sign): the first
// participant deploys the on-chain contract and the session binds to the
// address its receipt reports. ctorArgs is the WHOLE contract's argument
// list; the session selects the pruned public subset, so private rule
// parameters never leave the participants' machines.
func (s *Session) DeployOnChain(gas uint64, ctorArgs ...interface{}) (*types.Receipt, error) {
	hash, err := s.DeployOnChainAsync(s.Parties[0], gas, ctorArgs...)
	if err != nil {
		return nil, err
	}
	r, err := s.Parties[0].WaitReceipt(hash)
	if err != nil {
		return nil, err
	}
	if err := s.BindOnChain(r); err != nil {
		return nil, err
	}
	return r, nil
}

// DeployOnChainAsync pools the on-chain contract's creation from deployer
// without waiting for it to mine; BindOnChain completes the deployment from
// the receipt. The deployer need not be a participant: participants are
// constructor arguments and no generated constructor reads msg.sender, so
// whoever pays for the creation has no standing in the contract. A sender
// that queues the creation behind the parties' funding transfers has one
// block carry both.
func (s *Session) DeployOnChainAsync(deployer *Participant, gas uint64, ctorArgs ...interface{}) (types.Hash, error) {
	code, err := s.Split.OnChain.DeployWithArgs(s.Split.OnChainCtorArgs(ctorArgs)...)
	if err != nil {
		return types.Hash{}, err
	}
	return deployer.SendTxAsync(nil, nil, gas, code)
}

// BindOnChain binds the session to the contract the creation's receipt
// reports. The parties did not necessarily send that creation, so before
// anyone signs or deposits the code at the address must be, byte for byte,
// the runtime of the on-chain half they split themselves.
func (s *Session) BindOnChain(r *types.Receipt) error {
	if !r.Succeeded() {
		return errors.New("hybrid: deployment reverted")
	}
	if !bytes.Equal(s.Parties[0].Chain.CodeAt(r.ContractAddress), s.Split.OnChain.Runtime) {
		return fmt.Errorf("hybrid: code at %s is not the agreed on-chain contract", r.ContractAddress.Hex())
	}
	s.OnChainAddr = r.ContractAddress
	return nil
}

// SignAndExchange performs the second half of stage 2: every participant
// compiles the off-chain contract to bytecode (with the agreed constructor
// arguments baked in), signs keccak256(bytecode), and circulates the
// signature over the encrypted whisper topic. It returns once every
// participant holds a complete, verified signed copy.
func (s *Session) SignAndExchange(ctorArgs ...interface{}) error {
	bytecode, err := s.Split.OffChain.DeployWithArgs(ctorArgs...)
	if err != nil {
		return err
	}
	s.Copy = &SignedCopy{Bytecode: bytecode}

	// Everyone subscribes before anyone posts, and every subscription is
	// released when the exchange ends (on every path): session topics are
	// single-use, so leaving them registered would grow the network hub
	// by one dead subscription per participant per session, forever.
	for _, p := range s.Parties {
		if p.Node == nil {
			return errors.New("hybrid: participant has no whisper node")
		}
	}
	inboxes := make([]<-chan *whisper.Envelope, len(s.Parties))
	for i, p := range s.Parties {
		inboxes[i] = p.Node.Subscribe(s.topic)
	}
	defer func() {
		for i, p := range s.Parties {
			p.Node.Unsubscribe(s.topic, inboxes[i])
		}
	}()
	for i, p := range s.Parties {
		sig, err := SignBytecode(p.Key, bytecode)
		if err != nil {
			return err
		}
		payload := rlp.EncodeList(
			rlp.Uint(uint64(i)),
			rlp.Uint(uint64(sig.V)),
			rlp.Bytes(sig.R[:]),
			rlp.Bytes(sig.S[:]),
		)
		if _, err := p.Node.Post(s.topic, payload, whisper.PostOptions{Key: s.symKey, Trace: s.Trace}); err != nil {
			return err
		}
	}
	// One deadline for the whole exchange. Generous: delivery is in-process,
	// so anything but scheduling starvation arrives in microseconds — but
	// race-instrumented CI running many packages at once can starve a worker
	// for seconds, and a spurious timeout here fails an otherwise healthy
	// session.
	deadline := time.NewTimer(15 * time.Second)
	defer deadline.Stop()
	// Each participant independently collects and verifies all signatures;
	// the session keeps participant 0's view as the canonical copy.
	for pi, inbox := range inboxes {
		copyView := &SignedCopy{Bytecode: bytecode}
		got := 0
		for got < len(s.Parties) {
			select {
			case env := <-inbox:
				if !env.Verify() {
					return errors.New("hybrid: envelope signature invalid")
				}
				plain, err := whisper.Decrypt(s.symKey, env.Payload)
				if err != nil {
					// Not for this session (topics are 4 bytes, so unrelated
					// sessions can collide on one): ignore and keep waiting.
					continue
				}
				item, err := rlp.Decode(plain)
				if err != nil || len(item.Items) != 4 {
					return errors.New("hybrid: malformed signature share")
				}
				idx, idxErr := item.Items[0].Uint64()
				v, vErr := item.Items[1].Uint64()
				if idxErr != nil || vErr != nil || idx >= uint64(len(s.Parties)) || v > 255 {
					return errors.New("hybrid: malformed signature share")
				}
				sig := SigTuple{V: byte(v)}
				if !fill32(sig.R[:], item.Items[2]) || !fill32(sig.S[:], item.Items[3]) {
					return errors.New("hybrid: malformed signature share")
				}
				copyView.AddSignature(int(idx), sig)
				got++
			case <-deadline.C:
				return errors.New("hybrid: timed out collecting signatures")
			}
		}
		if err := copyView.VerifyWithKeys(s.participantPubs()); err != nil {
			return fmt.Errorf("hybrid: participant %d rejects copy: %w", pi, err)
		}
		if pi == 0 {
			s.Copy = copyView
		}
	}
	return nil
}

// ExecuteOffChainAll performs stage 3's private computation: every
// participant executes the signed bytecode locally — concurrently, as on
// n separate machines — and the outcomes must be unanimous.
func (s *Session) ExecuteOffChainAll() (*OffChainOutcome, error) {
	if s.Copy == nil {
		return nil, errors.New("hybrid: no signed copy (run SignAndExchange)")
	}
	outs := make([]*OffChainOutcome, len(s.Parties))
	errs := make([]error, len(s.Parties))
	var wg sync.WaitGroup
	wg.Add(len(s.Parties))
	for i := range s.Parties {
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = ExecuteOffChain(s.Copy.Bytecode)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("hybrid: participant %d off-chain execution: %w", i, err)
		}
		if outs[i].Result != outs[0].Result {
			return nil, fmt.Errorf("hybrid: participants disagree: %d vs %d", outs[0].Result, outs[i].Result)
		}
	}
	return outs[0], nil
}

// SubmitResult has the representative participant push the agreed result
// to the on-chain contract, opening the challenge period (stage 3).
func (s *Session) SubmitResult(partyIdx int, result uint64) (*types.Receipt, error) {
	return s.Parties[partyIdx].Invoke(s.Split.OnChain, s.OnChainAddr, nil, 200_000,
		"submitResult", result)
}

// FinalizeResult settles from the unchallenged submission once the
// challenge period has elapsed.
func (s *Session) FinalizeResult(partyIdx int) (*types.Receipt, error) {
	return s.Parties[partyIdx].Invoke(s.Split.OnChain, s.OnChainAddr, nil, 500_000,
		"finalizeResult")
}

// Dispute performs stage 4 (dispute/resolve): the honest participant
// submits the signed copy via deployVerifiedInstance (signature check +
// CREATE), then triggers returnDisputeResolution on the verified instance,
// which recomputes the result in miners' hands and enforces it through
// enforceDisputeResolution. It returns the receipts of the two
// transactions (paper Table II measures exactly these).
//
// Both transactions are sent back-to-back, before either is mined, so they
// share a block: the instance is CREATEd by the on-chain contract, whose
// nonce only that CREATE ever bumps, so its address is known in advance.
// The prediction fails only when someone else's deployVerifiedInstance is
// mined first; then the return call went to the wrong address and is
// re-sent to the instance the contract recorded — the sequential path, one
// block later, which is what every dispute used to cost.
func (s *Session) Dispute(partyIdx int) (deployReceipt, returnReceipt *types.Receipt, err error) {
	f, err := s.newDisputeFiling(partyIdx)
	if err != nil {
		return nil, nil, err
	}
	if err := f.sendDeploy(); err != nil {
		return nil, nil, err
	}
	if f.returnHash, err = f.sendReturn(f.predicted); err != nil {
		return nil, nil, err
	}
	return f.await()
}

// disputeFiling is one party's dispute in flight: deployVerifiedInstance
// and returnDisputeResolution pooled under consecutive nonces (so no block
// can carry the second without the first), then observed together.
type disputeFiling struct {
	s          *Session
	party      *Participant
	deployArgs []interface{}
	predicted  types.Address // where the verified instance will be CREATEd
	deployHash types.Hash
	returnHash types.Hash
}

// newDisputeFiling re-verifies the signed copy and predicts the instance
// address from the on-chain contract's current nonce.
func (s *Session) newDisputeFiling(partyIdx int) (*disputeFiling, error) {
	if s.Copy == nil {
		return nil, errors.New("hybrid: no signed copy")
	}
	if err := s.Copy.VerifyWithKeys(s.participantPubs()); err != nil {
		return nil, err
	}
	args := []interface{}{s.Copy.Bytecode}
	for _, sig := range s.Copy.Sigs {
		args = append(args, uint64(sig.V), types.Hash(sig.R), types.Hash(sig.S))
	}
	p := s.Parties[partyIdx]
	s.DisputeFellBack = false
	return &disputeFiling{
		s: s, party: p, deployArgs: args,
		predicted: types.CreateAddress(s.OnChainAddr, p.Chain.NonceAt(s.OnChainAddr)),
	}, nil
}

func (f *disputeFiling) sendDeploy() (err error) {
	f.deployHash, err = f.party.InvokeAsync(f.s.Split.OnChain, f.s.OnChainAddr, nil, 8_000_000,
		"deployVerifiedInstance", f.deployArgs...)
	return err
}

func (f *disputeFiling) sendReturn(instance types.Address) (types.Hash, error) {
	return f.party.InvokeAsync(f.s.Split.OffChain, instance, nil, 8_000_000,
		"returnDisputeResolution", f.s.OnChainAddr)
}

// await observes both receipts and decides whether the pair enforced. A
// succeeded return receipt alone proves nothing: a call to an address with
// no code succeeds without running anything. The pair enforced only if
// the contract recorded the predicted instance and the return call to it
// succeeded; otherwise, unless the contract is settled already, the return
// call is re-sent to the recorded instance.
func (f *disputeFiling) await() (deployReceipt, returnReceipt *types.Receipt, err error) {
	s := f.s
	deployReceipt, err = f.party.WaitReceipt(f.deployHash)
	if err != nil {
		return nil, nil, err
	}
	returnReceipt, err = f.party.WaitReceipt(f.returnHash)
	if !deployReceipt.Succeeded() {
		return deployReceipt, nil, errors.New("hybrid: deployVerifiedInstance reverted")
	}
	if err != nil {
		return deployReceipt, nil, err
	}
	inst, err := f.party.Query(s.Split.OnChain, s.OnChainAddr, "verifiedInstance")
	if err != nil {
		return deployReceipt, nil, err
	}
	s.InstanceAddr = inst.(types.Address)
	if s.InstanceAddr.IsZero() {
		return deployReceipt, nil, errors.New("hybrid: no verified instance recorded")
	}
	if s.InstanceAddr == f.predicted && returnReceipt.Succeeded() {
		return deployReceipt, returnReceipt, nil
	}
	settled, err := s.IsSettled()
	if err != nil {
		return deployReceipt, returnReceipt, err
	}
	if settled {
		return deployReceipt, returnReceipt, errors.New("hybrid: returnDisputeResolution reverted (settled by another dispute)")
	}
	s.DisputeFellBack = true
	hash, err := f.sendReturn(s.InstanceAddr)
	if err != nil {
		return deployReceipt, nil, err
	}
	returnReceipt, err = f.party.WaitReceipt(hash)
	if err != nil {
		return deployReceipt, nil, err
	}
	if !returnReceipt.Succeeded() {
		return deployReceipt, returnReceipt, errors.New("hybrid: returnDisputeResolution reverted")
	}
	return deployReceipt, returnReceipt, nil
}

// IsSettled reads the on-chain settled flag.
func (s *Session) IsSettled() (bool, error) {
	v, err := s.Parties[0].Query(s.Split.OnChain, s.OnChainAddr, "isSettled")
	if err != nil {
		return false, err
	}
	return v.(bool), nil
}

// OnChainBalance reads the pot held by the on-chain contract.
func (s *Session) OnChainBalance() *uint256.Int {
	return s.Parties[0].Chain.BalanceAt(s.OnChainAddr)
}
