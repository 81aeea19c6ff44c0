// Package store is the hub's durability layer: an append-only,
// RLP-encoded write-ahead log with CRC-framed records, size-based segment
// rotation, and snapshot compaction. The hub logs every session lifecycle
// transition BEFORE acting on it; after a crash, hub.Recover replays the
// log to rebuild the session table and re-arm the watchtower over every
// challenge window that was open when the process died.
//
// The store itself is deliberately dumb: it persists and replays opaque
// Records in order. What a record MEANS — how a stream of records folds
// into session state — is the hub's business (see internal/hub/recovery.go),
// which also keeps this package reusable for the multi-hub federation
// work, where towers exchange exactly these window records.
package store

import (
	"errors"
	"fmt"

	"onoffchain/internal/rlp"
)

// Kind tags a WAL record. The zero value is invalid so an all-zeroes
// frame can never decode as a meaningful record.
type Kind uint8

const (
	// KindAccepted: a session was accepted into the hub (Str = scenario).
	// Logged at Submit time, before any worker touches the session, so a
	// crash can never silently lose a queued session.
	KindAccepted Kind = iota + 1
	// KindParties: the session's identity material — U1 = challenge
	// period (seconds), U2 = honest party index, Blobs = the parties'
	// 32-byte private scalars in participant order. (U3 carried a
	// key-sequence mark in older WALs; it is no longer written or read.)
	KindParties
	// KindStage: write-ahead intent — the session is ABOUT to run the
	// stage in U1. Logged before the stage's first side effect.
	KindStage
	// KindDeployed: the on-chain half is live. Blob = 20-byte contract
	// address. (U1 carried the deploy block in older WALs; it is no longer
	// written or read.)
	KindDeployed
	// KindSigned: every participant holds the verified signed copy.
	// Blob = hybrid.SignedCopy.Encode().
	KindSigned
	// KindSetupStart / KindSetupDone bracket the scenario's on-chain
	// setup (deposits). A crash between the two leaves on-chain deposit
	// state indeterminate, so recovery abandons such sessions instead of
	// re-running setup blindly.
	KindSetupStart
	KindSetupDone
	// KindSubmitted: intent to push the result in U1 on-chain. The chain
	// is the source of truth for whether the transaction actually landed;
	// recovery checks FilterLogs, never this record alone.
	KindSubmitted
	// KindDisputed: the watchtower was about to file a dispute for the
	// session. No longer written and never folded — recovery re-derives
	// dispute necessity from the chain (a landed dispute settles the
	// contract); the kind stays so WALs that carry it still decode.
	KindDisputed
	// KindWindow: the watchtower observed an open challenge window.
	// U1 = submitted result, U2 = opened-at (chain time), U3 = deadline.
	KindWindow
	// KindTerminal: the session reached the terminal stage in U1.
	KindTerminal
	// KindCursor: the watchtower has durably processed every block up to
	// and including U1. Recovery replays chain events from U1+1.
	KindCursor
	// KindKeySeq: U2 is the highest session ID ever issued. Kept as its own
	// record so compaction (which drops terminal sessions) cannot lose the
	// high mark — a recovered hub must never reissue a dead session's ID,
	// and with it the party keys derived from that ID. (U1 carried a
	// key-sequence mark while keys came from a counter; older WALs still
	// replay, the field is no longer written or read.)
	KindKeySeq

	// Federation kinds: what internal/federation's towers gossip to each
	// other and journal (a separate store from any hub's WAL; hub recovery
	// ignores these). Wire and disk share the one encoding.

	// KindFedMember: a member's heartbeat. Blob = 20-byte member address.
	// Gossiped, not journaled and never folded; the kind stays decodable
	// from journals that recorded membership.
	KindFedMember
	// KindFedGuard: guard state for one contract this tower shares duty
	// for — enough to rebuild the session and dispute as the honest party.
	// SID = owning hub's session ID (0 if unknown), U1 = challenge period,
	// U2 = honest party index, Str = scenario (SpecRegistry key),
	// Blobs[0] = 20-byte contract address, Blobs[1] = signed-copy
	// encoding, Blobs[2:] = the parties' 32-byte private scalars.
	KindFedGuard
	// KindFedWindow: a challenge window observed (locally or via gossip).
	// U1 = submitted result, U2 = opened-at, U3 = deadline,
	// Blob = 20-byte contract address, Blobs[0] = submitter,
	// Blobs[1] (optional, 8 bytes big-endian) = the owner's verdict hint.
	KindFedWindow
	// KindFedIntent: the sending member intends to dispute the contract in
	// Blob. Gossiped, not journaled and never folded (intents are
	// re-gossiped while live, so a restart relearns them). Journals that
	// carry it (then with U1 = wall-clock milliseconds, Blobs[0] = the
	// declaring member) still decode.
	KindFedIntent
	// KindFedClosed: the contract in Blob settled (U1 = 1 when settled by
	// dispute resolution); its guard state is dead and a restarted member
	// must not re-arm it.
	KindFedClosed

	// Rollup kinds: the durable state of an internal/rollup sequencer
	// (written into the hosting hub's WAL; the hub's per-session fold
	// ignores everything >= KindFedMember, so these ride alongside).

	// KindEpochLeaf: a finished session's outcome was enqueued for
	// rollup settlement. SID = session ID, U1 = outcome word,
	// Blob = 20-byte session-contract address. Recovery re-enqueues
	// leaves that never made it into a sealed epoch.
	KindEpochLeaf
	// KindEpochSealed: write-ahead intent — the sequencer is ABOUT to
	// post the epoch in U1 (U2 = leaf count, Blob = 32-byte Merkle root,
	// Blobs = the sealed leaf encodings in tree order). Logged BEFORE the
	// rollup transaction, so a crash between seal and post leaves the
	// full epoch reconstructible; whether the post landed is decided by
	// querying the registry contract, never by this record alone.
	KindEpochSealed
	// KindEpochPosted: the rollup transaction for epoch U1 landed
	// (Blob = root, U2 = block number). Forensic + fast-path: recovery
	// skips the on-chain probe for epochs with this record.
	KindEpochPosted
	// KindRollupRegistry: the rollup-registry contract is deployed.
	// Blob = 20-byte address, U1 = challenge window (seconds),
	// U2 = Merkle tree depth. A recovered sequencer reuses it instead of
	// deploying a second registry.
	KindRollupRegistry

	// Chain kinds: durable block journal for a chain node (cmd/chaind
	// -store); a separate store from any hub or federation WAL.

	// KindChainBlock: one sealed block. U1 = block number, U2 = block
	// time, Blobs = the raw signed transactions in block order. Restart
	// re-executes the batch deterministically, rebuilding state,
	// receipts, AND the in-memory log index without scanning.
	KindChainBlock
	// KindChainIndex: log-index high-water mark. U1 = highest block whose
	// logs are indexed, U2 = global log sequence counter. Restore asserts
	// the rebuilt index reaches exactly this mark, proving index
	// completeness without a full re-scan.
	KindChainIndex
	kindMax
)

var kindNames = map[Kind]string{
	KindAccepted:   "accepted",
	KindParties:    "parties",
	KindStage:      "stage",
	KindDeployed:   "deployed",
	KindSigned:     "signed",
	KindSetupStart: "setup-start",
	KindSetupDone:  "setup-done",
	KindSubmitted:  "submitted",
	KindDisputed:   "disputed",
	KindWindow:     "window",
	KindTerminal:   "terminal",
	KindCursor:     "cursor",
	KindKeySeq:     "key-seq",
	KindFedMember:  "fed-member",
	KindFedGuard:   "fed-guard",
	KindFedWindow:  "fed-window",
	KindFedIntent:  "fed-intent",
	KindFedClosed:  "fed-closed",

	KindEpochLeaf:      "epoch-leaf",
	KindEpochSealed:    "epoch-sealed",
	KindEpochPosted:    "epoch-posted",
	KindRollupRegistry: "rollup-registry",

	KindChainBlock: "chain-block",
	KindChainIndex: "chain-index",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one WAL entry. The field layout is a fixed superset of what
// every kind needs; unused fields encode as empty RLP strings, which cost
// one byte each and keep the decoder schema-free.
type Record struct {
	Kind       Kind
	SID        uint64 // session ID (0 for hub-wide records like cursors)
	U1, U2, U3 uint64
	Blob       []byte
	Str        string
	Blobs      [][]byte
}

// Decode errors.
var (
	ErrBadRecord = errors.New("store: malformed record")
)

// Encode serializes the record with RLP.
func (r *Record) Encode() []byte {
	blobs := make([]*rlp.Item, len(r.Blobs))
	for i, b := range r.Blobs {
		blobs[i] = rlp.Bytes(b)
	}
	return rlp.EncodeList(
		rlp.Uint(uint64(r.Kind)),
		rlp.Uint(r.SID),
		rlp.Uint(r.U1),
		rlp.Uint(r.U2),
		rlp.Uint(r.U3),
		rlp.Bytes(r.Blob),
		rlp.String(r.Str),
		rlp.List(blobs...),
	)
}

// DecodeRecord parses one RLP-encoded record, rejecting anything that is
// not byte-exact re-encodable: unknown kinds, wrong arity, oversized
// integers, or nested lists where byte strings belong. This is the surface
// FuzzWALDecode hammers.
func DecodeRecord(payload []byte) (*Record, error) {
	item, err := rlp.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	if item.Kind != rlp.KindList || len(item.Items) != 8 {
		return nil, fmt.Errorf("%w: want 8-item list", ErrBadRecord)
	}
	nums := make([]uint64, 5)
	for i := 0; i < 5; i++ {
		v, err := item.Items[i].Uint64()
		if err != nil {
			return nil, fmt.Errorf("%w: field %d: %v", ErrBadRecord, i, err)
		}
		nums[i] = v
	}
	// Range-check BEFORE converting: Kind is a uint8, so a raw value like
	// 257 would otherwise alias to a valid kind.
	if nums[0] == 0 || nums[0] >= uint64(kindMax) {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, nums[0])
	}
	kind := Kind(nums[0])
	if item.Items[5].Kind != rlp.KindBytes || item.Items[6].Kind != rlp.KindBytes {
		return nil, fmt.Errorf("%w: blob/str must be byte strings", ErrBadRecord)
	}
	rec := &Record{
		Kind: kind,
		SID:  nums[1],
		U1:   nums[2],
		U2:   nums[3],
		U3:   nums[4],
		Str:  string(item.Items[6].Bytes),
	}
	if len(item.Items[5].Bytes) > 0 {
		rec.Blob = item.Items[5].Bytes
	}
	blobs := item.Items[7]
	if blobs.Kind != rlp.KindList {
		return nil, fmt.Errorf("%w: blobs must be a list", ErrBadRecord)
	}
	for i, b := range blobs.Items {
		if b.Kind != rlp.KindBytes {
			return nil, fmt.Errorf("%w: blobs[%d] must be a byte string", ErrBadRecord, i)
		}
		rec.Blobs = append(rec.Blobs, b.Bytes)
	}
	return rec, nil
}
