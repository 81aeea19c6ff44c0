package hybrid

import (
	"errors"

	"onoffchain/internal/abi"
	"onoffchain/internal/chain"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// Topic hashes of the lifecycle events every generated on-chain contract
// emits (split.go pads them in). Watchtowers and monitors filter on these.
var (
	TopicResultSubmitted = abi.EventTopic("ResultSubmitted(address,uint256,uint256)")
	TopicResultFinalized = abi.EventTopic("ResultFinalized(uint256)")
	TopicDisputeOpened   = abi.EventTopic("DisputeOpened(address,address)")
	TopicDisputeResolved = abi.EventTopic("DisputeResolved(uint256)")
)

// Settlement reads whether a contract with LifecycleEvents settled, and
// whether by an enforced dispute, from its settlement log: the
// ResultFinalized or DisputeResolved of the one transaction that set its
// settled flag. A reverted transaction leaves no log, and the chain indexes
// a block's logs under the lock that commits its state, so this reads what
// the flag reads. A contract without lifecycle events reads (false, false).
func Settlement(c *chain.Chain, contract types.Address) (settled, byDispute bool) {
	logs := c.FilterLogs(chain.FilterQuery{
		Address: &contract,
		Topics:  []types.Hash{TopicResultFinalized, TopicDisputeResolved},
	})
	if len(logs) == 0 {
		return false, false
	}
	return true, logs[0].Topics[0] == TopicDisputeResolved
}

// ResultSubmittedEvent is the decoded form of a ResultSubmitted log: a
// participant opened (or refreshed) the challenge window with a claimed
// off-chain result.
type ResultSubmittedEvent struct {
	Result uint64
	At     uint64 // block timestamp of the submission
}

func word(data []byte, i int) []byte { return data[32*i : 32*(i+1)] }

// DecodeResultSubmitted parses a log known to carry TopicResultSubmitted.
func DecodeResultSubmitted(l *types.Log) (*ResultSubmittedEvent, error) {
	if len(l.Topics) == 0 || l.Topics[0] != TopicResultSubmitted || len(l.Data) < 96 {
		return nil, errors.New("hybrid: not a ResultSubmitted log")
	}
	result := new(uint256.Int).SetBytes(word(l.Data, 1))
	at := new(uint256.Int).SetBytes(word(l.Data, 2))
	if !result.IsUint64() || !at.IsUint64() {
		return nil, errors.New("hybrid: ResultSubmitted fields overflow uint64")
	}
	return &ResultSubmittedEvent{Result: result.Uint64(), At: at.Uint64()}, nil
}

// DecodeResultWord parses the single-uint data of ResultFinalized and
// DisputeResolved logs.
func DecodeResultWord(l *types.Log) (uint64, error) {
	if len(l.Data) < 32 {
		return 0, errors.New("hybrid: short event data")
	}
	v := new(uint256.Int).SetBytes(word(l.Data, 0))
	if !v.IsUint64() {
		return 0, errors.New("hybrid: event result overflows uint64")
	}
	return v.Uint64(), nil
}
