package types

import "onoffchain/internal/secp256k1"

// RecoverSenders primes the sender cache of every transaction in txs by
// recovering all missing senders across a pool of workers goroutines
// (workers <= 0 means one). Subsequent Sender() calls hit the cache, so a
// block's worth of signature recoveries — the chain's measured hot spot —
// runs on all cores instead of serializing inside execution. Unsigned or
// malformed transactions are skipped: Sender() reports their precise error
// when asked, exactly as without priming.
func RecoverSenders(txs []*Transaction, workers int) {
	type slot struct {
		tx  *Transaction
		key senderKey
	}
	var slots []slot
	var jobs []secp256k1.RecoverJob
	for _, tx := range txs {
		if tx == nil || tx.R.IsZero() || tx.S.IsZero() || tx.V < 27 {
			continue
		}
		key := tx.senderKey()
		if tx.senderCachedFor(key) {
			continue
		}
		slots = append(slots, slot{tx, key})
		jobs = append(jobs, secp256k1.RecoverJob{Hash: [32]byte(key.sigHash), R: tx.R, S: tx.S, V: tx.V - 27})
	}
	if len(jobs) == 0 {
		return
	}
	addrs, errs := secp256k1.RecoverAddresses(jobs, workers)
	for i, sl := range slots {
		if errs[i] != nil {
			continue // leave uncached; Sender() re-derives the error
		}
		sl.tx.cacheSender(sl.key, Address(addrs[i]))
	}
}
