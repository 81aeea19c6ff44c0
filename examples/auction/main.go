// Auction demonstrates the hybrid model on a second workload: a two-party
// sealed-bid trade whose private scoring rule (bids and weights) stays
// off-chain. It also shows the automatic classifier recommending the split.
package main

import (
	"fmt"
	"log"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

func eth(n uint64) *uint256.Int {
	return new(uint256.Int).Mul(uint256.NewInt(n), uint256.NewInt(1e18))
}

func main() {
	// The classifier reproduces the paper's taxonomy automatically.
	profiles, err := hybrid.Classify(hybrid.AuctionSource, "Auction",
		[]string{"bidA", "bidB", "weightQuality", "weightPrice"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("classifier output (paper §II-B heavy/private vs light/public):")
	fmt.Println(hybrid.FormatProfiles(profiles))

	split, err := hybrid.Split(hybrid.AuctionSource, "Auction", hybrid.AuctionPolicy(600))
	if err != nil {
		log.Fatal(err)
	}

	keyA, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0x5e11e4))
	keyB, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xb1dde4))
	c := chain.NewDefault(map[types.Address]*uint256.Int{
		types.Address(keyA.EthereumAddress()): eth(20),
		types.Address(keyB.EthereumAddress()): eth(20),
	})
	net := whisper.NewNetwork(c.Now)
	seller := hybrid.NewParticipant(keyA, c, net)
	buyer := hybrid.NewParticipant(keyB, c, net)

	sess, err := hybrid.NewSession(split, []*hybrid.Participant{seller, buyer})
	if err != nil {
		log.Fatal(err)
	}
	ctorArgs := []interface{}{
		seller.Addr, buyer.Addr,
		uint64(431), uint64(977), // sealed bids — never revealed on-chain
		uint64(3), uint64(7), // private scoring weights
		c.Now() + 10_000,
	}
	if _, err := sess.DeployOnChain(3_000_000, ctorArgs...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("on-chain half deployed at %s — bids and weights pruned from its constructor\n",
		sess.OnChainAddr.Hex())
	if err := sess.SignAndExchange(ctorArgs...); err != nil {
		log.Fatal(err)
	}

	for _, p := range []*hybrid.Participant{seller, buyer} {
		if r, err := p.Invoke(split.OnChain, sess.OnChainAddr, eth(2), 300_000, "deposit"); err != nil || !r.Succeeded() {
			log.Fatalf("deposit: %v", err)
		}
	}
	fmt.Printf("both parties escrowed 2 ether; pot = %s wei\n", sess.OnChainBalance())

	outcome, err := sess.ExecuteOffChainAll()
	if err != nil {
		log.Fatal(err)
	}
	names := []string{"seller", "buyer"}
	fmt.Printf("private scoring ran off-chain: winner index = %d (%s)\n", outcome.Result, names[outcome.Result])

	// Here nobody even submits — the winner enforces directly through the
	// signed copy (the mechanism works from any stage).
	deployR, returnR, err := sess.Dispute(int(outcome.Result))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enforced through verified instance: deploy gas %d, return gas %d\n",
		deployR.GasUsed, returnR.GasUsed)
	settled, _ := sess.IsSettled()
	fmt.Printf("settled = %v; %s receives the pot\n", settled, names[outcome.Result])
}
