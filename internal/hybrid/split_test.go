package hybrid

import (
	"encoding/hex"
	"testing"

	"onoffchain/internal/keccak"
)

// TestSplitSourcesPinned pins the generated halves byte for byte: the
// keccak of each OnChainSource and OffChainSource, for the four scenarios
// the hub runs (lifecycle events on) and the two paper policies as the
// examples use them (events off). A change to how the splitter walks a
// contract must leave every generated source as it was.
func TestSplitSourcesPinned(t *testing.T) {
	withEvents := func(p Policy) Policy {
		p.LifecycleEvents = true
		return p
	}
	cases := []struct {
		name, source, contract string
		policy                 Policy
		on, off                string
	}{
		{"hub/betting", BettingSource, "Betting", withEvents(BettingPolicy(600)),
			"fbad74295f291af69f5573b8b6ae3318da2842073563cd77be634058be5ed716",
			"5c161a41bc1567122cd6bed438cbf4085f577fce133c23ec126c0dff1e0dfb2d"},
		{"hub/pool/3", MultiPartySource(3), "Pool", withEvents(MultiPartyPolicy(600)),
			"fbc34d5ea5c24f620a629fe52a58b1dc073adfdd3e1ed931cb525e0361b679de",
			"9cb3477f5f08c5fae4d5092accf1ce7a0a3ac8eea6fc5d9f83e0d999a0d4db19"},
		{"hub/lottery/6", LotterySource(6), "Lottery", withEvents(LotteryPolicy(600)),
			"b5279e09296ed0f8c5de7c1aecb1defc79b9f5b7a011bc26d51817584e1dde80",
			"bb6456d8530f41b4770f4f116ce34b166700877655f3b20f74e8b10814ad8157"},
		{"hub/auction", AuctionSource, "Auction", withEvents(AuctionPolicy(600)),
			"99efe81dc84b5616d9b2e6cc60ab6bd53d6d5768fadf08db33497eb72070effe",
			"1449832bc0257c9b5bc950c440d8c3d421ea6628551011e510d5fe6447480c03"},
		{"betting", BettingSource, "Betting", BettingPolicy(600),
			"210005deff77348b283a6c896d0968a4737015c8b5f2a2daae4c6d5689dea5bc",
			"5c161a41bc1567122cd6bed438cbf4085f577fce133c23ec126c0dff1e0dfb2d"},
		{"auction", AuctionSource, "Auction", AuctionPolicy(600),
			"105458b891e576cfc3894646248d28c6696f1fbc6efa57e5fac839434b4a869c",
			"1449832bc0257c9b5bc950c440d8c3d421ea6628551011e510d5fe6447480c03"},
	}
	for _, tc := range cases {
		sr, err := Split(tc.source, tc.contract, tc.policy)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		on, off := keccak.Sum256([]byte(sr.OnChainSource)), keccak.Sum256([]byte(sr.OffChainSource))
		if got := hex.EncodeToString(on[:]); got != tc.on {
			t.Errorf("%s: on-chain source keccak %s, want %s", tc.name, got, tc.on)
		}
		if got := hex.EncodeToString(off[:]); got != tc.off {
			t.Errorf("%s: off-chain source keccak %s, want %s", tc.name, got, tc.off)
		}
	}
}
