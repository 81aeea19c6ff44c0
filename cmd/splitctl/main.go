// Command splitctl performs the paper's stage 1 (split/generate): it
// classifies the functions of a whole contract, partitions it into the
// on-chain and off-chain halves, and writes the generated artifacts.
//
// Usage:
//
//	splitctl -builtin betting -out artifacts/
//	splitctl -contract Betting -heavy reveal -result reveal -settle settle whole.solo
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"onoffchain/internal/hybrid"
)

func main() {
	builtin := flag.String("builtin", "", "use a built-in workload: betting|auction")
	contract := flag.String("contract", "", "contract name inside the source file")
	heavy := flag.String("heavy", "", "comma-separated heavy/private functions")
	result := flag.String("result", "", "result function (must be heavy)")
	settle := flag.String("settle", "", "internal settle function")
	challenge := flag.Uint64("challenge", 3600, "challenge period in seconds")
	outDir := flag.String("out", "", "write artifacts into this directory")
	classify := flag.Bool("classify", true, "print the function classification table")
	flag.Parse()

	var source, name string
	var policy hybrid.Policy
	switch *builtin {
	case "betting":
		source, name = hybrid.BettingSource, "Betting"
		policy = hybrid.BettingPolicy(*challenge)
	case "auction":
		source, name = hybrid.AuctionSource, "Auction"
		policy = hybrid.AuctionPolicy(*challenge)
	case "":
		if flag.NArg() != 1 || *contract == "" || *heavy == "" || *result == "" || *settle == "" {
			fmt.Fprintln(os.Stderr, "usage: splitctl -builtin betting|auction  OR  splitctl -contract C -heavy f1,f2 -result f1 -settle s <file.solo>")
			os.Exit(2)
		}
		raw, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		source, name = string(raw), *contract
		policy = hybrid.Policy{
			Heavy:           strings.Split(*heavy, ","),
			Result:          *result,
			Settle:          *settle,
			ChallengePeriod: *challenge,
		}
	default:
		log.Fatalf("unknown builtin %q", *builtin)
	}

	if *classify {
		profiles, err := hybrid.Classify(source, name, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Function classification (paper §II-B taxonomy):")
		fmt.Println(hybrid.FormatProfiles(profiles))
	}

	split, err := hybrid.Split(source, name, policy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("split %s: %d participants, challenge period %ds\n",
		name, split.Participants, split.Policy.ChallengePeriod)
	fmt.Printf("  on-chain runtime:  %5d bytes (%d public functions)\n",
		len(split.OnChain.Runtime), len(split.OnChain.Funcs))
	fmt.Printf("  off-chain runtime: %5d bytes (%d public functions)\n",
		len(split.OffChain.Runtime), len(split.OffChain.Funcs))
	fmt.Printf("  monolith runtime:  %5d bytes (baseline)\n", len(split.Monolith.Runtime))

	if *outDir == "" {
		fmt.Println("\n--- on-chain contract ---")
		fmt.Println(split.OnChainSource)
		fmt.Println("--- off-chain contract ---")
		fmt.Println(split.OffChainSource)
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	files := map[string][]byte{
		name + "OnChain.solo":  []byte(split.OnChainSource),
		name + "OffChain.solo": []byte(split.OffChainSource),
		name + "OnChain.bin":   []byte(hex.EncodeToString(split.OnChain.Deploy)),
		name + "OffChain.bin":  []byte(hex.EncodeToString(split.OffChain.Deploy)),
		name + "Monolith.bin":  []byte(hex.EncodeToString(split.Monolith.Deploy)),
	}
	for fname, data := range files {
		path := filepath.Join(*outDir, fname)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
}
