// Command bench regenerates the paper's evaluation tables and figures
// (DESIGN.md §8) and prints them in paper-style form.
//
// Usage:
//
//	bench -exp all
//	bench -exp table2 -rounds 0,64,512
//	bench -exp fig1
//	bench -exp dispute-prob
//	bench -exp privacy
//	bench -exp participants
//	bench -exp deposit
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"onoffchain/internal/experiments"
)

func parseRounds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad rounds value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: table2|fig1|fig2|dispute-prob|privacy|participants|deposit|all")
	roundsFlag := flag.String("rounds", "0,64,256,1024", "reveal-round sweep for table2/fig1")
	flag.Parse()

	rounds, err := parseRounds(*roundsFlag)
	if err != nil {
		log.Fatal(err)
	}

	run := func(name string, fn func() (string, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		out, err := fn()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(out)
	}

	run("table2", func() (string, error) {
		rows, err := experiments.Table2(rounds)
		return experiments.FormatTable2(rows), err
	})
	run("fig1", func() (string, error) {
		rows, err := experiments.Fig1(rounds)
		return experiments.FormatFig1(rows), err
	})
	run("fig2", func() (string, error) {
		rows, err := experiments.Fig2(64)
		return experiments.FormatFig2(rows), err
	})
	run("dispute-prob", func() (string, error) {
		rows, err := experiments.DisputeProbability(512,
			[]float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0})
		return experiments.FormatDisputeProbability(rows), err
	})
	run("privacy", func() (string, error) {
		rows, err := experiments.PrivacyLeakage(64)
		return experiments.FormatPrivacyLeakage(rows), err
	})
	run("participants", func() (string, error) {
		rows, err := experiments.Participants([]int{2, 3, 4, 6, 8, 12, 16})
		return experiments.FormatParticipants(rows), err
	})
	run("deposit", func() (string, error) {
		rows, err := experiments.DepositCompensation(64,
			[]uint64{0, 100_000, 500_000, 1_000_000, 5_000_000})
		return experiments.FormatDepositCompensation(rows), err
	})

	switch *exp {
	case "all", "table2", "fig1", "fig2", "dispute-prob", "privacy", "participants", "deposit":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
