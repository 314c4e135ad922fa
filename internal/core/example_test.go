package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/girg"
)

// ExampleRunMilgram reproduces a small Milgram-style batch experiment.
func ExampleRunMilgram() {
	nw, err := core.NewGIRG(girg.DefaultParams(2000), 42, girg.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	rep, err := core.RunMilgram(nw, core.MilgramConfig{Pairs: 100, Seed: 7})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("attempts:", rep.Attempts)
	fmt.Println("all delivered:", rep.Success.P == 1)
	// Output:
	// attempts: 100
	// all delivered: true
}

// ExampleNetwork_Route dispatches one episode per protocol.
func ExampleNetwork_Route() {
	nw, err := core.NewGIRG(girg.DefaultParams(1500), 3, girg.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	giant := nw.Giant()
	s, t := giant[0], giant[len(giant)-1]
	for _, proto := range []core.Protocol{"greedy", "phi-dfs"} {
		res, err := nw.Route(proto, s, t)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s delivered: %v\n", proto, res.Success)
	}
	// Output:
	// greedy delivered: true
	// phi-dfs delivered: true
}
