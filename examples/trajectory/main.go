// Trajectory: reproduce Figure 1 of the paper in ASCII. A greedy path from a
// low-weight source to a far-away low-weight target first climbs the weight
// hierarchy into the network core (first phase), then descends toward the
// target while the objective explodes (second phase). The per-hop data is
// streamed by a route.Observer attached to the routing episode — the
// engine's observability hook — and the plot prints the weight profile of
// one such path hop by hop.
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/girg"
	"repro/internal/route"
)

func main() {
	params := girg.DefaultParams(200000)
	params.FixedN = true
	// A sparse kernel (lambda well below 1; (EP3) still holds with
	// c1 = lambda^{1/alpha}) keeps average degrees around ten, so paths are
	// long enough to display the two phases.
	params.Lambda = 0.02
	// Plant s and t with minimal weight, far apart on the torus — the
	// hardest typical case of the theorems.
	planted := []girg.Plant{
		{Pos: []float64{0.1, 0.1}, W: params.WMin},
		{Pos: []float64{0.6, 0.6}, W: params.WMin},
	}
	var (
		hops []route.MoveEvent
		seed uint64
	)
	for seed = 1; seed < 40; seed++ {
		g, err := girg.Generate(params, seed, girg.Options{Planted: planted})
		if err != nil {
			log.Fatal(err)
		}
		nw := &core.Network{Graph: g, Label: "trajectory"}
		// The observer receives one MoveEvent per hop: the vertex, its
		// model weight and its objective value — the Figure 1 data.
		var events []route.MoveEvent
		res, err := nw.Route("greedy", 0, 1, route.ObserverFunc(func(ev route.MoveEvent) {
			events = append(events, ev)
		}))
		if err != nil {
			log.Fatal(err)
		}
		if res.Success && len(events) > len(hops) {
			hops = events
			if res.Moves >= 6 {
				break
			}
		}
	}
	if hops == nil {
		log.Fatal("no successful path found; rerun with another seed range")
	}
	fmt.Printf("greedy path on a %.0f-vertex GIRG (seed %d): %d hops, both endpoints at weight %.1f\n\n",
		params.N, seed, len(hops)-1, params.WMin)
	fmt.Println("hop  weight        phi            log10(w) bar (the Figure-1 arc)")
	maxLog := 0.0
	for _, h := range hops {
		if l := math.Log10(h.W); l > maxLog {
			maxLog = l
		}
	}
	for _, h := range hops {
		bar := ""
		if maxLog > 0 {
			bar = strings.Repeat("#", 1+int(40*math.Log10(h.W)/maxLog))
		}
		phi := fmt.Sprintf("%12.4g", h.Score)
		if math.IsInf(h.Score, 1) {
			phi = "         inf"
		}
		fmt.Printf("%3d  %-12.1f %s  %s\n", h.Step, h.W, phi, bar)
	}
	fmt.Println("\nfirst phase: weight rises doubly-exponentially into the core;")
	fmt.Println("second phase: weight falls while the objective keeps rising toward the target.")
}
