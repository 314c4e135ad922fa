package route_test

import (
	"fmt"

	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/route"
)

// ExampleGreedy routes one message greedily on a GIRG (Algorithm 1).
func ExampleGreedy() {
	p := girg.DefaultParams(2000)
	p.FixedN = true
	g, err := girg.Generate(p, 42, girg.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	giant := graph.GiantComponent(g)
	s, t := giant[0], giant[len(giant)-1]
	res := route.Greedy(g, route.NewStandard(g, t), s)
	fmt.Println("delivered:", res.Success)
	fmt.Println("objective increased monotonically:", res.Stuck == -1)
	// Output:
	// delivered: true
	// objective increased monotonically: true
}

// ExamplePhiDFS shows the paper's Algorithm 2: guaranteed delivery within a
// connected component, using constant memory per node.
func ExamplePhiDFS() {
	p := girg.DefaultParams(2000)
	p.Lambda = 0.02 // sparse: plain greedy would sometimes fail here
	p.FixedN = true
	g, err := girg.Generate(p, 7, girg.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	giant := graph.GiantComponent(g)
	s, t := giant[0], giant[len(giant)-1]
	res := route.Route(route.PhiDFS{}, g, route.NewStandard(g, t), s)
	fmt.Println("delivered:", res.Success)
	// Output:
	// delivered: true
}
