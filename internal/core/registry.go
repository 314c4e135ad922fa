package core

import "repro/internal/route"

// Protocol names a routing protocol by its route registry name ("greedy",
// "phi-dfs", ...); the zero value "" selects the default protocol, greedy.
// It is a string type, so registry names convert directly:
// nw.Route("phi-dfs", s, t). Implementations register with route.Register.
type Protocol string

// String names the protocol for reports and lookups: the zero value is
// greedy.
func (p Protocol) String() string {
	if p == "" {
		return "greedy"
	}
	return string(p)
}

// reportOrder fixes the display order of the built-in protocols in tables
// and sweeps (pure greedy and its lookahead variant first, then the
// patchers). Externally registered protocols follow in registration order.
var reportOrder = []Protocol{"greedy", "greedy+lookahead", "phi-dfs", "history", "gravity-pressure"}

// Protocols lists all registered protocols: the built-ins in report order,
// then any externally registered protocols in registration order.
func Protocols() []Protocol {
	registered := route.Registered()
	builtin := make(map[Protocol]bool, len(reportOrder))
	for _, p := range reportOrder {
		builtin[p] = true
	}
	out := make([]Protocol, 0, len(registered))
	out = append(out, reportOrder...)
	for _, name := range registered {
		if !builtin[Protocol(name)] {
			out = append(out, Protocol(name))
		}
	}
	return out
}

// resolve maps a config-level Protocol to its implementation; the zero value
// selects greedy.
func resolve(p Protocol) (route.Protocol, error) {
	return route.Lookup(p.String())
}
