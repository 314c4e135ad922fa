package route

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Protocol is a pluggable routing protocol: one algorithm that moves a
// message from a source toward an objective's target. Implementations must
// be stateless values (any per-episode state lives inside RouteInto) so a
// single Protocol can serve concurrent episodes. The built-in protocols
// register themselves at init time; external protocols join the same registry
// through Register and are then addressable by name everywhere a protocol
// name is accepted (core.MilgramConfig, cmd/route -proto, ...).
type Protocol interface {
	// Name is the registry key and the report label, e.g. "greedy" or
	// "phi-dfs". Names must be non-empty and unique across the registry.
	Name() string
	// RouteInto routes one episode from s toward obj.Target on g into out,
	// reusing out's Path backing array and sc's buffers, so a worker that
	// threads one Scratch and one Result through its episodes allocates
	// nothing for them. Implementations must not retain sc or out, and
	// out.Path is only valid until out's next reuse — callers that keep
	// paths across episodes copy them (Result.CopyInto). sc may be nil, at
	// the cost of per-episode allocations.
	RouteInto(g Graph, obj Objective, s int, sc *Scratch, out *Result)
}

// Route runs one episode of p from s toward obj.Target on g and returns it
// in a fresh Result, for callers that keep no buffers between episodes.
func Route(p Protocol, g Graph, obj Objective, s int) Result {
	var res Result
	p.RouteInto(g, obj, s, nil, &res)
	return res
}

// The protocol registry. Built-ins self-register from their files' init
// functions; Register is also the extension point for new protocols.
var (
	regMu     sync.RWMutex
	regByName = map[string]Protocol{}
	regOrder  []string
)

// Register adds a protocol to the registry. It panics on an empty name or a
// duplicate registration — both are programming errors caught at init time.
func Register(p Protocol) {
	name := p.Name()
	if name == "" {
		panic("route: Register with empty protocol name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByName[name]; dup {
		panic("route: duplicate protocol registration " + name)
	}
	regByName[name] = p
	regOrder = append(regOrder, name)
}

// Lookup resolves a protocol by its registered name. The error for an
// unknown name lists every registered protocol.
func Lookup(name string) (Protocol, error) {
	regMu.RLock()
	p, ok := regByName[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("route: unknown protocol %q (registered: %s)",
			name, strings.Join(Registered(), ", "))
	}
	return p, nil
}

// Registered returns the names of all registered protocols in registration
// order (built-ins first, then external registrations).
func Registered() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	return out
}

// RegisteredSorted returns the registered names in lexicographic order, for
// stable display in error messages and CLIs.
func RegisteredSorted() []string {
	names := Registered()
	sort.Strings(names)
	return names
}

// MoveEvent is one step of a routing trajectory as seen by an Observer: the
// message sits on vertex V, whose model weight is W and whose objective
// value is Score. Step 0 is the initial placement on the source; step k >= 1
// is the k-th transmission. Episode numbers events within a batch
// (RunMilgram); single routes use episode 0. The (W, Score) pairs of one
// episode are exactly the Figure 1 trajectory: W rises doubly-exponentially
// into the core, then Score explodes toward the target.
type MoveEvent struct {
	Episode int
	Step    int
	V       int
	W       float64
	Score   float64
}

// Observer receives per-move events of routing episodes. Engines deliver the
// events of one episode in step order; implementations are called from a
// single goroutine at a time and need no internal locking.
type Observer interface {
	Move(MoveEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(MoveEvent)

// Move calls f(ev).
func (f ObserverFunc) Move(ev MoveEvent) { f(ev) }

// Observe replays a finished episode to an observer: one MoveEvent per path
// position, in step order, scored under obj. Engines call it after each
// episode so observers see a deterministic event stream even when episodes
// themselves ran concurrently.
func Observe(g Graph, obj Objective, res Result, episode int, obs Observer) {
	for i, v := range res.Path {
		obs.Move(MoveEvent{Episode: episode, Step: i, V: v, W: g.Weight(v), Score: obj.Score(v)})
	}
}

// Moves replays a finished episode through Observe and collects its
// MoveEvents — the slice form of the trajectory for analyzers that want the
// whole path at once (Figure 1, layer analysis) rather than a streaming
// observer.
func Moves(g Graph, obj Objective, res Result, episode int) []MoveEvent {
	evs := make([]MoveEvent, 0, len(res.Path))
	Observe(g, obj, res, episode, ObserverFunc(func(ev MoveEvent) {
		evs = append(evs, ev)
	}))
	return evs
}
