// Package faults is the composable fault-injection subsystem of the
// robustness story: Theorem 3.4 promises that patching protocols succeed
// within a component under (P1)-(P3), Theorem 3.5 that every result survives
// approximate objectives, and the remark after Theorem 3.5 that greedy
// routing tolerates failing edges because "the current vertex can send the
// message to any other good neighbor instead". This package turns those
// claims into injectable faults that layer over any route.Graph /
// route.Objective pair:
//
//   - "edge-drop":       transient per-query edge failures (the remark after
//     Theorem 3.5; replaced the removed route.FlakyGraph)
//   - "crash-uniform":   permanent uniform vertex churn
//   - "crash-core":      adversarial crash of the highest-weight vertices —
//     an attack on the core that Figure 1's first phase
//     routes through
//   - "msg-loss":        per-transmission message loss with a bounded retry
//     budget
//   - "objective-noise": the multiplicative relaxation of Theorem 3.5 recast
//     as an injectable fault
//
// Models compose: a Plan layers any subset in order, each layer drawing from
// its own derived seed. Every fault decision is a pure function of
// (seed, episode, query), so faulty batches are bit-identical across worker
// counts and across runs — the engine's determinism guarantee survives chaos.
// Like route's protocols, models live in a name-keyed registry (Register /
// New) so CLIs derive their usage text and error messages from the
// registered set.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/route"
	"repro/internal/xrand"
)

// Spec selects and parameterizes one fault model by registered name. It is
// the wire- and CLI-facing configuration unit: -fault-model/-fault-rate
// flags map to one Spec, and the JSON tags let services accept a per-request
// plan as a list of specs in a request body (see NewPlan).
type Spec struct {
	// Model is the registered model name ("edge-drop", "crash-uniform", ...).
	Model string `json:"model"`
	// Rate is the model's severity knob in [0, 1]: the per-query edge drop
	// probability, the crashed-vertex fraction, the per-transmission loss
	// probability, or the noise amplitude eps of Theorem 3.5.
	Rate float64 `json:"rate"`
	// Retries bounds the per-forward retry budget of "msg-loss" (ignored by
	// the other models); 0 means the model default of 1 retry, and at most
	// 1024 are accepted.
	Retries int `json:"retries,omitempty"`
}

// Model is one fault model. Bind precomputes any per-graph state (crash
// sets, weight quantiles) once per plan; the returned Bound then instantiates
// cheap episode-scoped faulty views.
type Model interface {
	// Name is the registry key, e.g. "edge-drop".
	Name() string
	// Bind attaches the model to a graph under a derived seed.
	Bind(g route.Graph, seed uint64) Bound
}

// Bound is a fault model bound to one graph. Implementations must be safe
// for concurrent View calls; the views they return are episode-scoped and
// used by a single goroutine each.
type Bound interface {
	// View wraps the (possibly already fault-wrapped) graph and objective of
	// one episode. All randomness must derive from the bound seed, the
	// episode number, and the per-episode query sequence — never from shared
	// mutable state — so batches stay deterministic at any worker count.
	View(g route.Graph, obj route.Objective, episode int) (route.Graph, route.Objective)
	// Crashed reports whether vertex v is permanently failed under this
	// model (false for all v under purely transient models). Engines use it
	// to classify episodes whose endpoint is gone as "crashed-target"
	// without running the protocol.
	Crashed(v int) bool
}

// Builder constructs a model from a spec. Builders validate spec fields and
// return descriptive errors; rate bounds are checked centrally by New.
type Builder func(Spec) (Model, error)

// The fault-model registry, mirroring route's protocol registry: built-ins
// self-register at init, external models join through Register, and CLIs
// derive usage text and unknown-name errors from the registered set.
var (
	regMu     sync.RWMutex
	regByName = map[string]Builder{}
	regOrder  []string
)

// Register adds a fault-model builder to the registry. It panics on an empty
// name or a duplicate registration — both are programming errors caught at
// init time.
func Register(name string, b Builder) {
	if name == "" {
		panic("faults: Register with empty model name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByName[name]; dup {
		panic("faults: duplicate model registration " + name)
	}
	regByName[name] = b
	regOrder = append(regOrder, name)
}

// maxRetries caps Spec.Retries: msg-loss folds its budget into one drop
// probability with a loop of that many steps at Bind, so a budget from a
// request body must not be able to stall the request that carries it.
const maxRetries = 1 << 10

// New builds a fault model from its spec. The error for an unknown model
// name lists every registered model.
func New(spec Spec) (Model, error) {
	regMu.RLock()
	b, ok := regByName[spec.Model]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("faults: unknown fault model %q (registered: %s)",
			spec.Model, strings.Join(RegisteredSorted(), ", "))
	}
	if spec.Rate < 0 || spec.Rate > 1 {
		return nil, fmt.Errorf("faults: %s rate %g outside [0, 1]", spec.Model, spec.Rate)
	}
	if spec.Retries < 0 || spec.Retries > maxRetries {
		return nil, fmt.Errorf("faults: %s retry budget %d outside [0, %d]", spec.Model, spec.Retries, maxRetries)
	}
	return b(spec)
}

// Registered returns the registered model names in registration order
// (built-ins first, then external registrations).
func Registered() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	return out
}

// RegisteredSorted returns the registered model names in lexicographic
// order, for stable display in usage text and error messages.
func RegisteredSorted() []string {
	names := Registered()
	sort.Strings(names)
	return names
}

// Plan layers fault models over a graph/objective pair. The zero value (and
// a nil *Plan) injects nothing. Models apply in order: model i wraps the
// views produced by models 0..i-1.
type Plan struct {
	// Seed drives every fault decision; each model layer derives an
	// independent stream from it.
	Seed uint64
	// Models are the layered fault models.
	Models []Model
}

// NewPlan builds a plan from specs via the registry, resolving each spec in
// order.
func NewPlan(seed uint64, specs ...Spec) (*Plan, error) {
	p := &Plan{Seed: seed}
	for _, s := range specs {
		m, err := New(s)
		if err != nil {
			return nil, err
		}
		p.Models = append(p.Models, m)
	}
	return p, nil
}

// Bind precomputes the per-graph state of every layer (crash sets, weight
// thresholds) and returns a bound plan. Binding is done once per batch; the
// bound plan then serves concurrent episodes. Bind on a nil or empty plan
// returns a no-op bound plan.
func (p *Plan) Bind(g route.Graph) *BoundPlan {
	if p == nil {
		return &BoundPlan{}
	}
	b := &BoundPlan{}
	for i, m := range p.Models {
		// Each layer gets a decorrelated seed so stacking a model twice, or
		// reordering layers, changes the fault stream.
		b.layers = append(b.layers, m.Bind(g, xrand.Hash64(p.Seed, uint64(i)+1, stringHash(m.Name()))))
	}
	return b
}

// BoundPlan is a plan bound to one graph, ready to instantiate episode views.
type BoundPlan struct {
	layers []Bound
}

// View returns the faulty graph and objective for one episode, layering
// every bound model in plan order. The returned views are episode-scoped:
// they may carry per-episode counters and buffers and must not be shared
// across goroutines.
func (b *BoundPlan) View(g route.Graph, obj route.Objective, episode int) (route.Graph, route.Objective) {
	if b == nil {
		return g, obj
	}
	for _, l := range b.layers {
		g, obj = l.View(g, obj, episode)
	}
	return g, obj
}

// Crashed reports whether any layer permanently failed vertex v.
func (b *BoundPlan) Crashed(v int) bool {
	if b == nil {
		return false
	}
	for _, l := range b.layers {
		if l.Crashed(v) {
			return true
		}
	}
	return false
}

// Empty reports whether the bound plan injects no faults at all.
func (b *BoundPlan) Empty() bool { return b == nil || len(b.layers) == 0 }

// noCrash is embedded by purely transient bounds to satisfy Crashed.
type noCrash struct{}

// Crashed always reports false: the model fails no vertex permanently.
func (noCrash) Crashed(int) bool { return false }

// stringHash folds a model name into the seed derivation (FNV-1a).
func stringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
