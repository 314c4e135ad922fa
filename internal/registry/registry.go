// Package registry is the module's one plug-in registry type: route keeps
// its protocols in one, faults its fault models, expt its experiments. The
// engine resolves a protocol per episode, so a read is one atomic load and
// one map read; Add publishes each new state copy-on-write.
package registry

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// Registry maps names to plug-ins of type V. Pkg and Noun word its panics
// ("route" and "protocol": "route: duplicate protocol registration greedy").
// The zero value is an empty registry; it must not be copied once used.
type Registry[V any] struct {
	Pkg, Noun string

	mu  sync.Mutex
	cur atomic.Pointer[state[V]] // never modified once stored
}

type state[V any] struct {
	byName map[string]V
	order  []string // registration order
}

// Add registers v under name. It panics on an empty name or a duplicate
// registration — both are programming errors caught at init time.
func (r *Registry[V]) Add(name string, v V) {
	if name == "" {
		panic(r.Pkg + ": Register with empty " + r.Noun + " name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur.Load()
	if old == nil {
		old = &state[V]{byName: map[string]V{}}
	}
	if _, dup := old.byName[name]; dup {
		panic(r.Pkg + ": duplicate " + r.Noun + " registration " + name)
	}
	next := &state[V]{byName: maps.Clone(old.byName), order: append(slices.Clip(old.order), name)}
	next.byName[name] = v
	r.cur.Store(next)
}

// Get returns the entry registered under name.
func (r *Registry[V]) Get(name string) (v V, ok bool) {
	if s := r.cur.Load(); s != nil {
		v, ok = s.byName[name]
	}
	return v, ok
}

// Names returns the registered names in registration order, in a new slice.
func (r *Registry[V]) Names() []string {
	var order []string
	if s := r.cur.Load(); s != nil {
		order = s.order
	}
	return append([]string{}, order...)
}

// Sorted returns the registered names in lexicographic order.
func (r *Registry[V]) Sorted() []string {
	names := r.Names()
	slices.Sort(names)
	return names
}
