package registry

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestAddGetNames(t *testing.T) {
	var r Registry[int]
	if _, ok := r.Get("a"); ok || len(r.Names()) != 0 {
		t.Fatal("the zero registry is not empty")
	}
	for i, name := range []string{"b", "c", "a"} {
		r.Add(name, i)
	}
	if v, ok := r.Get("c"); !ok || v != 1 {
		t.Fatalf(`Get("c") = %d, %v`, v, ok)
	}
	if got := r.Names(); !slices.Equal(got, []string{"b", "c", "a"}) {
		t.Fatalf("Names() = %v, want registration order", got)
	}
	if got := r.Sorted(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("Sorted() = %v", got)
	}
	names := r.Names()
	names[0] = "x"
	if r.Names()[0] != "b" {
		t.Fatal("Names() hands out the registry's own slice")
	}
}

func TestAddPanics(t *testing.T) {
	panicText := func(f func()) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		f()
		return ""
	}
	r := &Registry[int]{Pkg: "route", Noun: "protocol"}
	r.Add("dup", 1)
	if got, want := panicText(func() { r.Add("", 2) }), "route: Register with empty protocol name"; got != want {
		t.Fatalf("empty name panicked %q, want %q", got, want)
	}
	if got, want := panicText(func() { r.Add("dup", 2) }), "route: duplicate protocol registration dup"; got != want {
		t.Fatalf("duplicate panicked %q, want %q", got, want)
	}
	if v, _ := r.Get("dup"); v != 1 || len(r.Names()) != 1 {
		t.Fatalf("a refused Add changed the registry: %v", r.Names())
	}
}

// TestAddWhileReading pins the lock-free readers: while Add publishes new
// entries, concurrent Get and Names calls always see the first entries,
// and every registration lands. Run under -race it also checks that a
// published state is never written.
func TestAddWhileReading(t *testing.T) {
	var r Registry[int]
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprint("builtin-", i), i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := r.Get("builtin-0"); !ok {
					t.Error("builtin-0 vanished mid-registration")
					return
				}
				if names := r.Names(); len(names) < 5 || !strings.HasPrefix(names[4], "builtin-") {
					t.Errorf("Names() = %v mid-registration", names)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		r.Add(fmt.Sprint("late-", i), i)
	}
	close(stop)
	wg.Wait()
	if got := len(r.Names()); got != 25 {
		t.Fatalf("%d names registered, want 25", got)
	}
}
