package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestNestedForEachSharesBudget: an inner fan-out launched from inside an
// outer fan-out must not oversubscribe — total concurrently running
// workers stays within the engine width — and must complete (no deadlock
// from pool re-entrancy).
func TestNestedForEachSharesBudget(t *testing.T) {
	const width = 4
	eng := New(Options{Workers: width})
	var cur, peak atomic.Int32
	note := func() {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
	}
	err := eng.ForEach(context.Background(), 8, func(i int) {
		inner := make([]int, 16)
		_ = eng.ForEach(context.Background(), len(inner), func(j int) {
			note()
			for k := 0; k < 1000; k++ { // widen the overlap window
				_ = k * k
			}
			inner[j] = j
			cur.Add(-1)
		})
		for j, v := range inner {
			if v != j {
				t.Errorf("outer %d inner %d: got %d", i, j, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > width {
		t.Errorf("peak concurrent workers %d exceeds engine width %d", p, width)
	}
}

// TestScopeSerialWhenTokensHeld: an outer fan-out as wide as the engine
// holds every spare token until it returns, so a ForEach started inside it
// degrades to serial inline execution — in index order, on one goroutine
// (order is unsynchronized on purpose: -race reports any overlap) — and
// still completes.
func TestScopeSerialWhenTokensHeld(t *testing.T) {
	const width = 4
	eng := New(Options{Workers: width})
	err := eng.ForEach(context.Background(), width, func(outer int) {
		if n := len(eng.spare); n != 0 {
			t.Errorf("outer %d: %d spare tokens while a full-width fan-out runs", outer, n)
		}
		order := make([]int, 0, 10)
		if err := eng.ForEach(context.Background(), 10, func(i int) {
			runtime.Gosched() // let a (wrongly) borrowed worker overtake
			order = append(order, i)
		}); err != nil {
			t.Error(err)
		}
		for i, v := range order {
			if v != i {
				t.Errorf("outer %d: inner fan-out ran out of order: %v", outer, order)
				break
			}
		}
		if len(order) != 10 {
			t.Errorf("outer %d: inner fan-out ran %d of 10 iterations", outer, len(order))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
