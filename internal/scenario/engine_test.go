package scenario

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func noop(ctx context.Context) (string, error) { return "", nil }

func TestRunOrdersEventsAndDrivesHooks(t *testing.T) {
	e := New(1)
	var order []string
	rec := func(name string) Action {
		return func(ctx context.Context) (string, error) {
			order = append(order, name)
			return "", nil
		}
	}
	// Scheduled out of order; b and c share an instant and must keep
	// insertion order.
	e.At(300*time.Millisecond, "d", rec("d"))
	e.At(100*time.Millisecond, "a", rec("a"))
	e.At(200*time.Millisecond, "b", rec("b"))
	e.At(200*time.Millisecond, "c", rec("c"))

	var advanced time.Duration
	e.OnAdvance = func(ctx context.Context, dt time.Duration) error {
		advanced += dt
		return nil
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c", "d"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order = %v, want %v", order, want)
	}
	if advanced != 300*time.Millisecond {
		t.Fatalf("OnAdvance total = %v, want 300ms", advanced)
	}
	if e.Now() != Epoch.Add(300*time.Millisecond) {
		t.Fatalf("final Now = %v", e.Now())
	}
	tl := e.Timeline()
	if len(tl) != 4 || tl[0].Name != "a" || tl[3].At != 300*time.Millisecond {
		t.Fatalf("timeline = %v", tl)
	}
}

func TestActionSchedulingInPastClampsToNow(t *testing.T) {
	e := New(1)
	var ran []string
	e.At(100*time.Millisecond, "first", func(ctx context.Context) (string, error) {
		// "Earlier" than now from inside the run: clamps, never lost.
		e.At(10*time.Millisecond, "late", func(ctx context.Context) (string, error) {
			ran = append(ran, "late")
			return "", nil
		})
		ran = append(ran, "first")
		return "", nil
	})
	e.At(200*time.Millisecond, "second", func(ctx context.Context) (string, error) {
		ran = append(ran, "second")
		return "", nil
	})
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want := []string{"first", "late", "second"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("order = %v, want %v", ran, want)
	}
	if e.Timeline()[1].At != 100*time.Millisecond {
		t.Fatalf("clamped event at %v, want 100ms", e.Timeline()[1].At)
	}
}

func TestRunStopsOnFirstErrorAndRecordsIt(t *testing.T) {
	e := New(1)
	boom := errors.New("boom")
	e.At(10*time.Millisecond, "ok", noop)
	e.At(20*time.Millisecond, "bad", func(ctx context.Context) (string, error) {
		return "", boom
	})
	reached := false
	e.At(30*time.Millisecond, "never", func(ctx context.Context) (string, error) {
		reached = true
		return "", nil
	})
	err := e.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if reached {
		t.Fatal("event after the failure still ran")
	}
	if tl := e.Timeline(); len(tl) != 2 || tl[1].Name != "bad" {
		t.Fatalf("timeline = %v, want [ok bad]", tl)
	}
}

func TestPoissonTimesDeterministicAndBounded(t *testing.T) {
	horizon := 10 * time.Second
	a := PoissonTimes(New(42).Rand(), time.Second, horizon)
	b := PoissonTimes(New(42).Rand(), time.Second, horizon)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew different processes:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("10s horizon at 1/s mean drew no arrivals")
	}
	last := time.Duration(-1)
	for _, at := range a {
		if at <= last {
			t.Fatalf("arrivals not strictly increasing: %v", a)
		}
		if at >= horizon {
			t.Fatalf("arrival %v past horizon %v", at, horizon)
		}
		last = at
	}
	if c := PoissonTimes(New(7).Rand(), time.Second, horizon); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the identical process")
	}
}
