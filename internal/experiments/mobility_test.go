package experiments

import (
	"context"
	"os"
	"strconv"
	"testing"
)

// mobilitySeed honors the fault-suite seed plumbing: make test-mobility
// replays the scenario at each FAULT_SEED, and the assertions below are
// seed-robust by construction.
func mobilitySeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("SURFOS_FAULT_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SURFOS_FAULT_SEED=%q: %v", s, err)
		}
		return seed
	}
	return 1
}

// TestMobilityShape runs the churn scenario and checks every hardening
// claim: per-region trace survival, no failures, handoff with zero loss.
func TestMobilityShape(t *testing.T) {
	seed := mobilitySeed(t)
	r, err := RunMobility(context.Background(), Quick, seed)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.ShapeCheck(); s != "" {
		t.Fatalf("seed %d: %s\n%s", seed, s, r.Render())
	}
	if r.Replans == 0 || len(r.Timeline) == 0 {
		t.Fatalf("seed %d: empty run: %+v", seed, r)
	}
}

// TestMobilityGoldenPerSeed pins determinism: the same seed must replay
// a byte-identical rendered timeline, and a different seed must not.
func TestMobilityGoldenPerSeed(t *testing.T) {
	seed := mobilitySeed(t)
	ctx := context.Background()
	a, err := RunMobility(ctx, Quick, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMobility(ctx, Quick, seed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("seed %d replay diverged:\n--- first ---\n%s\n--- second ---\n%s", seed, a.Render(), b.Render())
	}
	c, err := RunMobility(ctx, Quick, seed+100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() == c.Render() {
		t.Fatalf("seeds %d and %d produced identical timelines — RNG not wired through", seed, seed+100)
	}
}
