// Command surfos-bench regenerates the tables and figures of the SurfOS
// paper's evaluation section (§4) and prints them to stdout.
//
// Usage:
//
//	surfos-bench [-exp table1|fig2|fig4|fig5|fig6|chaos|restart|failover|mobility|all] [-profile quick|full]
//
// The quick profile (default) shrinks grids and surfaces so the whole
// suite runs in seconds while preserving the shapes the paper reports;
// the full profile runs at paper-like fidelity and takes minutes.
//
// The mobility experiment (churn scenario: walking users, Poisson task
// arrivals, wall toggles, per-domain re-plans) renders a deterministic
// per-seed timeline, so `all` includes it. Performance is not measured
// here: BENCHMARK.json (`go run ./bench/loop`) is the bench record.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"surfos/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, fig2, fig4, fig5, fig6, chaos, restart, failover, mobility, or all")
	profileName := flag.String("profile", "quick", "workload profile: quick or full")
	flag.Parse()

	var profile experiments.Profile
	switch strings.ToLower(*profileName) {
	case "quick":
		profile = experiments.Quick
	case "full":
		profile = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "surfos-bench: unknown profile %q\n", *profileName)
		os.Exit(2)
	}

	// ^C cancels the running experiment; optimizers stop at their best
	// configuration so far and the suite reports the ctx error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runners := map[string]func() (string, error){
		"table1": func() (string, error) { return experiments.RunTable1().Render(), nil },
		"fig6":   func() (string, error) { return experiments.RunFig6().Render(), nil },
		"fig2": func() (string, error) {
			r, err := experiments.RunFig2(ctx, profile)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"fig4": func() (string, error) {
			r, err := experiments.RunFig4(ctx, profile)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"fig5": func() (string, error) {
			r, err := experiments.RunFig5(ctx, profile)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"chaos": func() (string, error) {
			r, err := experiments.RunChaos(ctx, profile)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"restart": func() (string, error) {
			r, err := experiments.RunRestart(ctx, profile)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"failover": func() (string, error) {
			r, err := experiments.RunFailover(ctx, profile)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"mobility": func() (string, error) {
			r, err := experiments.RunMobility(ctx, profile, 1)
			if err != nil {
				return "", err
			}
			if s := r.ShapeCheck(); s != "" {
				return "", fmt.Errorf("shape check failed: %s", s)
			}
			return r.Render(), nil
		},
	}
	order := []string{"table1", "fig2", "fig4", "fig5", "fig6", "chaos", "restart", "failover", "mobility"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		if _, ok := runners[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "surfos-bench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		selected = []string{*exp}
	}

	failed := false
	for _, name := range selected {
		start := time.Now()
		out, err := runners[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "surfos-bench: %s: %v\n", name, err)
			failed = true
			continue
		}
		fmt.Printf("==== %s (%s profile, %v) ====\n\n%s\n", name, profile, time.Since(start).Round(time.Millisecond), out)
	}
	if failed {
		os.Exit(1)
	}
}
