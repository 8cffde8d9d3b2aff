// Hybrid deployment (the paper's Figure 4 scenario): a large, cheap
// passive panel relays the AP's beam as a narrow backhaul to a small
// programmable panel, which dynamically re-steers it to users around the
// room. The example compares per-user SNR for the bare room, the passive
// panel alone, and the hybrid.
package main

import (
	"context"
	"fmt"
	"log"

	"surfos"
)

// passiveSheet defines the passive design through the driver-generation
// path (a datasheet in, a registered driver out).
const passiveSheet = `
model: PassiveMirror24-demo
reference: AutoMS-class passive reflector
band: 23-25 GHz
control: phase
mode: reflective
granularity: fixed
bits: 2
cost_per_element: 0.01
fixed_cost: 15
efficiency: 0.7
`

func main() {
	ctx := context.Background()
	apt := surfos.NewApartment()
	hw := surfos.NewHardware()

	passiveSpec, err := surfos.GenerateSpec(passiveSheet)
	if err != nil {
		log.Fatal(err)
	}

	// Large passive backhaul panel on the east wall, small programmable
	// panel deeper in the room.
	if _, err := surfos.DeploySpec(hw, "backhaul", passiveSpec,
		apt.Mounts[surfos.MountEastWall], 48, 48); err != nil {
		log.Fatal(err)
	}
	if _, err := surfos.Deploy(hw, "steer", surfos.ModelNRSurface,
		apt.Mounts[surfos.MountNorthWall], 8, 32); err != nil {
		log.Fatal(err)
	}
	if err := hw.AddAP(&surfos.AccessPoint{
		ID: "ap0", Pos: apt.AP, FreqHz: 24e9,
		Budget: surfos.DefaultBudget(), Antennas: 16,
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("deployment: %d surfaces, total cost $%.0f, total area %.3f m²\n",
		len(hw.Surfaces()), hw.TotalCostUSD(), hw.TotalAreaM2())

	// The orchestrator models surface-to-surface interaction (Cascade) so
	// the two panels collaborate through the shared medium.
	orch, err := surfos.NewOrchestrator(apt.Scene, hw, surfos.Options{Cascade: true})
	if err != nil {
		log.Fatal(err)
	}

	// Three users spread across the bedroom, served in this order: the first
	// plan fabricates the passive backhaul, the others steer around it.
	users := []struct {
		name string
		pos  surfos.Vec3
	}{
		{"tablet", surfos.V(1.2, 6.2, 1.2)},
		{"laptop", surfos.V(3.5, 5.0, 1.2)},
		{"headset", surfos.V(6.0, 6.4, 1.2)},
	}
	for _, u := range users {
		task, err := orch.EnhanceLink(ctx, surfos.LinkGoal{Endpoint: u.name, Pos: u.pos, MinSNRdB: 10}, 1)
		if err != nil {
			log.Fatal(err)
		}
		if err := orch.Reconcile(ctx); err != nil {
			log.Fatal(err)
		}
		got, _ := orch.Task(task.ID)
		fmt.Printf("user %-8s SNR %.1f dB via %v (%s)\n",
			u.name, got.Result.Metric, got.Result.Surfaces, got.Result.Strategy)
		if err := orch.EndTask(task.ID); err != nil {
			log.Fatal(err)
		}
	}

	// Hardware heterogeneity summary, Table 1 style.
	fmt.Println("\nhardware inventory:")
	for _, dev := range hw.Surfaces() {
		spec := dev.Drv.Spec()
		fmt.Printf("  %-9s %-22s reconfigurable=%-5v granularity=%-12v $%.0f\n",
			dev.ID, spec.Model, spec.Reconfigurable, spec.Granularity, dev.Drv.CostUSD())
	}
}
