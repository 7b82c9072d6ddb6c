package digamma

import (
	"testing"
)

func TestLoadModelZoo(t *testing.T) {
	if len(ModelNames) != 7 {
		t.Fatalf("zoo has %d models", len(ModelNames))
	}
	for _, n := range ModelNames {
		m, err := LoadModel(n)
		if err != nil {
			t.Errorf("LoadModel(%s): %v", n, err)
		}
		if m.MACs() <= 0 {
			t.Errorf("%s has no MACs", n)
		}
	}
	if _, err := LoadModel("lenet"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestPlatforms(t *testing.T) {
	e, c := EdgePlatform(), CloudPlatform()
	if e.AreaBudgetMM2 != 0.2 || c.AreaBudgetMM2 != 7.0 {
		t.Errorf("budgets = %g / %g, want 0.2 / 7.0", e.AreaBudgetMM2, c.AreaBudgetMM2)
	}
}

func TestAlgorithmsList(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 9 || algs[len(algs)-1] != "DiGamma" {
		t.Errorf("Algorithms = %v", algs)
	}
}

func TestOptimizeQuick(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	best, err := Optimize(model, EdgePlatform(), Options{Budget: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !best.Valid {
		t.Fatal("no valid design")
	}
	if !EdgePlatform().Fits(best.HW) {
		t.Error("design exceeds budget")
	}
	if best.Cycles <= 0 {
		t.Error("no latency")
	}
}

func TestOptimizeWithBaselineAlgorithm(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	best, err := Optimize(model, EdgePlatform(), Options{Budget: 300, Seed: 2, Algorithm: "DE"})
	if err != nil {
		t.Fatal(err)
	}
	if best == nil {
		t.Fatal("nil evaluation")
	}
	if _, err := Optimize(model, EdgePlatform(), Options{Budget: 10, Algorithm: "Annealing"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestOptimizeMappingFixedHW(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	hw := HW{Fanouts: []int{16, 8}, BufBytes: []int64{4 << 10, 512 << 10}}
	best, err := OptimizeMapping(model, EdgePlatform(), hw, Options{Budget: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if best.HW.Fanouts[0] != 16 || best.HW.Fanouts[1] != 8 {
		t.Errorf("fixed HW changed: %v", best.HW.Fanouts)
	}
}

func TestObjectiveSelection(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	lat, err := Optimize(model, EdgePlatform(), Options{Budget: 200, Seed: 4, Objective: Latency})
	if err != nil {
		t.Fatal(err)
	}
	edp, err := Optimize(model, EdgePlatform(), Options{Budget: 200, Seed: 4, Objective: EDP})
	if err != nil {
		t.Fatal(err)
	}
	if lat.Fitness == edp.Fitness && lat.Valid && edp.Valid {
		t.Log("latency and EDP fitness coincide on this run (possible but unusual)")
	}
}

func TestNewProblemExposed(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(model, EdgePlatform(), Latency)
	if err != nil {
		t.Fatal(err)
	}
	if p.Space.Dim() <= 0 {
		t.Error("empty search space")
	}
}

// TestEDPSearchesReturnValidDesigns: valid EDP values on the larger zoo
// models reach 1e18, so the invalid-design penalty floor must sit above
// every achievable metric — otherwise the search ranks an invalid point
// ahead of every valid one and returns it.
func TestEDPSearchesReturnValidDesigns(t *testing.T) {
	for _, c := range []struct {
		model    string
		platform Platform
	}{
		{"resnet18", EdgePlatform()},
		{"resnet50", EdgePlatform()},
		{"bert", EdgePlatform()},
		{"bert", CloudPlatform()},
	} {
		m, err := LoadModel(c.model)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Optimize(m, c.platform, Options{Budget: 2000, Seed: 1, Objective: EDP})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.model, c.platform.Name, err)
		}
		if !ev.Valid || ev.Fitness != ev.EnergyPJ*ev.Cycles {
			t.Errorf("%s/%s: EDP search returned valid=%t fitness %g (energy×cycles %g)",
				c.model, c.platform.Name, ev.Valid, ev.Fitness, ev.EnergyPJ*ev.Cycles)
		}
	}
}
