package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestRungPlanIsDeterministicPerSeed(t *testing.T) {
	a := planRung(7, "rung-40", 40, 500, 32)
	b := planRung(7, "rung-40", 40, 500, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans from seed 7 differ")
	}
	c := planRung(8, "rung-40", 40, 500, 32)
	if reflect.DeepEqual(a.reqs, c.reqs) {
		t.Fatal("seeds 7 and 8 give the same arrivals")
	}
	tenants := [2]int{}
	for i, r := range a.reqs {
		if i > 0 && r.due < a.reqs[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		tenants[r.tenant]++
		if r.tenant == tenantRepeat && (r.key < 0 || r.key >= 32) {
			t.Fatalf("repeat key %d out of range", r.key)
		}
	}
	if tenants[0] < 200 || tenants[1] < 200 {
		t.Errorf("tenant split %v of 500, want about 1:1", tenants)
	}
	// Mean gap of a 40 req/s Poisson stream is 25 ms.
	if gap := a.reqs[len(a.reqs)-1].due / time.Duration(len(a.reqs)); gap < 20*time.Millisecond || gap > 30*time.Millisecond {
		t.Errorf("mean arrival gap %v, want about 25ms", gap)
	}
}

func TestSubmissionsAreDeterministicPerSeed(t *testing.T) {
	a, err := repeatKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := repeatKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("repeat key %d differs between two builds from seed 3", i)
		}
		if want := repeatWorkloads[i%len(repeatWorkloads)]; a[i].req.Workload != want {
			t.Errorf("repeat key %d is %s, want %s: ranks cycle through the workloads", i, a[i].req.Workload, want)
		}
	}
	p := planRung(3, "rung-40", 40, 50, len(a))
	for _, r := range p.reqs {
		if r.tenant != tenantUnique {
			continue
		}
		x, err := r.spec.request()
		if err != nil {
			t.Fatal(err)
		}
		y, err := r.spec.request()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x.body, y.body) || x.nodes < 100 {
			t.Fatalf("unique submission %+v: bodies differ or graph too small (%d nodes)", r.spec, x.nodes)
		}
	}
}

func TestScaleAndSweepInputsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 10^6-node graph")
	}
	build := func() *scaleInputs {
		in := &scaleInputs{buildS: map[string][]float64{}, buildMB: map[string][]float64{}}
		if err := scaleSetup(in); err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := build(), build()
	if !bytes.Equal(a.gaussJSON, b.gaussJSON) {
		t.Error("the Gaussian graph differs between two builds")
	}
	if n := a.mlp.Len(); n != 1_005_959 {
		t.Errorf("deep MLP has %d nodes, want 1,005,959", n)
	}

	var p, q planInputs
	if err := sweepSetup(1, &p); err != nil {
		t.Fatal(err)
	}
	if err := sweepSetup(1, &q); err != nil {
		t.Fatal(err)
	}
	if len(p.plan.Jobs) != len(q.plan.Jobs) || !reflect.DeepEqual(p.nodes, q.nodes) {
		t.Error("two sweep set-ups from seed 1 differ")
	}
	for i := range p.plan.Jobs {
		if p.plan.Jobs[i].Key != q.plan.Jobs[i].Key {
			t.Fatalf("job %d: %v vs %v", i, p.plan.Jobs[i].Key, q.plan.Jobs[i].Key)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the program's metric lists and
// BENCHMARK.json in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []nameUnit) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndNames)
	check("per_layer", spec.PerLayer, perLayerNames())
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
}
