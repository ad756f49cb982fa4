package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json, which declares
// the metrics, and the lists the benchmark prints from in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q does not exist", w.Name)
		}
	}
}
