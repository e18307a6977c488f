package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json at the repository
// root in step with the metrics this program prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range doc.EndToEnd {
		listed["e2e/"+m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		listed["layer/"+m.Name] = m.Unit
	}
	specs := metricSpecs()
	for _, sp := range specs {
		key := "layer/" + sp.name
		if sp.endToEnd {
			key = "e2e/" + sp.name
		}
		unit, ok := listed[key]
		if !ok {
			t.Errorf("%s is printed but not listed in BENCHMARK.json", key)
		} else if unit != sp.unit {
			t.Errorf("%s: BENCHMARK.json unit %q, printed unit %q", key, unit, sp.unit)
		}
		delete(listed, key)
	}
	for key := range listed {
		t.Errorf("%s is listed in BENCHMARK.json but never printed", key)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
}
