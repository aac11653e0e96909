package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/bench/kit"
)

// BENCHMARK.json is what the pipeline holds a change to; the catalogue in
// this package is what the benchmark prints and -compare applies. They must
// say the same.
func TestCatalogueMatchesContract(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []kit.MetricSpec `json:"end_to_end"`
		PerLayer []kit.MetricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n contract %+v\n code     %+v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n contract %+v\n code     %+v", contract.PerLayer, perLayer)
	}
	var names []string
	for _, w := range contract.Workloads {
		names = append(names, w.Name)
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("workload %q has no spec", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code runs %v", names, workloadNames)
	}
	if len(contract.Paths) != 1 || contract.Paths[0] != "bench" {
		t.Errorf("paths %v", contract.Paths)
	}
}
