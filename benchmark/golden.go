package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenJSON holds the reference values the workloads check at the
// default seed. Regenerate an entry with
//
//	rejuvbench --workload <name> --seed 1 --update-golden benchmark/golden.json
//
// only when a change is meant to alter simulated results or journal
// bytes, and say so in the change.
//
//go:embed golden.json
var goldenJSON []byte

// golden is the committed reference data.
type golden struct {
	// Seed is the seed the values were recorded at.
	Seed  uint64      `json:"seed"`
	Fleet fleetGolden `json:"fleet_ingest"`
	Sim   simGolden   `json:"sim_sweep"`
}

// fleetGolden pins the fleet journal of the check phase.
type fleetGolden struct {
	JournalSHA256 string `json:"journal_sha256"`
	Records       uint64 `json:"records"`
}

// simGolden pins the check replications and the cluster journal.
type simGolden struct {
	Results              []simResult `json:"results"`
	ClusterJournalSHA256 string      `json:"cluster_journal_sha256"`
}

// simResult is one replication's Result, floats rendered exactly.
type simResult struct {
	Config        string `json:"config"`
	Arrived       int64  `json:"arrived"`
	Completed     int64  `json:"completed"`
	Lost          int64  `json:"lost"`
	Rejuvenations int64  `json:"rejuvenations"`
	GCs           int64  `json:"gcs"`
	SimTime       string `json:"sim_time"`
	AvgRT         string `json:"avg_rt"`
}

// loadGolden decodes the embedded reference values.
func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decoding golden.json: %w", err)
	}
	if g.Seed != defaultSeed {
		return nil, fmt.Errorf("golden.json was recorded at seed %d, want %d", g.Seed, defaultSeed)
	}
	return &g, nil
}

// saveGolden writes the reference values to path.
func saveGolden(path string, g *golden) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
