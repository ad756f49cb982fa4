package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hybridmem/internal/mm"
	"hybridmem/internal/sim"
)

// goldenGridPath holds the raw simulation counts of every (workload, policy)
// row of the scale-0.005 grid, the scale CI's artifact-determinism step
// replays. A change to any policy's behaviour shows up here as a diff and
// must update the file on purpose.
const goldenGridPath = "testdata/grid_counts_scale0.005.json"

// goldenRow is one grid row of the golden file.
type goldenRow struct {
	ID      string       `json:"id"`
	Counts  sim.Counts   `json:"counts"`
	NVMWear mm.WearStats `json:"nvm_wear"`
}

// goldenGrid runs the scale-0.005 grid and renders it in the golden
// file's format.
func goldenGrid(t *testing.T) []byte {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale = 0.005
	runs, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	for _, run := range runs {
		for _, id := range StandardPolicies() {
			r := run.Results[id]
			rows = append(rows, goldenRow{
				ID:      run.Workload.Name + "/" + string(id),
				Counts:  r.Counts,
				NVMWear: r.NVMWear,
			})
		}
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenGridCounts pins every count of the scale-0.005 grid. On a
// deliberate behaviour change, replace the golden file with the output
// this test logs.
func TestGoldenGridCounts(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(goldenGridPath))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenGrid(t)
	if bytes.Equal(got, want) {
		return
	}
	var gotRows, wantRows []goldenRow
	if err := json.Unmarshal(want, &wantRows); err != nil {
		t.Fatalf("%s: %v", goldenGridPath, err)
	}
	if err := json.Unmarshal(got, &gotRows); err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != len(wantRows) {
		t.Errorf("grid has %d rows, golden file %d", len(gotRows), len(wantRows))
	}
	for i := 0; i < len(gotRows) && i < len(wantRows); i++ {
		if gotRows[i] != wantRows[i] {
			t.Errorf("row %d differs:\n got  %+v\n want %+v", i, gotRows[i], wantRows[i])
		}
	}
	t.Logf("current grid counts (%s):\n%s", goldenGridPath, got)
}
