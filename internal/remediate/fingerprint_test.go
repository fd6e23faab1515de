package remediate

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/failures"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/synth"
	"repro/internal/system"
)

// updateFingerprints regenerates the fingerprint golden:
//
//	go test ./internal/remediate/ -run Fingerprint -update
var updateFingerprints = flag.Bool("update", false, "rewrite the fingerprint golden")

// TestRunFingerprints pins remediate.Run byte for byte: the SHA-256 of
// every Result's JSON over fitted Tsubame-2 (rack-scoped stream) and
// Tsubame-3 (GPU involvement) processes x crews x parts policy x policy x
// prediction accuracy x false-alarm rate. Any change to a draw order, the
// event order or an accumulation order shows up as a changed line.
func TestRunFingerprints(t *testing.T) {
	var lines []string
	for _, sys := range []failures.System{failures.Tsubame2, failures.Tsubame3} {
		profile, err := synth.ProfileFor(sys)
		if err != nil {
			t.Fatal(err)
		}
		log, err := synth.Generate(profile, 42)
		if err != nil {
			t.Fatal(err)
		}
		procs, err := sim.ProcessesFromLog(log, 10)
		if err != nil {
			t.Fatal(err)
		}
		machine, err := system.ForSystem(sys)
		if err != nil {
			t.Fatal(err)
		}
		// Frequent escalations and an empty shelf hold crews for whole
		// part lead times, so the crew and parts axes both bind.
		steps := DefaultSteps()
		steps.ResetFailProb = 0.5
		steps.MaxResets = 1
		for _, crews := range []int{0, 4} {
			for _, parts := range []string{"unlimited", "fixed"} {
				for _, policy := range []string{"reactive", "predictive", "batch"} {
					for _, accuracy := range []float64{0, 0.5} {
						for _, alarms := range []float64{0, 12} {
							p, err := PolicyByName(policy, 168)
							if err != nil {
								t.Fatal(err)
							}
							cfg := Config{
								Nodes:        machine.Nodes,
								NodesPerRack: machine.NodesPerRack,
								HorizonHours: 8760,
								Processes:    procs,
								Crews:        crews,
								Policy:       p,
								Steps:        steps,
								Predictor:    Predictor{Accuracy: accuracy, LeadTimeHours: 24, FalseAlarmsPerYear: alarms},
								Seed:         7,
							}
							if parts == "fixed" {
								fixed, err := spares.NewFixedStock(0, 72)
								if err != nil {
									t.Fatal(err)
								}
								cfg.Parts = fixed
							}
							res, err := Run(cfg)
							if err != nil {
								t.Fatal(err)
							}
							b, err := json.Marshal(res)
							if err != nil {
								t.Fatal(err)
							}
							lines = append(lines, fmt.Sprintf("%s/crews=%d/%s/%s/accuracy=%v/alarms=%v %x",
								sys, crews, parts, policy, accuracy, alarms, sha256.Sum256(b)))
						}
					}
				}
			}
		}
	}

	path := filepath.Join("testdata", "fingerprints.golden")
	got := strings.Join(lines, "\n") + "\n"
	if *updateFingerprints {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d fingerprints, golden has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("fingerprint changed:\n got: %s\nwant: %s", lines[i], wantLines[i])
		}
	}
}
