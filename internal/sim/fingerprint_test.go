package sim

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
	"repro/internal/spares"
	"repro/internal/synth"
	"repro/internal/system"
)

// updateFingerprints regenerates the fingerprint golden:
//
//	go test ./internal/sim/ -run Fingerprint -update
var updateFingerprints = flag.Bool("update", false, "rewrite the fingerprint golden")

// fittedFleet fits the failure processes of one system's synthetic log
// and returns them with the machine's fleet shape.
func fittedFleet(t *testing.T, sys failures.System) ([]FailureProcess, system.Machine) {
	t.Helper()
	profile, err := synth.ProfileFor(sys)
	if err != nil {
		t.Fatal(err)
	}
	log, err := synth.Generate(profile, 42)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := ProcessesFromLog(log, 10)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := system.ForSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	return procs, machine
}

// TestRunFingerprints pins sim.Run byte for byte: the SHA-256 of every
// Result's JSON over a matrix of fitted processes (Tsubame-2 with its
// rack-scoped stream, Tsubame-3 with four-card GPU involvement), crew
// counts, parts policies, and the sampled and proactive variants. Any
// change to a draw order, the event order or an accumulation order shows
// up as a changed line.
func TestRunFingerprints(t *testing.T) {
	var lines []string
	for _, sys := range []failures.System{failures.Tsubame2, failures.Tsubame3} {
		procs, machine := fittedFleet(t, sys)
		for _, crews := range []int{0, 4} {
			for _, parts := range []string{"unlimited", "fixed"} {
				for _, variant := range []string{"plain", "sampled", "proactive"} {
					cfg := Config{
						Nodes:        machine.Nodes,
						NodesPerRack: machine.NodesPerRack,
						GPUsPerNode:  failures.GPUsPerNode(sys),
						HorizonHours: 8760,
						Processes:    procs,
						Crews:        crews,
						Seed:         7,
					}
					if parts == "fixed" {
						fixed, err := spares.NewFixedStock(1, 72)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Parts = fixed
					}
					switch variant {
					case "sampled":
						cfg.SampleEveryHours = 24
					case "proactive":
						cfg.Proactive = &ProactiveRecovery{WindowHours: 72, Factor: 0.5}
					}
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines, fingerprintLine(t, fmt.Sprintf("%s/crews=%d/%s/%s", sys, crews, parts, variant), res))
				}
			}
		}
	}
	checkFingerprints(t, lines)
}

// fingerprintLine renders one "name sha256" golden line.
func fingerprintLine(t *testing.T, name string, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %x", name, sha256.Sum256(b))
}

// checkFingerprints compares lines against testdata/fingerprints.golden
// line by line, or rewrites the golden under -update.
func checkFingerprints(t *testing.T, lines []string) {
	t.Helper()
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
