// Package e2e black-box tests the command-line tools: every binary is
// compiled once per test run, then driven through os/exec the way a user
// would drive it — golden stdout on committed traces for the analysis
// tools, exit-code and usage contracts on bad flags, and a real
// conformance run. Regenerate goldens with:
//
//	go test ./e2e -run TestGolden -update
package e2e

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// tools is every command under cmd/, compiled once by TestMain.
var tools = []string{
	"tsubame-analyze",
	"tsubame-anonymize",
	"tsubame-benchcheck",
	"tsubame-conform",
	"tsubame-convert",
	"tsubame-diff",
	"tsubame-digest",
	"tsubame-fit",
	"tsubame-gen",
	"tsubame-remediate",
	"tsubame-report",
	"tsubame-serve",
	"tsubame-sim",
	"tsubame-sweep",
}

var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "tsubame-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	binDir = dir
	// One `go build` invocation compiles the whole tool suite; per-binary
	// builds would redo shared-package work ten times.
	args := append([]string{"build", "-o", binDir + string(os.PathSeparator)}, packages()...)
	build := exec.Command("go", args...)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2e: building tools:", err)
		os.RemoveAll(binDir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

func packages() []string {
	pkgs := make([]string, len(tools))
	for i, t := range tools {
		pkgs[i] = "repro/cmd/" + t
	}
	return pkgs
}

func bin(tool string) string { return filepath.Join(binDir, tool) }

// run executes a tool and returns stdout, stderr, and the exit code.
func run(t *testing.T, tool string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin(tool), args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	err := cmd.Run()
	code = 0
	if err != nil {
		exitErr, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %s: %v", tool, strings.Join(args, " "), err)
		}
		code = exitErr.ExitCode()
	}
	return out.String(), errBuf.String(), code
}

// TestGoldenOutputs pins the full stdout of the reporting tools on the
// committed seed-42 Tsubame-2 trace. The generators are pure functions of
// (profile, seed), so these goldens are stable across machines; a diff
// means the analysis or rendering pipeline changed behavior.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		name string
		tool string
		args []string
	}{
		{"analyze", "tsubame-analyze", []string{"-in", "testdata/t2-seed42.csv", "-parallel", "1"}},
		{"report", "tsubame-report", []string{"-seed", "42"}},
		{"digest", "tsubame-digest", []string{"-in", "testdata/t2-seed42.csv", "-days", "30"}},
		{"diff", "tsubame-diff", []string{"-before", "testdata/t2-before.csv", "-after", "testdata/t2-after.csv"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := run(t, c.tool, c.args...)
			if code != 0 {
				t.Fatalf("%s exited %d\nstderr: %s", c.tool, code, stderr)
			}
			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if stdout != string(want) {
				t.Fatalf("%s output diverged from %s (regenerate with -update if intended)\n got %d bytes, want %d bytes\nfirst divergence: %s",
					c.tool, golden, len(stdout), len(want), firstDiff(string(want), stdout))
			}
		})
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}

// TestBadFlagsExitTwo pins the usage contract of every tool: invalid
// flag values exit with status 2 (the conventional usage-error code) and
// print usage to stderr.
func TestBadFlagsExitTwo(t *testing.T) {
	cases := []struct {
		tool string
		args []string
		want string // when set, stderr must name this flag
	}{
		{"tsubame-analyze", []string{"-parallel", "-1"}, ""},
		{"tsubame-anonymize", []string{"-in", "testdata/t2-seed42.csv"}, ""}, // missing -key
		{"tsubame-benchcheck", nil, ""},                                      // missing subcommand
		{"tsubame-conform", []string{"-seeds", "0"}, ""},
		{"tsubame-convert", []string{"-in", "testdata/t2-seed42.csv"}, ""}, // stdout needs -format
		{"tsubame-diff", []string{"-alpha", "2"}, ""},
		{"tsubame-digest", []string{"-days", "0"}, ""},
		{"tsubame-fit", []string{"-min", "0"}, ""},
		{"tsubame-gen", []string{"-runs", "0"}, ""},
		{"tsubame-remediate", []string{"-policies", "paint"}, ""}, // unknown policy
		{"tsubame-report", []string{"-bogus"}, ""},                // unknown flag
		{"tsubame-serve", []string{"-max-body", "0"}, ""},
		{"tsubame-sim", []string{"-trials", "0"}, ""},
		{"tsubame-sweep", []string{"-seeds", "0"}, ""}, // also missing -out
		// Non-finite values that used to run until killed.
		{"tsubame-sim", []string{"-horizon", "Inf"}, "-horizon"},
		{"tsubame-remediate", []string{"-horizon", "Inf"}, "-horizon"},
		{"tsubame-remediate", []string{"-false-alarms", "Inf"}, "-false-alarms"},
		{"tsubame-sweep", []string{"-horizon", "Inf", "-out", filepath.Join(os.TempDir(), "tsubame-sweep-inf")}, "-horizon"},
	}
	for _, c := range cases {
		t.Run(c.tool, func(t *testing.T) {
			stdout, stderr, code := run(t, c.tool, c.args...)
			if code != 2 {
				t.Fatalf("%s %s exited %d, want 2\nstdout: %s\nstderr: %s",
					c.tool, strings.Join(c.args, " "), code, stdout, stderr)
			}
			if !strings.Contains(strings.ToLower(stderr), "usage") {
				t.Fatalf("%s did not print usage on bad flags:\n%s", c.tool, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("%s %s: stderr does not name %s:\n%s", c.tool, strings.Join(c.args, " "), c.want, stderr)
			}
		})
	}
}

// TestConformCLI runs a real conformance evaluation through the binary
// at the canonical 32-seed configuration (the tolerance bands are tuned
// for it): the shipped calibration must pass and produce a JSON report.
func TestConformCLI(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "report.json")
	stdout, stderr, code := run(t, "tsubame-conform", "-system", "t2", "-out", outPath)
	if code != 0 {
		t.Fatalf("conform exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "PASS") {
		t.Fatalf("expected PASS summary, got: %s", stdout)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"checks"`)) || !bytes.Contains(data, []byte(`"anchor"`)) {
		t.Fatal("JSON report is missing checks/anchor fields")
	}
}

// TestGenAnalyzePipeline round-trips a generated trace through a file
// into the analyzer, the canonical two-step workflow of the README.
func TestGenAnalyzePipeline(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t3.csv")
	_, stderr, code := run(t, "tsubame-gen", "-system", "t3", "-seed", "7", "-out", trace)
	if code != 0 {
		t.Fatalf("gen exited %d: %s", code, stderr)
	}
	stdout, stderr, code := run(t, "tsubame-analyze", "-in", trace, "-parallel", "1")
	if code != 0 {
		t.Fatalf("analyze exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Tsubame-3") {
		t.Fatalf("analyze output does not mention the system:\n%s", stdout)
	}
}

// TestSweepCLI runs a tiny grid through the sweep driver and pins the
// merged NDJSON report against a committed golden: the evaluator is a
// pure function of (grid, params), so the report bytes are stable across
// machines and worker counts. It also pins the dirty-directory refusal.
func TestSweepCLI(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-out", dir, "-systems", "t2", "-ckpt-intervals", "0,24",
		"-spares", "-1,1", "-accuracy", "0,0.5", "-seeds", "2",
		"-horizon", "500", "-parallel", "2",
	}
	stdout, stderr, code := run(t, "tsubame-sweep", args...)
	if code != 0 {
		t.Fatalf("sweep exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "Swept 16 cells") {
		t.Fatalf("unexpected sweep summary:\n%s", stdout)
	}
	report, err := os.ReadFile(filepath.Join(dir, "SWEEP_report.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sweep.golden")
	if *update {
		if err := os.WriteFile(golden, report, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if !bytes.Equal(report, want) {
			t.Fatalf("sweep report diverged from %s (regenerate with -update if intended)\nfirst divergence: %s",
				golden, firstDiff(string(want), string(report)))
		}
	}
	// A second run into the same directory without -resume must refuse
	// rather than interleave two sweeps' shards.
	_, stderr, code = run(t, "tsubame-sweep", args...)
	if code != 1 || !strings.Contains(stderr, "resume") {
		t.Fatalf("dirty-directory re-run: exit %d, stderr %q; want exit 1 mentioning resume", code, stderr)
	}
}

// TestRemediateCLI runs a small policy comparison through the binary and
// pins the JSON report against a committed golden. The comparison is a
// pure function of (flags, seed), so the bytes are stable across
// machines; a second run at a different worker count must reproduce them
// exactly (the determinism contract of the report).
func TestRemediateCLI(t *testing.T) {
	args := []string{
		"-system", "t2", "-seeds", "2", "-horizon", "1000",
		"-accuracy", "0.5", "-spares", "fixed", "-stock", "2",
	}
	stdout, stderr, code := run(t, "tsubame-remediate", args...)
	if code != 0 {
		t.Fatalf("remediate exited %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "winner") {
		t.Fatalf("summary line does not name a winner:\n%s", stderr)
	}
	golden := filepath.Join("testdata", "remediate.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if stdout != string(want) {
			t.Fatalf("remediate report diverged from %s (regenerate with -update if intended)\nfirst divergence: %s",
				golden, firstDiff(string(want), stdout))
		}
	}
	again, _, code := run(t, "tsubame-remediate", append(args, "-workers", "3")...)
	if code != 0 {
		t.Fatalf("second remediate run exited %d", code)
	}
	if again != stdout {
		t.Fatal("report bytes differ across worker counts; the comparison is not deterministic")
	}
}

// TestAnonymizeRoundTrip scrubs the committed trace and re-analyzes it:
// the anonymized log must still parse and carry the same record count.
func TestAnonymizeRoundTrip(t *testing.T) {
	scrubbed := filepath.Join(t.TempDir(), "anon.csv")
	_, stderr, code := run(t, "tsubame-anonymize",
		"-in", "testdata/t2-seed42.csv", "-out", scrubbed, "-key", "e2e")
	if code != 0 {
		t.Fatalf("anonymize exited %d: %s", code, stderr)
	}
	orig, err := os.ReadFile("testdata/t2-seed42.csv")
	if err != nil {
		t.Fatal(err)
	}
	anon, err := os.ReadFile(scrubbed)
	if err != nil {
		t.Fatal(err)
	}
	if o, a := bytes.Count(orig, []byte("\n")), bytes.Count(anon, []byte("\n")); o != a {
		t.Fatalf("anonymization changed the record count: %d lines != %d lines", a, o)
	}
	if bytes.Contains(anon, []byte("n0176")) {
		t.Fatal("anonymized trace still contains an original node ID")
	}
}
