package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles this command into a temp dir and returns the binary
// path.
func buildCmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ressclc")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeCompile runs the compiler end to end on the shipped ring
// AllReduce program: exit 0, non-empty report, correctness verified.
func TestSmokeCompile(t *testing.T) {
	bin := buildCmd(t)
	src := filepath.Join("..", "..", "examples", "algorithms", "ring-allreduce.rcl")
	out, err := exec.Command(bin, "-in", src, "-nodes", "1", "-gpus", "8").CombinedOutput()
	if err != nil {
		t.Fatalf("ressclc failed: %v\n%s", err, out)
	}
	s := string(out)
	if len(strings.TrimSpace(s)) == 0 {
		t.Fatal("empty output")
	}
	for _, want := range []string{"Ring-AR", "verified", "schedule:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestSmokeSimulateAndExecute exercises the -simulate and -execute
// paths, which drive the simulator and the data-plane runtime.
func TestSmokeSimulateAndExecute(t *testing.T) {
	bin := buildCmd(t)
	src := filepath.Join("..", "..", "examples", "algorithms", "ring-allreduce.rcl")
	out, err := exec.Command(bin, "-in", src, "-nodes", "1", "-gpus", "8",
		"-simulate", "16MiB", "-execute", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("ressclc failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "simulation") && !strings.Contains(string(out), "completion") {
		t.Fatalf("no simulation output:\n%s", out)
	}
}

// TestSmokePlanRoundTrip saves a plan file and loads it back.
func TestSmokePlanRoundTrip(t *testing.T) {
	bin := buildCmd(t)
	src := filepath.Join("..", "..", "examples", "algorithms", "ring-allreduce.rcl")
	plan := filepath.Join(t.TempDir(), "plan.json")
	if out, err := exec.Command(bin, "-in", src, "-nodes", "1", "-gpus", "8", "-out", plan).CombinedOutput(); err != nil {
		t.Fatalf("save: %v\n%s", err, out)
	}
	if fi, err := os.Stat(plan); err != nil || fi.Size() == 0 {
		t.Fatalf("plan file missing or empty: %v", err)
	}
	out, err := exec.Command(bin, "-plan", plan, "-simulate", "16MiB").CombinedOutput()
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out)
	}
	if len(strings.TrimSpace(string(out))) == 0 {
		t.Fatal("empty output from loaded plan")
	}
}

// TestVetExitCodes pins the -vet exit convention: 0 on a clean plan, 3
// when -strict promotes a budget warning, and 3 on a saved plan whose
// thread-block program was reordered into a deadlock.
func TestVetExitCodes(t *testing.T) {
	bin := buildCmd(t)
	exitCode := func(args ...string) (int, string) {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode(), string(out)
		}
		if err != nil {
			t.Fatalf("ressclc %v: %v", args, err)
		}
		return 0, string(out)
	}
	ring := []string{"-algo", "ring-allreduce", "-nodes", "1", "-gpus", "8"}

	if code, out := exitCode(append(ring, "-vet")...); code != 0 {
		t.Fatalf("clean registry plan: exit %d, want 0\n%s", code, out)
	}
	if code, out := exitCode(append(ring, "-vet", "-strict", "-budget", "1")...); code != 3 || !strings.Contains(out, "budget-tb") {
		t.Fatalf("-strict -budget 1: exit %d, want 3 with a budget-tb warning\n%s", code, out)
	}

	plan := filepath.Join(t.TempDir(), "plan.json")
	if code, out := exitCode(append(ring, "-out", plan)...); code != 0 {
		t.Fatalf("save: exit %d\n%s", code, out)
	}
	data, err := os.ReadFile(plan)
	if err != nil {
		t.Fatal(err)
	}
	var pf map[string]any
	if err := json.Unmarshal(data, &pf); err != nil {
		t.Fatal(err)
	}
	// Swapping the first two slots of a thread block makes it wait on
	// a rendezvous its peer only reaches after this block's second one.
	swapped := false
	for _, tb := range pf["tbs"].([]any) {
		slots := tb.(map[string]any)["slots"].([]any)
		if len(slots) >= 2 {
			slots[0], slots[1] = slots[1], slots[0]
			swapped = true
			break
		}
	}
	if !swapped {
		t.Fatal("no thread block with two slots to reorder")
	}
	if data, err = json.Marshal(pf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(plan, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := exitCode("-plan", plan, "-vet"); code != 3 || !strings.Contains(out, "deadlock") {
		t.Fatalf("deadlocked plan: exit %d, want 3 with a deadlock error\n%s", code, out)
	}

	// A profile no cost model can price is refused at load time, before
	// vet could report the plan clean.
	pf["topology"].(map[string]any)["profile"].(map[string]any)["tbCapIntra"] = 0
	if data, err = json.Marshal(pf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(plan, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := exitCode("-plan", plan, "-vet"); code != 1 || !strings.Contains(out, "tbCapIntra") {
		t.Fatalf("zero tbCapIntra: exit %d, want 1 with an error naming the field\n%s", code, out)
	}
}
