package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestChaosListAndErrors covers the catalog listing and the argument
// error paths.
func TestChaosListAndErrors(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"chaos", "list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"burst-due", "dead-monitor", "virus-transient", "flaky-disk"} {
		if !strings.Contains(out, name) {
			t.Errorf("chaos list missing %q:\n%s", name, out)
		}
	}
	if err := run([]string{"chaos"}); err == nil {
		t.Error("bare chaos should fail")
	}
	if err := run([]string{"chaos", "no-such-scenario"}); err == nil ||
		!strings.Contains(err.Error(), "burst-due") {
		t.Errorf("unknown scenario error should list valid names, got %v", err)
	}
}

// TestChaosRunByteIdentical runs the same scenario twice and requires
// byte-for-byte identical reports — the CLI surface of the injector's
// determinism contract. The scenario is shortened so the fault windows
// still land but the test stays quick.
func TestChaosRunByteIdentical(t *testing.T) {
	args := []string{"chaos", "dead-monitor", "-seconds", "0.35"}
	first, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	second, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("chaos runs differ:\n--- first\n%s--- second\n%s", first, second)
	}
	if !strings.Contains(first, "fail-safe=[0 2]") {
		t.Fatalf("dead-monitor report missing fail-safe domains:\n%s", first)
	}
	if !strings.Contains(first, "apply monitor-stuck-zero domain 0") {
		t.Fatalf("dead-monitor report missing event log:\n%s", first)
	}
}

// TestChaosCustomPlanStorePath runs a -plan file with journal faults
// and checks the store plane's report: retried commits and a clean
// replay.
func TestChaosCustomPlanStorePath(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(plan, []byte(`{"seed":5,"faults":[{"kind":"store-error","start":2,"duration":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"chaos", "-plan", plan, "-seed", "9", "-seconds", "0.05"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "retried commit points; clean replay with 1 chip records") {
		t.Fatalf("store-plane report missing or replay failed:\n%s", out)
	}
	if !strings.Contains(out, "chip 9: ticks=50") {
		t.Fatalf("seed override not applied:\n%s", out)
	}
}

// TestChaosNetQuarantineByteIdentical runs a network-plane scenario
// through the CLI twice: a loopback cluster whose only worker is
// quarantined by a partitioned first dispatch and revived by the
// half-open probe once its gate opens. Both reports must match byte
// for byte and say the merged results match the single-node bytes.
func TestChaosNetQuarantineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster test")
	}
	args := []string{"chaos", "net-quarantine"}
	first, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	second, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("chaos runs differ:\n--- first\n%s--- second\n%s", first, second)
	}
	for _, want := range []string{"1 quarantines", "healthy (6 chips done)", "cluster results byte-identical to the single-node run"} {
		if !strings.Contains(first, want) {
			t.Fatalf("net-quarantine report missing %q:\n%s", want, first)
		}
	}
}
