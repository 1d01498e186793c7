package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ssb"
	"repro/internal/workload"
)

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("1, 2,8")
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 8}) {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := parseIntList("1,x"); err == nil {
		t.Error("bad element must fail")
	}
}

func TestParseFloatList(t *testing.T) {
	got, err := parseFloatList("0.02, 1")
	if err != nil || !reflect.DeepEqual(got, []float64{0.02, 1}) {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := parseFloatList("0.1,?"); err == nil {
		t.Error("bad element must fail")
	}
}

func TestParseTemplate(t *testing.T) {
	for _, tpl := range ssb.AllTemplates {
		got, err := parseTemplate(tpl.String())
		if err != nil || got != tpl {
			t.Errorf("round-trip of %s failed: %v %v", tpl, got, err)
		}
	}
	if got, err := parseTemplate("q4.3"); err != nil || got != ssb.Q4_3 {
		t.Errorf("case-insensitive parse failed: %v %v", got, err)
	}
	if _, err := parseTemplate("Q9.9"); err == nil {
		t.Error("unknown template must fail")
	}
}

func TestParseResidency(t *testing.T) {
	cases := map[string]workload.Residency{
		"":       workload.DefaultResidency,
		"memory": workload.MemoryResident,
		"disk":   workload.DiskResident,
		"DISK":   workload.DiskResident,
	}
	for in, want := range cases {
		got, err := parseResidency(in)
		if err != nil || got != want {
			t.Errorf("parseResidency(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseResidency("tape"); err == nil {
		t.Error("unknown residency must fail")
	}
}

func TestParseScenarios(t *testing.T) {
	all, err := parseScenarios("all")
	if err != nil || len(all) != len(scenarioNames) {
		t.Fatalf("all = %v, %v", all, err)
	}
	got, err := parseScenarios("1, 4p")
	if err != nil || !reflect.DeepEqual(got, map[string]bool{"1": true, "4p": true}) {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, bad := range []string{"9", "1,9", "", "IV"} {
		if _, err := parseScenarios(bad); err == nil {
			t.Errorf("parseScenarios(%q) must fail", bad)
		}
	}
}

// TestUnknownScenarioExitsWithUsage runs main in a child process: an
// unknown -scenario must print usage and exit 2 before running anything.
func TestUnknownScenarioExitsWithUsage(t *testing.T) {
	if os.Getenv("SHAREBENCH_RUN_MAIN") == "1" {
		os.Args = []string{"sharebench", "-scenario", "9"}
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownScenarioExitsWithUsage$")
	cmd.Env = append(os.Environ(), "SHAREBENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown scenario "9"`) || !strings.Contains(string(out), "-scenario") {
		t.Fatalf("output lacks the error and usage:\n%s", out)
	}
}
