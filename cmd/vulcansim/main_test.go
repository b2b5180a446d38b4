package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vulcan"
)

func TestBuildFaultPlan(t *testing.T) {
	cases := []struct {
		name    string
		profile string
		rate    float64
		seed    uint64
		armed   bool
		wantErr string
	}{
		{name: "all off", profile: "", rate: 0, armed: false},
		{name: "explicit off", profile: "off", rate: 0, armed: false},
		{name: "profile", profile: "moderate", rate: 0, armed: true},
		{name: "rate", profile: "", rate: 0.05, armed: true},
		{name: "rate with explicit off", profile: "off", rate: 0.05, armed: true},
		{name: "rate and seed", profile: "", rate: 0.05, seed: 9, armed: true},
		{name: "unknown profile", profile: "catastrophic", wantErr: "catastrophic"},
		{name: "profile and rate clash", profile: "light", rate: 0.05, wantErr: "mutually exclusive"},
		{name: "rate above one", rate: 1.5, wantErr: "out of range"},
		{name: "negative rate", rate: -0.1, wantErr: "out of range"},
		{name: "orphan fault seed", seed: 42, wantErr: "no effect"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := buildFaultPlan(tc.profile, tc.rate, tc.seed)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if plan.Armed() != tc.armed {
				t.Fatalf("armed = %v, want %v", plan.Armed(), tc.armed)
			}
			if tc.seed != 0 && plan.Seed != tc.seed {
				t.Fatalf("plan.Seed = %d, want %d", plan.Seed, tc.seed)
			}
			if plan != nil {
				if err := plan.Validate(); err != nil {
					t.Fatalf("built plan fails validation: %v", err)
				}
			}
		})
	}
}

func TestBuildRecorder(t *testing.T) {
	cases := []struct {
		name                         string
		traceOut, metricsOut, filter string
		wantRec                      bool
		wantErr                      []string
	}{
		{name: "no telemetry flags", wantRec: false},
		{name: "trace only", traceOut: "t.json", wantRec: true},
		{name: "metrics only", metricsOut: "m.csv", wantRec: true},
		{name: "valid filter", filter: "migrate-sync,tlb-shootdown", wantRec: true},
		{name: "filter with spaces", filter: " epoch , migrate-sync ", wantRec: true},
		{
			name:   "unknown event type",
			filter: "migrate-sync,flux-capacitor",
			// The error must name the bad type AND list the known ones so
			// the user can fix the flag without reading source.
			wantErr: []string{"-obs-filter", "flux-capacitor", "known:", "migrate-sync"},
		},
		{
			name:     "unknown type with trace flag",
			traceOut: "t.json",
			filter:   "nope",
			wantErr:  []string{"nope", "known:"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := buildRecorder(tc.traceOut, tc.metricsOut, tc.filter)
			if len(tc.wantErr) > 0 {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				for _, sub := range tc.wantErr {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("error %q missing substring %q", err, sub)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (rec != nil) != tc.wantRec {
				t.Fatalf("recorder = %v, want present=%v", rec, tc.wantRec)
			}
		})
	}
}

func TestBuildCostProfiler(t *testing.T) {
	if p := buildCostProfiler(costFlags{}); p != nil {
		t.Fatalf("no cost flags: profiler = %v, want nil", p)
	}
	for _, c := range []costFlags{{pb: "c.pb.gz"}, {folded: "c.folded"}, {csv: "c.csv"}} {
		if buildCostProfiler(c) == nil {
			t.Errorf("%+v: want a profiler", c)
		}
	}
}

// TestBuildFaultPlanProfilesMatchLibrary pins the flag surface to the
// canned profiles: every published name must resolve.
func TestBuildFaultPlanProfilesMatchLibrary(t *testing.T) {
	for _, name := range []string{"off", "light", "moderate", "heavy"} {
		if _, err := buildFaultPlan(name, 0, 0); err != nil {
			t.Errorf("profile %s: %v", name, err)
		}
	}
	var _ *vulcan.FaultPlan // the facade alias is the flag surface's type
}

// TestConfigRejectsArrivals: -config runs cannot drive a scenario's
// arrival process, so a scenario with an arrivals block must fail and
// point at vulcand and -replay-journal instead of running as if the
// block were absent.
func TestConfigRejectsArrivals(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "vulcansim")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	scen := filepath.Join(dir, "churn.json")
	if err := os.WriteFile(scen, []byte(`{"policy": "vulcan", "seconds": 3, "seed": 5, "scale": 8,
		"apps": [{"preset": "memcached"}],
		"arrivals": {"rate_per_epoch": 0.4, "seed": 11, "max_live": 2,
			"template": {"name": "churn", "class": "BE", "threads": 1, "rss_pages": 2048, "generator": "uniform"}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-config", scen)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("arrivals scenario ran without its arrivals:\n%s", stdout.String())
	}
	for _, want := range []string{"arrivals", "vulcand", "-replay-journal"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not mention %q", stderr.String(), want)
		}
	}
}
