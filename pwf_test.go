package pwf

import (
	"math"
	"testing"
)

func TestRunSCUQuick(t *testing.T) {
	cfg := NewRunConfig(SCUWorkload(0, 1), 4)
	cfg.Steps, cfg.Seed = 100000, 1
	lat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactSCUSystemLatency(4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat.System-exact)/exact > 0.05 {
		t.Fatalf("simulated W %v vs exact %v", lat.System, exact)
	}
	if ratio := lat.Individual / (4 * lat.System); math.Abs(ratio-1) > 0.05 {
		t.Fatalf("W_i/(n·W) = %v, want ~1", ratio)
	}
	if lat.Fairness < 0.95 {
		t.Fatalf("fairness %v", lat.Fairness)
	}
	if lat.Completions == 0 {
		t.Fatal("no completions")
	}
}

func TestRunFetchIncMatchesExact(t *testing.T) {
	cfg := NewRunConfig(FetchIncWorkload(), 8)
	cfg.Steps, cfg.Seed = 200000, 2
	lat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactFetchIncLatency(8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat.System-exact)/exact > 0.05 {
		t.Fatalf("simulated W %v vs exact %v", lat.System, exact)
	}
	if exact > 2*math.Sqrt(8) {
		t.Fatalf("exact W %v violates Lemma 12 bound", exact)
	}
}

func TestVerifySCULiftingPublic(t *testing.T) {
	report, err := VerifySCULifting(3)
	if err != nil {
		t.Fatal(err)
	}
	if report.MaxFlowError > 1e-9 || report.MaxMarginalError > 1e-9 {
		t.Fatalf("lifting errors: %v, %v", report.MaxFlowError, report.MaxMarginalError)
	}
}

func TestRecordScheduleAndRatePublic(t *testing.T) {
	s, err := RecordSchedule(2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 {
		t.Fatal("empty schedule")
	}
	res, err := MeasureCounterRate(2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() <= 0 || res.Rate() > 0.5 {
		t.Fatalf("rate %v out of (0, 0.5]", res.Rate())
	}
}
