package harness

import (
	"strings"
	"testing"

	"dyndiam/internal/adversaries"
)

func TestTableFormatting(t *testing.T) {
	tb := &Table{
		Caption: "demo",
		Header:  []string{"a", "bbbb", "c"},
	}
	tb.Add(1, 2.5, "xyz")
	tb.Add("long-cell", 3.25, true)
	out := tb.String()
	if !strings.Contains(out, "## demo") {
		t.Error("caption missing")
	}
	if !strings.Contains(out, "2.50") || !strings.Contains(out, "3.25") {
		t.Errorf("float formatting broken:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // caption, header, rule, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestMeasureDynamicDiameter(t *testing.T) {
	d, err := MeasureDynamicDiameter(adversaries.RotatingStar(8), 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 {
		t.Errorf("rotating star diameter = %d, want 7", d)
	}
	if _, err := MeasureDynamicDiameter(adversaries.RotatingStar(30), 30, 10); err == nil {
		t.Error("short horizon should fail to certify")
	}
}

func TestGapTableShape(t *testing.T) {
	rows, err := GapTable([]int{32, 64}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.OutputsCorrect {
			t.Errorf("N=%d: incorrect CFLOOD outputs", r.N)
		}
		// The headline gap: the unknown-D baseline pays ~N rounds, the
		// known-D protocol pays ~D rounds.
		if r.UnknownRounds != r.N-1 {
			t.Errorf("N=%d: unknown-D rounds = %d, want N-1", r.N, r.UnknownRounds)
		}
		if r.KnownRounds != r.D {
			t.Errorf("N=%d: known-D rounds = %d, want D = %d", r.N, r.KnownRounds, r.D)
		}
		if r.UnknownFR <= r.KnownFR {
			t.Errorf("N=%d: no gap (unknown %f <= known %f)", r.N, r.UnknownFR, r.KnownFR)
		}
	}
	// The gap widens with N at fixed D.
	if rows[1].UnknownFR <= rows[0].UnknownFR {
		t.Error("gap did not widen with N")
	}
	out := FormatGapTable(rows).String()
	if !strings.Contains(out, "unknown FR") {
		t.Errorf("table render broken:\n%s", out)
	}
}

func TestConstructionDiameterTable(t *testing.T) {
	rows, err := ConstructionDiameters([]int{9, 17}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Disj == 1 && r.Diameter > 10 {
			t.Errorf("q=%d 1-instance diameter %d > 10", r.Q, r.Diameter)
		}
		if r.Disj == 0 && r.Diameter < (r.Q-1)/2 {
			t.Errorf("q=%d 0-instance diameter %d < (q-1)/2", r.Q, r.Diameter)
		}
	}
	_ = FormatDiameterTable(rows).String()
}

func TestCFloodReductionTable(t *testing.T) {
	rows, err := CFloodReduction([]int{25}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 instances x 2 oracles
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.LemmaViolations != 0 {
			t.Errorf("q=%d %s: %d lemma violations", r.Q, r.Oracle, r.LemmaViolations)
		}
		switch {
		case r.Oracle == "fast(D:=10)" && r.Disj == 1:
			if !r.ClaimCorrect || r.OracleErrored {
				t.Errorf("fast oracle on 1-instance: claimOK=%v err=%v", r.ClaimCorrect, r.OracleErrored)
			}
		case r.Oracle == "fast(D:=10)" && r.Disj == 0:
			if !r.OracleErrored {
				t.Error("fast oracle on 0-instance must err as a CFLOOD protocol")
			}
		case r.Oracle == "safe(D:=N-1)" && r.Disj == 0:
			if !r.ClaimCorrect {
				t.Error("safe oracle on 0-instance should yield claim 0 (correct)")
			}
		case r.Oracle == "safe(D:=N-1)" && r.Disj == 1:
			if r.ClaimCorrect {
				t.Error("safe oracle cannot terminate within horizon, claim should be wrong on 1-instances")
			}
		}
	}
	_ = FormatReductionTable("E1", rows).String()
}

func TestConsensusReductionTable(t *testing.T) {
	rows, err := ConsensusReduction([]int{401}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.LemmaViolations != 0 {
			t.Errorf("q=%d: %d lemma violations", r.Q, r.LemmaViolations)
		}
		if r.Disj == 0 && !r.AgreementViolated {
			t.Error("0-instance: expected an agreement violation from the fast oracle")
		}
		if r.Disj == 1 && r.AgreementViolated {
			t.Error("1-instance: unexpected agreement violation")
		}
	}
	_ = FormatConsensusReductionTable(rows).String()
}

func TestEstimateSweep(t *testing.T) {
	rows, err := EstimateSweep([]int{32}, []int{24, 96}, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// More copies, better accuracy (allowing sampling noise: compare
	// against a slack factor rather than strictly).
	if rows[1].MeanErr > rows[0].MeanErr*1.5+0.05 {
		t.Errorf("k=96 err %.3f not better than k=24 err %.3f", rows[1].MeanErr, rows[0].MeanErr)
	}
	if rows[1].MeanErr > 0.3 {
		t.Errorf("k=96 mean error %.3f too large", rows[1].MeanErr)
	}
	_ = FormatEstimateTable(rows).String()
}

func TestMajoritySweep(t *testing.T) {
	rows, err := MajoritySweep(32, []float64{0.25, 0.5, 1.0}, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FalseClaims != 0 {
			t.Errorf("frac=%.2f: %d unsound majority claims", r.HolderFrac, r.FalseClaims)
		}
		if r.HolderFrac == 1.0 && r.Claims < r.N*3/4 {
			t.Errorf("unanimity: only %d/%d claims", r.Claims, r.N)
		}
	}
	_ = FormatMajorityTable(rows).String()
}

// TestMajoritySweepSeed12 is the cmd/report -seed 12 regression: the
// family's diameter at (N=48, seed 12) is not certified by the starting
// horizon, so the sweep must grow the horizon rather than fail.
func TestMajoritySweepSeed12(t *testing.T) {
	const n, target, seed = 48, 4, 12
	if _, err := MeasureDynamicDiameter(adversaries.BoundedDiameter(n, target, n/2, seed), n, 6*target+60); err == nil {
		t.Fatal("the starting horizon certifies seed 12; this test no longer covers horizon growth")
	}
	d, err := familyDiameter(n, target, seed)
	if err != nil {
		t.Fatal(err)
	}
	if exact, err := MeasureDynamicDiameter(adversaries.BoundedDiameter(n, target, n/2, seed), n, 16*(6*target+60)); err != nil || exact != d {
		t.Fatalf("grown horizon measured D=%d; the longest horizon measures %d (err %v)", d, exact, err)
	}
	rows, err := MajoritySweep(n, []float64{0.25, 0.5, 0.75, 1.0}, target, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FalseClaims != 0 {
			t.Errorf("frac=%.2f: %d unsound majority claims", r.HolderFrac, r.FalseClaims)
		}
	}
}

func TestFigures(t *testing.T) {
	f1, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"|3_2", "|1_2", "|1_0", "|0_0", "reference:", "alice:", "bob:", "line(2 middles)"} {
		if !strings.Contains(f1, want) {
			t.Errorf("Figure1 missing %q:\n%s", want, f1)
		}
	}
	f2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"|0_0", "|2_2", "|4_4", "|6_6", "mounting points: 1"} {
		if !strings.Contains(f2, want) {
			t.Errorf("Figure2 missing %q", want)
		}
	}
	f3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"|2_3", "|4_5", "|6_6", "mounting points: 0"} {
		if !strings.Contains(f3, want) {
			t.Errorf("Figure3 missing %q", want)
		}
	}
}

func TestLeaderSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("leader sweep is slow")
	}
	rows, err := LeaderSweep([]int{16, 32}, 4, 1.0, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Correct {
			t.Errorf("N=%d: wrong leader", r.N)
		}
		// Diameter-scaled with polylog factors: the normalized cost
		// rounds/((D+lgN)·lg²N) stays a modest constant.
		if r.PerDLog2 > 40 {
			t.Errorf("N=%d: normalized cost %.2f too large (%d rounds, D=%d)",
				r.N, r.PerDLog2, r.Rounds, r.D)
		}
	}
	// Doubling N (at fixed D) must not double the cost: growth is polylog.
	if float64(rows[1].Rounds) > 1.9*float64(rows[0].Rounds) {
		t.Errorf("rounds grew superlogarithmically: %d -> %d", rows[0].Rounds, rows[1].Rounds)
	}
	_ = FormatLeaderTable(rows).String()
}

func TestCommTable(t *testing.T) {
	rows, err := CommTable([]int{2, 4}, []int{17, 33}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.ReductionBits <= 0 {
			t.Errorf("n=%d q=%d: no bits", r.N, r.Q)
		}
		if float64(r.TrivialBits) < r.FloorBits {
			t.Errorf("n=%d q=%d: trivial below floor", r.N, r.Q)
		}
		// Per-round bits are Θ(log N): bounded by a few message budgets.
		if r.BitsPerRound <= 0 || r.BitsPerRound > 200 {
			t.Errorf("n=%d q=%d: bits/round %.1f implausible", r.N, r.Q, r.BitsPerRound)
		}
	}
	_ = FormatCommTable(rows).String()
}

func TestSpoiledGrowth(t *testing.T) {
	rows, err := SpoiledGrowth(2, 17, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // horizon (q-1)/2
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		// Monotone shrink of the simulable region.
		if i > 0 {
			if r.NonSpoiledAlice > rows[i-1].NonSpoiledAlice ||
				r.NonSpoiledBob > rows[i-1].NonSpoiledBob {
				t.Errorf("round %d: non-spoiled count grew", r.Round)
			}
		}
		// The decision-relevant specials stay simulable throughout.
		if !r.SpecialsSimulatableAlice || !r.SpecialsSimulatableBob {
			t.Errorf("round %d: specials spoiled within the horizon", r.Round)
		}
		// Each party always retains a nontrivial region.
		if r.NonSpoiledAlice < 2 || r.NonSpoiledBob < 2 {
			t.Errorf("round %d: region collapsed (%d, %d)", r.Round, r.NonSpoiledAlice, r.NonSpoiledBob)
		}
	}
	_ = FormatSpoiledTable(106, rows).String()
}
