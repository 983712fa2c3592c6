package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 .. 1, unsorted on purpose
	}
	got, err := tailPercentile(xs, 0.99)
	if err != nil {
		t.Fatalf("1000 samples leave 10 beyond p99: %v", err)
	}
	if got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (nearest rank)", got)
	}
	if _, err := tailPercentile(xs[:999], 0.99); err == nil {
		t.Error("999 samples leave 9 beyond p99 and must be refused")
	}
	if _, err := tailPercentile(xs[:20], 0.5); err != nil {
		t.Errorf("p50 of 20 samples has 10 beyond it: %v", err)
	}
	if _, err := tailPercentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if xs[0] != 1000 {
		t.Error("tailPercentile sorted its input in place")
	}
}

func TestSegmentedTail(t *testing.T) {
	// 3500 samples make three segments of at least 1000; the middle
	// one carries a burst of slow batches.
	xs := make([]float64, 3500)
	for i := range xs {
		xs[i] = float64(i%100 + 1) // p99 of each segment is 99 or 100
	}
	for i := 1500; i < 1600; i++ {
		xs[i] = 1000
	}
	got, segs, err := segmentedTail(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || segs[1] != 1000 {
		t.Errorf("segment p99s = %v, want three with the burst in the middle", segs)
	}
	if got > 100 {
		t.Errorf("segmented p99 = %v; a burst in one segment must not decide it", got)
	}
	if plain, _ := tailPercentile(xs, 0.99); plain != 1000 {
		t.Errorf("plain p99 = %v, want the burst's 1000", plain)
	}
	// Too few samples for two segments: the plain p99.
	short := xs[:1999]
	got, segs, err = segmentedTail(short, 0.99)
	want, _ := tailPercentile(short, 0.99)
	if err != nil || len(segs) != 1 || got != want {
		t.Errorf("segmentedTail of 1999 = %v, %v, %v; want the plain p99 %v", got, segs, err, want)
	}
	if _, _, err := segmentedTail(xs[:999], 0.99); err == nil {
		t.Error("999 samples leave 9 beyond p99 and must be refused")
	}
}

func TestServeStatsWindows(t *testing.T) {
	// Ten one-second windows of 120 batches, 8 selected each, 5 ms
	// apiece; windows 3 and 7 are slow (half the batches, 20 ms).
	var bs []batchSample
	for w := 0; w < 10; w++ {
		n, ms := 120, 5.0
		if w == 3 || w == 7 {
			n, ms = 60, 20
		}
		for i := 0; i < n; i++ {
			done := time.Duration(w)*time.Second + time.Duration(i+1)*time.Second/time.Duration(n+1)
			bs = append(bs, batchSample{done: done, ms: ms, selected: 8})
		}
	}
	// A partial eleventh window is left out of the medians.
	bs = append(bs, batchSample{done: 10*time.Second + time.Millisecond, ms: 900, selected: 8})
	perSec, p50, _, err := serveStats(bs, 10500*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if perSec != 960 || p50 != 5 {
		t.Errorf("serveStats = %v/s, p50 %v ms; want 960/s and 5 ms", perSec, p50)
	}
	if _, _, _, err := serveStats(bs, 500*time.Millisecond, time.Second); err == nil {
		t.Error("a phase shorter than one window must be refused")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{7}, 7}} {
		if got, err := median(c.xs); err != nil || got != c.want {
			t.Errorf("median(%v) = %v, %v; want %v", c.xs, got, err, c.want)
		}
	}
	if _, err := median(nil); err == nil {
		t.Error("median of nothing must fail")
	}
}

func TestGeomean(t *testing.T) {
	got, err := geomean([]float64{2, 8})
	if err != nil || math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, %v; want 4", got, err)
	}
	got, err = geomean([]float64{0.5, 2, 1})
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("geomean(0.5, 2, 1) = %v, %v; want 1", got, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) must fail", bad)
		}
	}
}

func TestParseFallback(t *testing.T) {
	for _, c := range []struct {
		reason string
		op     string
		width  int
		ok     bool
	}{
		{"no rule for %5:s32 = G_SMIN %3 %4", "G_SMIN", 32, true},
		{"no rule for %12:s64 = G_SMAX %1 %11", "G_SMAX", 64, true},
		{"no rule for %3:s1 = G_ICMP intpred(slt) %1 %2", "G_ICMP", 1, true},
		{"no rule for G_STORE (16 bits) %4 %2", "G_STORE", 16, true},
		{"no rule for %7:s64 = G_LOAD (8 bits) %2", "G_LOAD", 64, true},
		{"phi input %3 has no register", "", 0, false},
		{"no rule for G_BR bb1", "", 0, false},
		{"", "", 0, false},
	} {
		op, w, ok := parseFallback(c.reason)
		if op != c.op || w != c.width || ok != c.ok {
			t.Errorf("parseFallback(%q) = %q, %d, %v; want %q, %d, %v", c.reason, op, w, ok, c.op, c.width, c.ok)
		}
	}
	if k := fallbackKey("G_SMIN", 32); k != "isel.fallbacks.G_SMIN.32" {
		t.Errorf("fallbackKey = %q", k)
	}
}

func TestStagesAndResidualAddUp(t *testing.T) {
	st := newStageTimes(serveStages...)
	st.add(stParse, 4000)
	st.add(stSelect, 10000)
	st.add(stSelect, 6000)
	st.add(stSimulate, 20000)
	us := st.perProgramUS(4)
	if us[stParse] != 1 || us[stSelect] != 4 || us[stSimulate] != 5 || us[stEncode] != 0 {
		t.Errorf("per-program stages = %v", us)
	}
	if len(us) != len(serveStages) {
		t.Errorf("%d stages reported, want every one of %d", len(us), len(serveStages))
	}
	sum := 0.0
	for _, v := range us {
		sum += v
	}
	if sum != 10 {
		t.Errorf("stage sum = %v, want 10", sum)
	}
	const latency = 25.0
	if r := residual(latency, us); r+sum != latency || r != 15 {
		t.Errorf("residual = %v; stages %v + residual must equal latency %v", r, sum, latency)
	}
	defer func() {
		if recover() == nil {
			t.Error("adding an undeclared stage must panic")
		}
	}()
	st.add("made.up_us", 1)
}

func TestParseChecksum(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{{"#x00000000000000ff", 0xff}, {"#xdeadbeefcafef00d", 0xdeadbeefcafef00d}, {"#b101", 5}, {"#x1ffffffffffffffff", math.MaxUint64}} {
		if got, err := parseChecksum(c.in); err != nil || got != c.want {
			t.Errorf("parseChecksum(%q) = %#x, %v; want %#x", c.in, got, err, c.want)
		}
	}
	if _, err := parseChecksum("42"); err == nil {
		t.Error("a checksum without #x/#b must be refused")
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics
// and workloads this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s/%s vs %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		wantBetter := "lower"
		if m.Name == "selected_per_s" || m.Name == "rule_coverage" {
			wantBetter = "higher"
		}
		if m.Better != wantBetter {
			t.Errorf("%s: better %q, want %q", m.Name, m.Better, wantBetter)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s/%s vs %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
