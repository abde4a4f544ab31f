package dramcache

import (
	"bytes"
	"testing"

	"alloysim/internal/dram"
	"alloysim/internal/obs"
	"alloysim/internal/policy"
	"alloysim/internal/trace"
)

// warmCell is one registered design under one replacement policy it
// accepts ("" is the design's default).
type warmCell struct{ design, policy string }

// warmCells lists every registered design with its default policy, plus
// every policy.Known policy for the designs that take an override.
func warmCells() []warmCell {
	var cells []warmCell
	for _, n := range Names() {
		cells = append(cells, warmCell{n, ""})
		if n == "lh-29" || n == "gemini" {
			for _, p := range policy.Known() {
				cells = append(cells, warmCell{n, p})
			}
		}
	}
	return cells
}

func buildCell(t *testing.T, c warmCell) (Organization, *dram.DRAM) {
	t.Helper()
	st := stacked()
	o, err := Build(c.design, Params{CapacityBytes: 512 << 10, Stacked: st, Policy: c.policy, Seed: SeedFor(c.design, c.policy)})
	if err != nil {
		t.Fatal(err)
	}
	return o, st
}

func metricsDump(t *testing.T, o Organization) string {
	t.Helper()
	reg := obs.NewRegistry()
	o.RegisterMetrics(reg, "dc")
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWarmAccessMatchesAccessInto is the exactness gate of the
// contents-only warm-up. For every design under every policy it accepts,
// one instance warms through AccessInto at cycle 0 and then resets its
// device, the reference that keeps contents and discards timing after the
// fact; the other warms through WarmAccess. Both then serve the same
// measured AccessInto+Fill stream; every result, fill, Contains probe,
// tag counter and exported metric must agree.
func TestWarmAccessMatchesAccessInto(t *testing.T) {
	const warmRefs, measuredRefs = 40_000, 20_000
	for _, wl := range []string{"mcf_r", "lbm_r"} {
		prof, ok := trace.ByName(wl)
		if !ok {
			t.Fatalf("no %s profile", wl)
		}
		refs := trace.Capture(prof.MustBuild(1, 64, 0), warmRefs+measuredRefs)
		warm, measured := refs[:warmRefs], refs[warmRefs:]
		for _, c := range warmCells() {
			live, liveDev := buildCell(t, c)
			var scratch AccessResult
			for _, r := range warm {
				live.AccessInto(0, r.Line, r.Write, &scratch)
			}
			liveDev.Reset()
			contents, contentsDev := buildCell(t, c)
			for _, r := range warm {
				contents.WarmAccess(r.Line, r.Write)
			}
			if s := contentsDev.Stats(); s != (dram.Stats{}) {
				t.Errorf("%s %s/%q: WarmAccess touched the stacked DRAM: %+v", wl, c.design, c.policy, s)
			}
			if a, b := live.TagStats(), contents.TagStats(); a != b {
				t.Errorf("%s %s/%q: warm-up tag stats differ:\nAccessInto %+v\nWarmAccess %+v", wl, c.design, c.policy, a, b)
			}
			if a := live.TagStats(); a.Evictions == 0 {
				t.Errorf("%s %s/%q: warm-up evicted nothing; the stream does not exercise replacement", wl, c.design, c.policy)
			}
			for _, r := range warm {
				if live.Contains(r.Line) != contents.Contains(r.Line) {
					t.Fatalf("%s %s/%q: after warm-up Contains(%d) differs", wl, c.design, c.policy, r.Line)
				}
			}
			live.ResetStats()
			contents.ResetStats()

			var lr, cr AccessResult
			var now Cycle
			for i, r := range measured {
				now += 20
				live.AccessInto(now, r.Line, r.Write, &lr)
				contents.AccessInto(now, r.Line, r.Write, &cr)
				if lr != cr {
					t.Fatalf("%s %s/%q: measured access %d differs:\nAccessInto warm %+v\nWarmAccess warm %+v", wl, c.design, c.policy, i, lr, cr)
				}
				if lr.Allocated {
					if lf, cf := live.Fill(lr.TagKnown+200, r.Line), contents.Fill(cr.TagKnown+200, r.Line); lf != cf {
						t.Fatalf("%s %s/%q: fill %d differs: %+v vs %+v", wl, c.design, c.policy, i, lf, cf)
					}
				}
				if live.Contains(r.Line) != contents.Contains(r.Line) {
					t.Fatalf("%s %s/%q: Contains(%d) differs after measured access %d", wl, c.design, c.policy, r.Line, i)
				}
			}
			if a, b := live.TagStats(), contents.TagStats(); a != b || a.Hits == 0 {
				t.Errorf("%s %s/%q: measured tag stats %+v vs %+v (want equal, with hits)", wl, c.design, c.policy, a, b)
			}
			if a, b := liveDev.Stats(), contentsDev.Stats(); a != b {
				t.Errorf("%s %s/%q: measured stacked DRAM stats %+v vs %+v", wl, c.design, c.policy, a, b)
			}
			if a, b := metricsDump(t, live), metricsDump(t, contents); a != b {
				t.Errorf("%s %s/%q: exported metrics differ:\n%s\nvs\n%s", wl, c.design, c.policy, a, b)
			}
		}
	}
}
