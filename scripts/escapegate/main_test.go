package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// wantLine returns the 1-based line of the `// want` marker in path.
func wantLine(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if strings.Contains(sc.Text(), `// want "moved to heap`) {
			return n
		}
	}
	t.Fatalf("%s has no // want marker", path)
	return 0
}

// TestGateCatchesInterfaceEscape runs the gate on the exact pattern that
// once put one heap allocation on every below-L3 access: a hot function
// passing &local to an interface method. The finding must name the
// local's file:line; the identical escape in a cold function must not be
// reported.
func TestGateCatchesInterfaceEscape(t *testing.T) {
	rep, err := check([]string{"./testdata/ifaceescape"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.hotFuncs != 1 {
		t.Errorf("hot functions = %d, want 1", rep.hotFuncs)
	}
	want := fmt.Sprintf("testdata/ifaceescape/ifaceescape.go:%d:", wantLine(t, "testdata/ifaceescape/ifaceescape.go"))
	if len(rep.findings) != 1 || !strings.HasPrefix(rep.findings[0], want) ||
		!strings.Contains(rep.findings[0], "moved to heap: res (in //alloyvet:hotpath System.Read)") {
		t.Fatalf("findings = %q, want one at %s in System.Read", rep.findings, want)
	}
}

// TestGatePassesFieldScratch runs the gate on the repaired form, where
// the result is a struct field: nothing moves to the heap.
func TestGatePassesFieldScratch(t *testing.T) {
	rep, err := check([]string{"./testdata/fixed"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.hotFuncs != 1 || len(rep.findings) != 0 {
		t.Fatalf("hot functions = %d, findings = %q; want 1 and none", rep.hotFuncs, rep.findings)
	}
}

// TestGateRejectsPackagesWithoutHotFunctions keeps a wrong package list
// from passing vacuously.
func TestGateRejectsPackagesWithoutHotFunctions(t *testing.T) {
	if _, err := check([]string{"../benchjson"}); err == nil {
		t.Fatal("gate passed a package list with no //alloyvet:hotpath function")
	}
}
