package simdet_test

import (
	"regexp"
	"testing"

	"sdds/internal/analysis"
	"sdds/internal/analysis/analysistest"
	"sdds/internal/analysis/simdet"
)

// TestSimdet checks every reported pattern, every allowed pattern, and the
// //sddsvet:ignore suppression path against the fixture's want comments.
func TestSimdet(t *testing.T) {
	defer overridePackages(t, regexp.MustCompile(`.`))()
	analysistest.Run(t, "testdata/src/simdetbad", simdet.Analyzer)
}

// TestSimdetFaultFixture proves the analyzer rejects nondeterministic hit
// decisions in fault-injector-shaped code (global RNG, wall clock) while
// accepting the real injector's seeded splitmix counter stream.
func TestSimdetFaultFixture(t *testing.T) {
	defer overridePackages(t, regexp.MustCompile(`.`))()
	analysistest.Run(t, "testdata/src/faultbad", simdet.Analyzer)
}

// TestSimdetRestoreFixture proves the analyzer rejects map-iteration-order
// dependence in schedule-rebuild-shaped code (ranging a deserialized points
// map while building the schedule) while accepting slice-ordered and
// collect-then-sort shapes.
func TestSimdetRestoreFixture(t *testing.T) {
	defer overridePackages(t, regexp.MustCompile(`.`))()
	analysistest.Run(t, "testdata/src/restorebad", simdet.Analyzer)
}

// TestSimdetTransitiveCrossPackage is the acceptance fixture for the
// summary engine: simulation code reaching time.Now only through a helper
// package is flagged at the boundary call with the full chain. The scope
// override matches simtrans but not simtranshelper, so the helper is
// outside the simulation cone — exactly the shape of a harness utility
// leaking into model code.
func TestSimdetTransitiveCrossPackage(t *testing.T) {
	defer overridePackages(t, regexp.MustCompile(`simtrans$`))()
	analysistest.Run(t, "testdata/src/simtrans", simdet.Analyzer)
}

// TestSimdetCoversFaultPackage pins the default scope to include the
// fault-injection package and the compile-cache layer: per-site fault
// streams and memoized compile results both feed golden-compared results
// exactly like the device models do.
func TestSimdetCoversFaultPackage(t *testing.T) {
	for _, pkg := range []string{
		"sdds/internal/sim", "sdds/internal/fault", "sdds/internal/disk",
		"sdds/internal/compiler", "sdds/internal/compilecache",
	} {
		if !simdet.SimPackages.MatchString(pkg) {
			t.Errorf("SimPackages does not cover %s", pkg)
		}
	}
	if simdet.SimPackages.MatchString("sdds/internal/harness") {
		t.Error("SimPackages must not cover the harness (host-side code)")
	}
}

// TestSimdetScopedToSimPackages proves the default package pattern keeps the
// analyzer away from non-simulation code: the same violation-dense fixture
// yields zero diagnostics when its package path is out of scope.
func TestSimdetScopedToSimPackages(t *testing.T) {
	mod, err := analysis.LoadModule("../../..", "internal/analysis/simdet/testdata/src/simdetbad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(mod, mod.Selected[0], []*analysis.Analyzer{simdet.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("out-of-scope package produced %d diagnostics, want 0: %v", len(diags), diags)
	}
}

func overridePackages(t *testing.T, re *regexp.Regexp) func() {
	t.Helper()
	old := simdet.SimPackages
	simdet.SimPackages = re
	return func() { simdet.SimPackages = old }
}
