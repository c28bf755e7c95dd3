package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture loads the packages matching pattern under testdata/src. A
// /... pattern picks up helper sub-packages, which the cross-package
// fixtures (dettaint, hotalloc2) rely on.
func fixture(t *testing.T, pattern string) []*Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./internal/lint/testdata/src/" + pattern)
	if err != nil {
		t.Fatalf("Load(%s): %v", pattern, err)
	}
	return pkgs
}

// goldenFixture is one fixture and the analyzer it exercises; the
// subtest and the golden file take its name.
type goldenFixture struct {
	name    string
	pattern string // package pattern under testdata/src
	a       Analyzer
}

// goldenFixtures gives every analyzer a fixture named after it, and two
// analyzers a second one: hotalloc2 holds the interprocedural cases of
// hotalloc (cross-package reachability, the cold boundary, every
// allocation idiom) beside hotalloc's queue idioms, and wallclock is
// detrand's cycle-driven sub-package, where any reference to package
// time is a finding.
var goldenFixtures = []goldenFixture{
	{"cyclewidth", "cyclewidth", CycleWidth{}},
	{"detrand", "detrand", DetRand{}},
	{"wallclock", "detrand/faults", DetRand{}},
	{"dettaint", "dettaint/...", DetTaint{}},
	{"hotalloc", "hotalloc", HotAlloc{}},
	{"hotalloc2", "hotalloc2/...", HotAlloc{}},
	{"maporder", "maporder", MapOrder{}},
	{"panicstyle", "panicstyle", PanicStyle{}},
	{"phasesafe", "phasesafe", PhaseSafe{}},
}

// render joins findings into golden-file form.
func render(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got against testdata/golden/<name>.golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch for %s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGoldenPerAnalyzer runs each analyzer over its fixtures and
// compares against the golden transcripts. Suppressed instances inside
// the fixtures must not appear.
func TestGoldenPerAnalyzer(t *testing.T) {
	covered := map[string]bool{}
	for _, fx := range goldenFixtures {
		fx := fx
		covered[fx.a.Name()] = true
		t.Run(fx.name, func(t *testing.T) {
			got := render(Run(fixture(t, fx.pattern), []Analyzer{fx.a}))
			if got == "" {
				t.Fatalf("%s fixture produced no findings", fx.name)
			}
			checkGolden(t, fx.name, got)
		})
	}
	for _, a := range All() {
		if !covered[a.Name()] {
			t.Errorf("analyzer %s has no golden fixture", a.Name())
		}
	}
}

// TestSuppressionFiltering proves the //nocvet:ignore directive is what
// hides the fixtures' suppressed cases: the raw analyzer sees more
// findings than the filtered Run.
func TestSuppressionFiltering(t *testing.T) {
	for _, fx := range goldenFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			pkgs := fixture(t, fx.pattern)
			raw := len(rawFindings(fx.a, pkgs))
			filtered := len(Run(pkgs, []Analyzer{fx.a}))
			if raw != filtered+1 {
				t.Errorf("raw=%d filtered=%d; each fixture carries exactly one suppressed case", raw, filtered)
			}
		})
	}
}

// rawFindings runs a without the suppression filter.
func rawFindings(a Analyzer, pkgs []*Package) []Finding {
	if pa, ok := a.(ProgramAnalyzer); ok {
		return pa.RunProgram(BuildProgram(pkgs))
	}
	var fs []Finding
	for _, p := range pkgs {
		fs = append(fs, a.Run(p)...)
	}
	return fs
}

// TestSuppressionPlacement checks both sanctioned comment positions.
func TestSuppressionPlacement(t *testing.T) {
	pkgs := fixture(t, "cyclewidth") // trailing same-line directive
	for _, f := range Run(pkgs, []Analyzer{CycleWidth{}}) {
		if f.Pos.Line == 44 {
			t.Errorf("same-line suppression ignored: %s", f)
		}
	}
	pkgs = fixture(t, "detrand") // line-above directive
	for _, f := range Run(pkgs, []Analyzer{DetRand{}}) {
		if f.Pos.Line >= 29 && f.Pos.Line <= 32 {
			t.Errorf("line-above suppression ignored: %s", f)
		}
	}
}

// TestCleanFixture keeps the negative fixture negative under the whole
// suite.
func TestCleanFixture(t *testing.T) {
	if fs := Run(fixture(t, "clean"), All()); len(fs) != 0 {
		t.Errorf("clean fixture has findings: %v", fs)
	}
}

// TestDetRandScopedToInternal: the rule only bites under internal/;
// cmd and example binaries may read the clock.
func TestDetRandScopedToInternal(t *testing.T) {
	p := &Package{Path: "repro/cmd/nocsim"}
	if fs := (DetRand{}).Run(p); fs != nil {
		t.Errorf("detrand ran outside internal/: %v", fs)
	}
}

// TestDetRandOneFindingPerConstruct: in a cycle-driven package a clock
// read is both a host-clock call and a reference to package time, and
// detrand reports it once, not once per rule. Lines 13 (time.Until) and
// 26 (time.Now) of the faults fixture hold one time reference each;
// line 26 is suppressed, so the count is taken before filtering.
func TestDetRandOneFindingPerConstruct(t *testing.T) {
	perLine := map[int]int{}
	for _, f := range rawFindings(DetRand{}, fixture(t, "detrand/faults")) {
		perLine[f.Pos.Line]++
	}
	for _, line := range []int{13, 26} {
		if perLine[line] != 1 {
			t.Errorf("faults.go:%d: %d findings, want 1", line, perLine[line])
		}
	}
}

// TestUnknownSuppressionRule: a //nocvet:ignore naming no analyzer
// fails the run (exit 1) instead of silently suppressing nothing, while
// the known rule of the same directive still suppresses.
func TestUnknownSuppressionRule(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"./internal/lint/testdata/src/ignore"}, ".", &out, &errb); code != ExitFindings {
		t.Errorf("code=%d, want %d (stderr: %s)", code, ExitFindings, errb.String())
	}
	checkGolden(t, "ignore", out.String())
}

// TestDriverExitCodes exercises cmd/nocvet's in-process entry point.
func TestDriverExitCodes(t *testing.T) {
	run := func(args ...string) (int, string, string) {
		var out, errb bytes.Buffer
		code := Main(args, ".", &out, &errb)
		return code, out.String(), errb.String()
	}

	if code, out, _ := run("./internal/lint/testdata/src/clean"); code != ExitClean || out != "" {
		t.Errorf("clean fixture: code=%d out=%q, want 0 and empty", code, out)
	}
	code, out, errb := run("./internal/lint/testdata/src/panicstyle")
	if code != ExitFindings {
		t.Errorf("panicstyle fixture: code=%d, want %d (stderr: %s)", code, ExitFindings, errb)
	}
	if !strings.Contains(out, "panicstyle:") || !strings.Contains(errb, "finding(s)") {
		t.Errorf("driver output missing findings: out=%q errb=%q", out, errb)
	}
	if code, _, _ := run("-rules", "detrand", "./internal/lint/testdata/src/panicstyle"); code != ExitClean {
		t.Errorf("-rules subset should skip panicstyle findings, got code=%d", code)
	}
	if code, _, _ := run("-rules", "bogus", "./internal/lint/testdata/src/clean"); code != ExitError {
		t.Errorf("unknown rule: code=%d, want %d", code, ExitError)
	}
	if code, _, _ := run("./no/such/dir"); code != ExitError {
		t.Errorf("missing dir: code=%d, want %d", code, ExitError)
	}
	if code, _, _ := run(); code != ExitError {
		t.Errorf("no packages: code=%d, want %d", code, ExitError)
	}
	if code, out, _ := run("-list"); code != ExitClean || len(strings.Split(strings.TrimSpace(out), "\n")) != len(All()) {
		t.Errorf("-list: code=%d out=%q", code, out)
	}
}

// TestRepoIsClean is the acceptance bar: the tree must stay free of
// unsuppressed findings, the same check CI runs.
func TestRepoIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"./..."}, ".", &out, &errb); code != ExitClean {
		t.Errorf("nocvet ./... = %d, want 0\n%s%s", code, out.String(), errb.String())
	}
}
