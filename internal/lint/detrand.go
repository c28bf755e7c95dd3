package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetRand forbids hidden host inputs in internal/ simulation packages:
// wall-clock reads and the global math/rand functions. The former makes
// a run depend on the host, the latter on process-global generator
// state shared with whoever else rolled it. Simulation code must take
// time from the simulated cycle and randomness from an explicitly
// seeded *rand.Rand threaded through the call graph.
//
// The cycle-driven packages (see cycleDriven) are held to a stricter
// bar: any reference to package time at all is a finding. They sit
// inside the determinism proof itself: the fault schedule and every
// watchdog bound must be expressed in simulated cycles, and even a
// stray time.Duration is a wall-clock-shaped knob that invites somebody
// to wire it to the host. If a run wedges, the watchdog must trip at
// the same cycle on every machine and at every -j, or the deadlock
// golden tests mean nothing. A checkpoint is replayed byte-for-byte, so
// a wall-clock timestamp anywhere in the snapshot format would make
// blobs differ across machines for identical simulator state. In those
// packages a clock read is reported once, as a reference to package
// time.
type DetRand struct{}

func (DetRand) Name() string { return "detrand" }
func (DetRand) Doc() string {
	return "forbid clock reads and global math/rand in internal/, and package time in internal/{faults,invariant,snapshot,telemetry}"
}

// forbiddenTime is the wall-clock surface of package time. Durations,
// constants, and formatting stay legal outside the cycle-driven
// packages — only host-clock reads break reproducibility.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// forbiddenRand is every top-level math/rand function that touches the
// package-global generator. The constructors (New, NewSource, NewZipf)
// are the sanctioned alternative and stay legal.
var forbiddenRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "N": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
}

// hostInput is the one source table of hidden host inputs, shared by
// detrand and dettaint: it returns the function a call invokes when
// that is a global math/rand function or time.Now/Since/Until, and nil
// otherwise. Methods (on a seeded *rand.Rand, on a time.Time) are not
// sources — the seeded generator is the fix, not the bug.
func hostInput(p *Package, call *ast.CallExpr) *types.Func {
	fn := calledFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTime[fn.Name()] {
			return fn
		}
	case "math/rand", "math/rand/v2":
		if forbiddenRand[fn.Name()] {
			return fn
		}
	}
	return nil
}

// isClockRead reports whether a hostInput source reads the host clock
// (as opposed to global generator state).
func isClockRead(fn *types.Func) bool { return fn.Pkg().Path() == "time" }

// cycleDriven reports whether a package may not reference package time
// at all: the fault injector, the invariant watchdogs, the checkpoint
// codec and the telemetry sampler (and the lint fixture, which loads
// itself by directory).
func cycleDriven(path string) bool {
	return strings.HasSuffix(path, "/internal/faults") ||
		strings.HasSuffix(path, "/internal/invariant") ||
		strings.HasSuffix(path, "/internal/snapshot") ||
		strings.HasSuffix(path, "/internal/telemetry") ||
		strings.HasSuffix(path, "/lint/testdata/src/detrand/faults")
}

func (DetRand) Run(p *Package) []Finding {
	if !strings.Contains(p.Path+"/", "/internal/") {
		return nil
	}
	strict := cycleDriven(p.Path)
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := hostInput(p, n)
				switch {
				case fn == nil:
				case !isClockRead(fn):
					out = append(out, p.finding("detrand", n,
						"global rand.%s uses process-shared generator state; use an explicitly seeded *rand.Rand", fn.Name()))
				case !strict: // strict packages report the reference below instead
					out = append(out, p.finding("detrand", n,
						"call to time.%s reads the host clock; simulation time must come from the cycle counter", fn.Name()))
				}
			case *ast.ImportSpec:
				if strict && strings.Trim(n.Path.Value, `"`) == "time" {
					out = append(out, p.finding("detrand", n,
						"import of package time in a cycle-driven package: fault schedules, watchdog bounds and checkpoints are simulated cycles, not host durations"))
				}
			case *ast.Ident:
				if !strict {
					return true
				}
				obj := p.Info.Uses[n]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return true
				}
				if _, isPkgName := obj.(*types.PkgName); isPkgName {
					return true // the qualifier; the selected member is reported instead
				}
				out = append(out, p.finding("detrand", n,
					"reference to time.%s in a cycle-driven package: take time from the cycle counter, never the host clock", obj.Name()))
			}
			return true
		})
	}
	return out
}

// calledFunc resolves a call expression to the function object it
// invokes, through plain idents (dot imports) and selectors alike.
func calledFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}
