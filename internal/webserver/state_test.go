package webserver

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// Each layer keeps its simulated fields in one embedded state struct,
// which Clone, ResetTo and the byte image walk as a whole.
// stateOwners names that struct per owner type and waives every other
// field with the reason it stays outside. A field added to an owner
// without deciding where it belongs fails TestStateCoverage.
var stateOwners = []struct {
	typ    reflect.Type
	state  string
	waived map[string]string
}{
	{reflect.TypeFor[cpu.Machine](), "machineState", map[string]string{
		"Phys":            "frame store: captured by its own layer (mem)",
		"MMU":             "translation state: captured by its own layer (mmu)",
		"Clock":           "captured as a cycle count next to the state value",
		"Model":           "immutable cost model shared by every machine",
		"codeShared":      "copy-on-write flag of the shared code map",
		"OnTick":          "timer hook installed by the owning kernel",
		"Owner":           "wiring: the kernel driving the machine",
		"blocks":          "decoded-block cache and its traces: host-side accelerator",
		"liveBlocks":      "decoded-block cache: host-side accelerator",
		"blockMin":        "decoded-block cache: host-side accelerator",
		"blockMax":        "decoded-block cache: host-side accelerator",
		"blocksBloom":     "decoded-block cache: host-side accelerator",
		"bcHits":          "block-cache statistics: host-side",
		"bcBuilds":        "block-cache statistics: host-side",
		"bcInvalidations": "block-cache statistics: host-side",
		"bcFastFetches":   "trace-tier statistics: host-side",
		"TraceThreshold":  "trace-tier knob: traces never alter simulated metrics; Clone carries it as configuration",
		"trStats":         "trace statistics: host-side",
		"brkLo":           "dispatch envelope recomputed from the breakpoints",
		"brkHi":           "dispatch envelope recomputed from the breakpoints",
		"svcLo":           "dispatch envelope recomputed from the services",
		"svcHi":           "dispatch envelope recomputed from the services",
		"pushProbe":       "segment probe cache: host-side accelerator",
		"popProbe":        "segment probe cache: host-side accelerator",
	}},
	{reflect.TypeFor[kernel.Kernel](), "kernelState", map[string]string{
		"Machine":        "captured by its own layer (cpu)",
		"MMU":            "wiring: the machine's MMU",
		"Phys":           "wiring: the machine's frame store",
		"Clock":          "wiring: the machine's clock",
		"Model":          "immutable cost model shared by every machine",
		"Alloc":          "frame allocator: captured by its own layer (mem)",
		"kernelTemplate": "wrapper around a page directory fixed at boot",
		"tickFns":        "closures; only their count is checked",
		"origin":         "lineage: the kernel this one was cloned from",
		"originTicks":    "the origin's subscriber count; closures are not state",
		"clonedProcs":    "process structs restored in place on reset and rollback",
	}},
	{reflect.TypeFor[core.System](), "systemState", map[string]string{
		"K": "captured by its own layer (kernel)",
	}},
	{reflect.TypeFor[core.ExtSegment](), "segState", map[string]string{
		"S": "back-pointer to the owning system",
	}},
	{reflect.TypeFor[core.App](), "appState", map[string]string{
		"S":    "back-pointer to the owning system",
		"P":    "the application's process, captured by the kernel",
		"DL":   "dynamic-loader bookkeeping, rebuilt by DL.CloneFor",
		"Libc": "loaded-image handle, rebound with the loader",
	}},
	{reflect.TypeFor[Server](), "serverState", map[string]string{
		"S":         "captured by its own layer (core)",
		"app":       "captured by its own layer (core)",
		"script":    "stub-address handle, rebound on clone and checked on load",
		"cgiProc":   "process handle, captured by the kernel",
		"tmpl":      "the clone's reset point, set by Clone",
		"extDirect": "sandbox adapter holding no simulated state",
		"extProt":   "sandbox adapter holding no simulated state",
		"envBuf":    "per-request scratch",
		"wordBuf":   "per-request scratch",
		"respBuf":   "per-request scratch",
	}},
}

// TestStateCoverage: every field of every owner type is either its
// embedded state struct or waived with a reason, and every waiver
// names a real field.
func TestStateCoverage(t *testing.T) {
	for _, o := range stateOwners {
		seen := map[string]bool{}
		foundState := false
		for i := 0; i < o.typ.NumField(); i++ {
			f := o.typ.Field(i)
			seen[f.Name] = true
			if f.Name == o.state {
				foundState = f.Anonymous
				continue
			}
			if o.waived[f.Name] == "" {
				t.Errorf("%v.%s is neither in %s nor waived: move it into the state struct or waive it with a reason", o.typ, f.Name, o.state)
			}
		}
		if !foundState {
			t.Errorf("%v does not embed %s", o.typ, o.state)
		}
		for name := range o.waived {
			if !seen[name] {
				t.Errorf("%v waives %s, which is not a field", o.typ, name)
			}
		}
	}
}

// notFollowed are the pointer types stateDiff compares by presence
// only: owners (each owner's state is compared on its own, and their
// pointers are rebound by Clone) and the frame store (compared by
// fingerprint).
var notFollowed = map[reflect.Type]bool{
	reflect.TypeFor[*mem.Physical]():       true,
	reflect.TypeFor[*mem.FrameAllocator](): true,
	reflect.TypeFor[*cpu.Machine]():        true,
	reflect.TypeFor[*kernel.Kernel]():      true,
	reflect.TypeFor[*core.System]():        true,
	reflect.TypeFor[*core.ExtSegment]():    true,
	reflect.TypeFor[*core.App]():           true,
}

// stateDiff walks two state values field by field and describes the
// first difference, or returns "". It is reflect.DeepEqual with two
// relaxations the walks need: closures compare by presence (owners
// re-bind their handlers on clone and keep the twin's on load), and
// the pointers in notFollowed are not dereferenced. Empty and nil
// collections are equal.
func stateDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			return path + ": closure present on one side only"
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil on one side only"
			}
			return ""
		}
		if a.Kind() == reflect.Pointer && notFollowed[a.Type()] {
			return ""
		}
		if a.Kind() == reflect.Interface && a.Elem().Type() != b.Elem().Type() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Elem().Type(), b.Elem().Type())
		}
		return stateDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := stateDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := stateDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d entries vs %d", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing on one side", path, it.Key())
			}
			if d := stateDiff(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), bv); d != "" {
				return d
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s: unsupported kind %v", path, a.Kind())
	}
	return ""
}

// layerStates returns each layer's embedded state value, keyed by a
// readable name. A System.ResetTo onto a frozen clone covers the
// machine, kernel, system and segments; Clone and the byte image also
// cover the app and the server.
func layerStates(srv *Server, viaSnapshot bool) map[string]reflect.Value {
	field := func(owner any, name string) reflect.Value {
		return reflect.ValueOf(owner).Elem().FieldByName(name)
	}
	out := map[string]reflect.Value{
		"machine": field(srv.S.K.Machine, "machineState"),
		"kernel":  field(srv.S.K, "kernelState"),
		"system":  field(srv.S, "systemState"),
	}
	segs := field(srv.S, "systemState").FieldByName("segs")
	for i := 0; i < segs.Len(); i++ {
		out[fmt.Sprintf("segment %d", i)] = segs.Index(i).Elem().FieldByName("segState")
	}
	if !viaSnapshot {
		out["app"] = field(srv.app, "appState")
		out["server"] = field(srv, "serverState")
	}
	return out
}

func requireSameState(t *testing.T, got, want *Server, viaSnapshot bool) {
	t.Helper()
	g, w := layerStates(got, viaSnapshot), layerStates(want, viaSnapshot)
	if len(g) != len(w) {
		t.Fatalf("%d layer states vs %d", len(g), len(w))
	}
	for name, wv := range w {
		if d := stateDiff(name, g[name], wv); d != "" {
			t.Errorf("%s state differs: %s", name, d)
		}
	}
	a, b := stateOf(got), stateOf(want)
	if viaSnapshot { // a rewind restarts the COW statistics
		a.copies, b.copies = 0, 0
	}
	if a != b {
		t.Errorf("simulated metrics differ:\n got %+v\nwant %+v", a, b)
	}
}

// servedServer boots a server and serves every model. withSegment also
// loads a kernel extension into its own segment, with a non-default
// queue bound and one pending asynchronous request, so the segment
// state is non-trivial; a byte image cannot carry such a segment (its
// twin boot would not create it).
func servedServer(t *testing.T, withSegment bool) *Server {
	t.Helper()
	srv, err := BootServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	if withSegment {
		seg, err := srv.S.NewExtSegment("state", 0)
		if err != nil {
			t.Fatal(err)
		}
		seg.QueueBound = 5
		if _, err := srv.S.Insmod(seg, isa.MustAssemble("tally", `
			.global tally
			.text
			tally:
				mov eax, [counter]
				add eax, [esp+4]
				mov [counter], eax
				ret
			.data
			counter: .word 0
		`)); err != nil {
			t.Fatal(err)
		}
		f, _ := srv.S.ExtensionFunction("tally")
		if _, err := f.Invoke(3); err != nil {
			t.Fatal(err)
		}
		if err := f.InvokeAsync(4); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []Model{Static, CGI, FastCGI, LibCGI, LibCGIProtected} {
		for i := 0; i < 2; i++ {
			if _, err := srv.ServeRequest(m); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
		}
	}
	return srv
}

// TestStateWalksPreserveWholeState: a reset onto a frozen clone, Clone
// and the byte image each reproduce every layer's whole state value,
// not just the metrics stateOf samples, so a field one walk drops fails
// here.
func TestStateWalksPreserveWholeState(t *testing.T) {
	t.Run("snapshot-restore", func(t *testing.T) {
		srv, twin := servedServer(t, true), servedServer(t, true)
		requireSameState(t, srv, twin, true)
		frozen, err := srv.S.Clone()
		if err != nil {
			t.Fatal(err)
		}
		defer frozen.K.Phys.Release()
		f, _ := srv.S.ExtensionFunction("tally")
		f.Seg.QueueBound = 9
		if err := f.InvokeAsync(5); err != nil {
			t.Fatal(err)
		}
		for _, m := range []Model{CGI, LibCGIProtected, Static} {
			if _, err := srv.ServeRequest(m); err != nil {
				t.Fatal(err)
			}
		}
		srv.S.ResetTo(frozen)
		requireSameState(t, srv, twin, true)
	})
	t.Run("clone", func(t *testing.T) {
		srv := servedServer(t, true)
		c, err := srv.Clone()
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, c, srv, false)
	})
	t.Run("bytes", func(t *testing.T) {
		srv := servedServer(t, false)
		r, err := LoadServerBytes(srv.SaveBytes())
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, r, srv, false)
	})
	t.Run("bytes-exited-current", func(t *testing.T) {
		srv := servedServer(t, false)
		k := srv.S.K
		k.Exit(k.Current(), 9)
		r, err := LoadServerBytes(srv.SaveBytes())
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, r, srv, false)
		if p := r.S.K.Current(); !p.Exited || r.S.K.Process(p.PID) != nil || p != r.app.P {
			t.Errorf("restored current process %+v: want the exited application process, in no table", p)
		}
	})
}
