package loader_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/mem"
	"repro/internal/mmu"
)

const magicRet = 0xB000_0000 // break address used as a return target

type env struct {
	t *testing.T
	k *kernel.Kernel
	p *kernel.Process
	d *loader.DL
}

func newEnv(t *testing.T) *env {
	t.Helper()
	k, err := kernel.New(cycles.Measured())
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.CreateProcess()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Touch(k, kernel.StackTop-4*mem.PageSize, 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	return &env{t: t, k: k, p: p, d: loader.NewDL(k, p)}
}

// call runs the simulated function at entry with the given stack
// arguments at CPL 3, returning EAX.
func (e *env) call(entry uint32, args ...uint32) uint32 {
	e.t.Helper()
	m := e.k.Machine
	m.CS = kernel.UCodeSel
	m.DS = kernel.UDataSel
	m.SS = kernel.UDataSel
	m.EIP = entry
	m.Regs[isa.ESP] = kernel.StackTop
	for i := len(args) - 1; i >= 0; i-- {
		if f := m.Push(args[i]); f != nil {
			e.t.Fatalf("push: %v", f)
		}
	}
	if f := m.Push(magicRet); f != nil {
		e.t.Fatalf("push ret: %v", f)
	}
	m.SetBreak(magicRet)
	defer m.ClearBreak(magicRet)
	res := m.Run(cpu.RunLimits{MaxInstructions: 100000})
	if res.Reason != cpu.StopBreak {
		e.t.Fatalf("run stopped: %+v err=%v", res, res.Err)
	}
	return m.Reg(isa.EAX)
}

// str writes a NUL-terminated string into fresh user memory.
func (e *env) str(s string) uint32 {
	e.t.Helper()
	addr, err := e.p.MmapPPL1(e.k, 0, uint32(len(s)+1), true, "str")
	if err != nil {
		e.t.Fatal(err)
	}
	if err := e.k.CopyToUser(e.p, addr, append([]byte(s), 0)); err != nil {
		e.t.Fatal(err)
	}
	return addr
}

func (e *env) read(addr uint32, n int) []byte {
	e.t.Helper()
	b, err := e.k.CopyFromUser(e.p, addr, n)
	if err != nil {
		e.t.Fatal(err)
	}
	return b
}

func TestLoadAndRunLocalSymbols(t *testing.T) {
	e := newEnv(t)
	obj := isa.MustAssemble("m", `
		.global addtwo
		.text
		addtwo:
			mov eax, [esp+4]
			add eax, [twoval]
			ret
		.data
		twoval: .word 2
	`)
	_, im, err := e.d.Dlopen(obj, loader.ExtensionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := e.call(im.Syms["addtwo"], 40); got != 42 {
		t.Errorf("addtwo(40) = %d", got)
	}
}

func TestCrossModuleCallThroughPLT(t *testing.T) {
	e := newEnv(t)
	libObj := isa.MustAssemble("lib", `
		.global double
		.text
		double:
			mov eax, [esp+4]
			add eax, eax
			ret
	`)
	if _, _, err := e.d.Dlopen(libObj, loader.LibraryOptions()); err != nil {
		t.Fatal(err)
	}
	useObj := isa.MustAssemble("use", `
		.global quad
		.text
		quad:
			push dword_arg    ; placeholder to keep stack layout simple
			pop eax
			mov eax, [esp+4]
			push eax
			call double
			add esp, 4
			push eax
			call double
			add esp, 4
			ret
		.data
		dword_arg: .word 0
	`)
	_, im, err := e.d.Dlopen(useObj, loader.ExtensionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(im.PLT) != 1 {
		t.Fatalf("PLT entries = %v, want 1 (double)", im.PLT)
	}
	if got := e.call(im.Syms["quad"], 5); got != 20 {
		t.Errorf("quad(5) = %d, want 20", got)
	}
}

func TestGOTIsPageAlignedAndSealed(t *testing.T) {
	e := newEnv(t)
	lib := isa.MustAssemble("lib", `
		.global f
		.text
		f: ret
	`)
	e.d.Dlopen(lib, loader.LibraryOptions())
	use := isa.MustAssemble("use", `
		.global g
		.text
		g:
			call f
			ret
	`)
	_, im, err := e.d.Dlopen(use, loader.LibraryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if im.GOTBase&mem.PageMask != 0 {
		t.Errorf("GOT at %#x: not page aligned", im.GOTBase)
	}
	// Sealed: a simulated CPL-3 write to the GOT faults (this is what
	// protects the application from GOT-corruption attacks).
	writer := isa.MustAssemble("writer", `
		.global smash
		.text
		smash:
			mov eax, [esp+4]
			mov [eax], 0
			ret
	`)
	_, wim, err := e.d.Dlopen(writer, loader.ExtensionOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := e.k.Machine
	m.CS = kernel.UCodeSel
	m.DS = kernel.UDataSel
	m.SS = kernel.UDataSel
	m.EIP = wim.Syms["smash"]
	m.Regs[isa.ESP] = kernel.StackTop
	m.Push(im.GOTBase)
	m.Push(magicRet)
	res := m.Run(cpu.RunLimits{MaxInstructions: 100})
	if res.Reason != cpu.StopFault || res.Fault.Kind != mmu.PF {
		t.Fatalf("GOT write = %+v, want #PF (read-only GOT)", res)
	}
	// But it remains readable (the PLT jumps through it).
	if got := e.call(im.Syms["g"]); got != m.Reg(isa.EAX) {
		t.Logf("g() executed fine: %d", got)
	}
}

func TestUnresolvedSymbolError(t *testing.T) {
	e := newEnv(t)
	obj := isa.MustAssemble("bad", `
		.text
		f: call missing
		ret
	`)
	if _, _, err := e.d.Dlopen(obj, loader.ExtensionOptions()); err == nil ||
		!strings.Contains(err.Error(), "unresolved") {
		t.Errorf("err = %v, want unresolved symbol", err)
	}
}

func TestDlsymAndDlclose(t *testing.T) {
	e := newEnv(t)
	obj := isa.MustAssemble("m", `
		.global fn
		.text
		fn: mov eax, 7
		ret
		.data
		.global dat
		dat: .word 9
	`)
	h, im, err := e.d.Dlopen(obj, loader.ExtensionOptions())
	if err != nil {
		t.Fatal(err)
	}
	fnAddr, err := e.d.Dlsym(h, "fn")
	if err != nil || fnAddr != im.Syms["fn"] {
		t.Fatalf("dlsym fn = %#x, %v", fnAddr, err)
	}
	if _, err := e.d.Dlsym(h, "nosuch"); err == nil {
		t.Error("dlsym of missing symbol must fail")
	}
	datAddr, _ := e.d.Dlsym(h, "dat")
	if got := e.read(datAddr, 4); got[0] != 9 {
		t.Errorf("dat = %v", got)
	}
	if got := e.call(fnAddr); got != 7 {
		t.Errorf("fn() = %d", got)
	}
	if err := e.d.Dlclose(h); err != nil {
		t.Fatal(err)
	}
	if _, err := e.d.Dlsym(h, "fn"); err == nil {
		t.Error("dlsym after dlclose must fail")
	}
	// Text removed: executing the old address faults.
	m := e.k.Machine
	m.CS = kernel.UCodeSel
	m.DS = kernel.UDataSel
	m.SS = kernel.UDataSel
	m.EIP = fnAddr
	m.Regs[isa.ESP] = kernel.StackTop
	res := m.Run(cpu.RunLimits{MaxInstructions: 10})
	if res.Reason != cpu.StopFault {
		t.Errorf("running unloaded code = %+v, want fault", res)
	}
	if e.d.Dlclose(h) == nil {
		t.Error("double dlclose must fail")
	}
}

func TestDlopenCostNearPaperFigure(t *testing.T) {
	// Paper 5.1: dlopen of the null extension takes about 400 us on a
	// 200 MHz machine = 80,000 cycles. Accept a +-25% band.
	e := newEnv(t)
	obj := isa.MustAssemble("null", `
		.global nullfn
		.text
		nullfn:
			push ebp
			mov ebp, esp
			pop ebp
			ret
	`)
	before := e.k.Clock.Cycles()
	if _, _, err := e.d.Dlopen(obj, loader.ExtensionOptions()); err != nil {
		t.Fatal(err)
	}
	cost := e.k.Clock.Cycles() - before
	us := e.k.Clock.Micros(cost)
	if us < 300 || us > 500 {
		t.Errorf("dlopen = %.1f us, paper reports ~400 us", us)
	}
}

func TestGlobalsVisibleAcrossLoadsAndRemovedOnClose(t *testing.T) {
	e := newEnv(t)
	a := isa.MustAssemble("a", `
		.global af
		.text
		af: ret
	`)
	h, _, _ := e.d.Dlopen(a, loader.LibraryOptions())
	if _, ok := e.d.Resolve("af"); !ok {
		t.Fatal("af not published")
	}
	e.d.Dlclose(h)
	if _, ok := e.d.Resolve("af"); ok {
		t.Error("af still resolvable after dlclose")
	}
}

func TestDefineFeedsResolution(t *testing.T) {
	e := newEnv(t)
	e.d.Define("ext_service", 0x1234_0000)
	if a, ok := e.d.Resolve("ext_service"); !ok || a != 0x1234_0000 {
		t.Error("Define/Resolve broken")
	}
}

// --- libc ---

func loadLibc(e *env) *loader.Image {
	e.t.Helper()
	_, im, err := e.d.Dlopen(loader.Libc(), loader.LibraryOptions())
	if err != nil {
		e.t.Fatal(err)
	}
	return im
}

func TestLibcStrlen(t *testing.T) {
	e := newEnv(t)
	im := loadLibc(e)
	s := e.str("palladium")
	if got := e.call(im.Syms["strlen"], s); got != 9 {
		t.Errorf("strlen = %d, want 9", got)
	}
	empty := e.str("")
	if got := e.call(im.Syms["strlen"], empty); got != 0 {
		t.Errorf("strlen(\"\") = %d", got)
	}
}

func TestLibcStrcpy(t *testing.T) {
	e := newEnv(t)
	im := loadLibc(e)
	src := e.str("hello")
	dst, _ := e.p.MmapPPL1(e.k, 0, 16, true, "dst")
	e.p.Touch(e.k, dst, 16)
	ret := e.call(im.Syms["strcpy"], dst, src)
	if ret != dst {
		t.Errorf("strcpy returned %#x, want dst %#x", ret, dst)
	}
	if got := string(e.read(dst, 5)); got != "hello" {
		t.Errorf("copied = %q", got)
	}
}

func TestLibcStrcmp(t *testing.T) {
	e := newEnv(t)
	im := loadLibc(e)
	a, b, c := e.str("abc"), e.str("abc"), e.str("abd")
	if got := int32(e.call(im.Syms["strcmp"], a, b)); got != 0 {
		t.Errorf("strcmp(abc,abc) = %d", got)
	}
	if got := int32(e.call(im.Syms["strcmp"], a, c)); got >= 0 {
		t.Errorf("strcmp(abc,abd) = %d, want negative", got)
	}
	if got := int32(e.call(im.Syms["strcmp"], c, a)); got <= 0 {
		t.Errorf("strcmp(abd,abc) = %d, want positive", got)
	}
}

func TestLibcMemcpyMemset(t *testing.T) {
	e := newEnv(t)
	im := loadLibc(e)
	src := e.str("0123456789")
	dst, _ := e.p.MmapPPL1(e.k, 0, 32, true, "dst")
	e.p.Touch(e.k, dst, 32)
	e.call(im.Syms["memcpy"], dst, src, 10)
	if got := string(e.read(dst, 10)); got != "0123456789" {
		t.Errorf("memcpy = %q", got)
	}
	e.call(im.Syms["memset"], dst, uint32('x'), 4)
	if got := string(e.read(dst, 10)); got != "xxxx456789" {
		t.Errorf("memset = %q", got)
	}
}

func TestLibcBufferingRoutineStateful(t *testing.T) {
	// bufput keeps state in libc's data section: two calls advance
	// the counter. (At SPL 3 with a promoted app this data would be
	// PPL 0 and the call would fault — that scenario is exercised in
	// the core package's tests.)
	e := newEnv(t)
	im := loadLibc(e)
	if got := e.call(im.Syms["bufput"], uint32('a')); got != 1 {
		t.Errorf("first bufput = %d", got)
	}
	if got := e.call(im.Syms["bufput"], uint32('b')); got != 2 {
		t.Errorf("second bufput = %d", got)
	}
	if got := e.call(im.Syms["bufcount"]); got != 2 {
		t.Errorf("bufcount = %d", got)
	}
}

func TestImageLookupAndExterns(t *testing.T) {
	obj := isa.MustAssemble("x", `
		.text
		f: call g
		ret
	`)
	if s := obj.Symbol("g"); s == nil || s.Section != isa.SecUndef {
		t.Errorf("g = %+v, want an undefined extern", s)
	}
	if f := obj.Symbol("f"); f == nil || f.Section != isa.SecText {
		t.Errorf("f = %+v, want a text symbol", f)
	}
}

// recordSpace is a loader.Space that hands out ranges from a fixed base
// and records everything a Load writes into it.
type recordSpace struct {
	next     uint32
	ranges   []string
	writes   map[uint32][]byte
	text     map[uint32][]isa.Instr
	readOnly []uint32
}

func newRecordSpace() *recordSpace {
	return &recordSpace{next: 0x4000_0000, writes: map[uint32][]byte{}, text: map[uint32][]isa.Instr{}}
}

func (s *recordSpace) AllocRange(size uint32, name string, writable, ppl1 bool) (uint32, error) {
	base := s.next
	s.next += (size + mem.PageSize - 1) &^ mem.PageMask
	s.ranges = append(s.ranges, name)
	return base, nil
}
func (s *recordSpace) FreeRange(uint32) error { return nil }
func (s *recordSpace) Write(addr uint32, b []byte) error {
	s.writes[addr] = append([]byte(nil), b...)
	return nil
}
func (s *recordSpace) InstallText(addr uint32, text []isa.Instr) error {
	s.text[addr] = append([]isa.Instr(nil), text...)
	return nil
}
func (s *recordSpace) RemoveText(uint32, int) error { return nil }
func (s *recordSpace) SetWritable(addr, size uint32, writable bool) error {
	s.readOnly = append(s.readOnly, addr)
	return nil
}

// TestLoadLeavesObjectUnchanged loads one object twice, each time into
// a fresh space with the same layout. Every relocation kind applies
// (text displacement and immediate, a data word, a PLT call, an extern
// bound directly), so a Load that relocated the caller's text or data
// in place would change the object and load the second image
// relocated twice.
func TestLoadLeavesObjectUnchanged(t *testing.T) {
	obj := isa.MustAssemble("twice", `
		.global f
		.text
		f:
			mov eax, [counter]
			add eax, [ext_word]
			push table
			call ext_fn
			add esp, 4
			mov [counter], eax
			jmp done
		done:
			ret
		.data
		table: .word 1, f, counter
		.bss
		counter: .space 4
	`)
	before := obj.Clone()
	resolve := func(name string) (uint32, bool) {
		switch name {
		case "ext_fn":
			return 0x0800_1000, true
		case "ext_word":
			return 0x0800_2000, true
		}
		return 0, false
	}
	var spaces [2]*recordSpace
	var images [2]*loader.Image
	for i := range images {
		spaces[i] = newRecordSpace()
		im, err := loader.Load(obj, spaces[i], resolve, loader.LibraryOptions())
		if err != nil {
			t.Fatal(err)
		}
		images[i] = im
	}
	if !reflect.DeepEqual(obj.Text, before.Text) || !reflect.DeepEqual(obj.Data, before.Data) ||
		!reflect.DeepEqual(obj.Symbols, before.Symbols) || !reflect.DeepEqual(obj.Relocs, before.Relocs) {
		t.Fatal("Load changed the object it loaded")
	}
	if !reflect.DeepEqual(images[0], images[1]) || !reflect.DeepEqual(spaces[0], spaces[1]) {
		t.Fatalf("second load differs from the first:\n%+v\n%+v", spaces[0], spaces[1])
	}
	if len(images[0].PLT) != 1 || len(spaces[0].writes) == 0 {
		t.Fatalf("object did not exercise the PLT and data paths: PLT %v, writes %v", images[0].PLT, spaces[0].writes)
	}
}
