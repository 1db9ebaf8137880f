package core

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// Reserved app-space addresses (below the 3 GB user limit).
const (
	// appRetBreak is the sentinel return address for protected calls:
	// when the AppCallGate stub's final ret lands here, control is
	// back in the trusted application.
	appRetBreak = 0xB7FE_0000
	// appSvcBase is where application-service endpoints are allocated.
	appSvcBase = 0xB7FD_0000
)

// ErrExtensionFault reports that an extension invocation was aborted
// because the extension violated its protection domain; the
// application received SIGSEGV (Section 4.5.2).
var ErrExtensionFault = errors.New("palladium: extension protection violation")

// ErrTimeLimit reports that an extension exceeded its per-invocation
// CPU-time limit and was aborted.
var ErrTimeLimit = errors.New("palladium: extension time limit exceeded")

// App is an extensible application: a trusted core program (Go code)
// plus the Palladium machinery for loading and invoking untrusted
// SPL-3 extensions in its own address space.
type App struct {
	S  *System
	P  *kernel.Process
	DL *loader.DL
	// Libc is the shared C library mapped per Section 4.4.1: text at
	// PPL 1 (extensions call non-buffering routines directly), data
	// at PPL 0.
	Libc *loader.Image

	appState
}

// appState is every simulated field of an App, declared once.
type appState struct {
	promoted bool
	spSave   uint32 // SP2 save slot (PPL 0)
	bpSave   uint32 // BP2 save slot

	extStackTop uint32
	argSlot     uint32

	appGateSel  mmu.Selector
	gateAddr    uint32
	callStack   uint32 // app-side stack top for protected-call stubs
	svcNext     uint32
	xheap       uint32
	xheapEnd    uint32
	maxInstr    uint64
	handleCount int

	// intraCaller is the lazily built stub used by the Table-1
	// intra-domain measurement.
	intraCaller uint32
	intraTarget uint32

	stubs *stubArena
}

// ProtectedFunc is what seg_dlsym returns: a handle whose address is
// the extension function's Prepare routine rather than the function
// itself (Section 4.5.1).
type ProtectedFunc struct {
	App  *App
	Name string
	// Stub and function addresses (exported for the measurement
	// harness that regenerates Table 1).
	PrepareAddr  uint32
	TransferAddr uint32
	FnAddr       uint32
}

// NewApp creates a process hosting an extensible application and maps
// the shared libc.
func NewApp(s *System) (*App, error) {
	p, err := s.K.CreateProcess()
	if err != nil {
		return nil, err
	}
	a := &App{S: s, P: p, appState: appState{maxInstr: 10_000_000}}
	a.DL = loader.NewDL(s.K, p)
	if _, a.Libc, err = a.DL.Dlopen(loader.Libc(), loader.LibraryOptions()); err != nil {
		return nil, fmt.Errorf("palladium: mapping libc: %w", err)
	}
	return a, nil
}

// InitPL promotes the application to SPL 2 (Section 4.4.1): all its
// writable pages drop to PPL 0, the extension stack and the
// stack-pointer save area are created, and the per-application
// AppCallGate routine and its call gate are installed.
func (a *App) InitPL() error {
	if a.promoted {
		return fmt.Errorf("palladium: init_PL called twice")
	}
	k, p := a.S.K, a.P
	if err := k.InitPL(p); err != nil {
		return err
	}

	// Save area for the application's stack/base pointers: one
	// writable page => PPL 0, invisible to extensions.
	save, err := p.Mmap(k, 0, mem.PageSize, true, "palladium.save")
	if err != nil {
		return err
	}
	if err := p.Touch(k, save, mem.PageSize); err != nil {
		return err
	}
	a.spSave, a.bpSave = save, save+4

	// The extension stack: PPL 1 so SPL-3 code can use it. One stack
	// per application; extensions run to completion, single threaded.
	xstack, err := p.MmapPPL1(k, 0, 16*mem.PageSize, true, "palladium.xstack")
	if err != nil {
		return err
	}
	if err := p.Touch(k, xstack, 16*mem.PageSize); err != nil {
		return err
	}
	a.extStackTop = xstack + 16*mem.PageSize
	a.argSlot = a.extStackTop - 4

	// The extension heap backing xmalloc (Section 4.4.2).
	xheap, err := p.MmapPPL1(k, 0, 64*mem.PageSize, true, "palladium.xheap")
	if err != nil {
		return err
	}
	if err := p.Touch(k, xheap, 64*mem.PageSize); err != nil {
		return err
	}
	a.xheap, a.xheapEnd = xheap, xheap+64*mem.PageSize

	// Application-side stack used while the Prepare stub runs.
	if err := p.Touch(k, kernel.StackTop-4*mem.PageSize, 4*mem.PageSize); err != nil {
		return err
	}
	a.callStack = kernel.StackTop

	// Stub arena (read-only, PPL 1: extensions may fetch stub code,
	// which is harmless — lret cannot raise privilege).
	a.stubs, err = newStubArena(a.DL.Space(), "palladium.stubs", 16*mem.PageSize)
	if err != nil {
		return err
	}
	syms, err := a.stubs.add("appcallgate", appCallGateSrc(a.spSave, a.bpSave))
	if err != nil {
		return err
	}
	a.gateAddr = syms["appcallgate"]
	a.appGateSel, err = k.InstallCallGate(3, kernel.ACodeSel, a.gateAddr)
	if err != nil {
		return err
	}
	a.svcNext = appSvcBase
	a.promoted = true
	return nil
}

// SegDlopen is the safe dynamic-loading entry point (Section 4.4.2):
// dlopen with extension placement (everything at PPL 1) plus the PPL
// marking pass whose cost makes seg_dlopen slightly dearer than plain
// dlopen (420 vs 400 microseconds in the paper).
func (a *App) SegDlopen(obj *isa.Object) (int, error) {
	if !a.promoted {
		return 0, fmt.Errorf("palladium: seg_dlopen before init_PL")
	}
	h, im, err := a.DL.Dlopen(obj, loader.ExtensionOptions())
	if err != nil {
		return 0, err
	}
	// PPL marking of the module's pages (already PPL 1 by placement;
	// the explicit pass reproduces the marking cost).
	k := a.S.K
	pages := (im.TextLen*isa.InstrSlot + int(im.DataSize) + int(im.GOTSize)) / mem.PageSize
	k.Clock.Add(k.Costs.PPLMarkStart + k.Costs.PPLMarkPerPage*float64(pages+1))
	a.handleCount++
	return h, nil
}

// SegDlsym resolves an extension *function* symbol: it synthesizes the
// function's Prepare and Transfer routines and returns a handle whose
// callable address is Prepare. Data symbols must use Dlsym instead
// (Section 4.4.2).
func (a *App) SegDlsym(handle int, name string) (*ProtectedFunc, error) {
	if !a.promoted {
		return nil, fmt.Errorf("palladium: seg_dlsym before init_PL")
	}
	fnAddr, err := a.DL.Dlsym(handle, name)
	if err != nil {
		return nil, err
	}
	src := prepareTransferSrc(
		a.argSlot, a.spSave, a.bpSave,
		uint32(kernel.UDataSel), a.argSlot,
		uint32(kernel.UCodeSel),
		fnAddr, uint16(a.appGateSel),
	)
	syms, err := a.stubs.addPrepareTransfer(name, src)
	if err != nil {
		return nil, err
	}
	return &ProtectedFunc{
		App: a, Name: name,
		PrepareAddr: syms.Prepare, TransferAddr: syms.Transfer, FnAddr: fnAddr,
	}, nil
}

// Dlsym resolves a data symbol to its raw address (pointers to data
// need no massaging because application and extension segments share
// the same base).
func (a *App) Dlsym(handle int, name string) (uint32, error) {
	return a.DL.Dlsym(handle, name)
}

// SegDlclose unloads an extension module.
func (a *App) SegDlclose(handle int) error { return a.DL.Dlclose(handle) }

// SharedAlloc maps a shared data area visible to both the application
// and its extensions. The size must be a multiple of the page size
// (Section 4.4.1: "the size of the shared data area be a multiple of
// the page size").
func (a *App) SharedAlloc(n uint32) (uint32, error) {
	if n == 0 || n%mem.PageSize != 0 {
		return 0, fmt.Errorf("palladium: shared area size %d not a multiple of the page size", n)
	}
	addr, err := a.P.MmapPPL1(a.S.K, 0, n, true, "palladium.shared")
	if err != nil {
		return 0, err
	}
	if err := a.P.Touch(a.S.K, addr, n); err != nil {
		return 0, err
	}
	return addr, nil
}

// WriteMem / ReadMemInto give the trusted application access to its own
// address space (it is Go code; real applications would just
// dereference).
func (a *App) WriteMem(addr uint32, b []byte) error {
	return a.S.K.CopyToUser(a.P, addr, b)
}

// ReadMemInto reads len(buf) bytes at addr into a caller-owned buffer.
func (a *App) ReadMemInto(addr uint32, buf []byte) error {
	return a.S.K.CopyFromUserInto(a.P, addr, buf)
}

// WriteString writes a NUL-terminated string.
func (a *App) WriteString(addr uint32, s string) error {
	return a.WriteMem(addr, append([]byte(s), 0))
}

// Call invokes a protected extension function: the full Figure-6 cycle
// (Prepare -> lret -> Transfer -> function -> Transfer -> lcall ->
// AppCallGate -> ret). Faults and time-limit violations abort the
// extension and surface as errors after SIGSEGV/SIGXCPU delivery.
func (pf *ProtectedFunc) Call(arg uint32) (uint32, error) {
	a := pf.App
	if !a.promoted {
		return 0, fmt.Errorf("palladium: call before init_PL")
	}
	k := a.S.K
	k.Switch(a.P)
	m := k.Machine
	saved := m.SaveContext()
	defer m.RestoreContext(saved)

	m.CS = kernel.ACodeSel
	m.DS = kernel.UDataSel
	m.ES = kernel.UDataSel
	m.SS = kernel.ADataSel
	m.Regs[isa.ESP] = a.callStack
	m.EIP = pf.PrepareAddr
	if f := m.Push(arg); f != nil {
		return 0, f
	}
	if f := m.Push(appRetBreak); f != nil {
		return 0, f
	}
	m.SetBreak(appRetBreak)
	defer m.ClearBreak(appRetBreak)

	// Arm the per-invocation CPU-time limit (Section 4.5.2). The
	// kernel's built-in limiter replaces a per-call tick-subscriber
	// closure, keeping the steady-state serving path allocation-free.
	prevLimit := k.ArmExtLimit(k.Clock.Cycles() + k.ExtTimeLimit)
	defer k.DisarmExtLimit(prevLimit)

	for {
		res := m.Run(cpu.RunLimits{MaxInstructions: a.maxInstr})
		switch res.Reason {
		case cpu.StopBreak:
			return m.Reg(isa.EAX), nil
		case cpu.StopFault:
			switch k.HandleFault(a.P, res.Fault) {
			case kernel.Retry:
				continue
			case kernel.SignalDelivered:
				// Both the sentinel and the hardware fault are wrapped
				// (the message is unchanged) so callers — notably the
				// sandbox fault taxonomy — can errors.As the *mmu.Fault
				// out of the chain.
				return 0, fmt.Errorf("%w: %w", ErrExtensionFault, res.Fault)
			default:
				return 0, res.Fault
			}
		case cpu.StopError:
			if errors.Is(res.Err, kernel.ErrExtTimeBudget) || errors.Is(res.Err, ErrTimeLimit) {
				k.DeliverSignal(a.P, kernel.SignalInfo{Sig: kernel.SIGXCPU, Reason: "extension time limit"})
				return 0, ErrTimeLimit
			}
			return 0, res.Err
		default:
			return 0, fmt.Errorf("palladium: extension run stopped: %v", res.Reason)
		}
	}
}

// CallUnprotected invokes the raw extension function with an ordinary
// intra-domain call at the application's privilege level — the
// baseline Table 1 and Table 2 compare against. It bypasses every
// Palladium transfer stub.
func (a *App) CallUnprotected(fnAddr uint32, arg uint32) (uint32, error) {
	k := a.S.K
	k.Switch(a.P)
	m := k.Machine
	saved := m.SaveContext()
	defer m.RestoreContext(saved)

	m.CS = kernel.ACodeSel
	m.DS = kernel.UDataSel
	m.ES = kernel.UDataSel
	m.SS = kernel.ADataSel
	m.Regs[isa.ESP] = a.callStack
	m.Regs[isa.ECX] = arg
	m.EIP = fnAddr
	if f := m.Push(arg); f != nil {
		return 0, f
	}
	if f := m.Push(appRetBreak); f != nil {
		return 0, f
	}
	m.SetBreak(appRetBreak)
	defer m.ClearBreak(appRetBreak)
	for {
		res := m.Run(cpu.RunLimits{MaxInstructions: a.maxInstr})
		switch res.Reason {
		case cpu.StopBreak:
			return m.Reg(isa.EAX), nil
		case cpu.StopFault:
			if k.HandleFault(a.P, res.Fault) == kernel.Retry {
				continue
			}
			return 0, res.Fault
		case cpu.StopError:
			// Surface run errors (e.g. an adapter-armed time limit)
			// unwrapped so errors.Is can classify them.
			return 0, res.Err
		default:
			return 0, fmt.Errorf("palladium: unprotected run stopped: %v (%v)", res.Reason, res.Err)
		}
	}
}
