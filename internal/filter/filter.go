// Package filter implements the packet-filtering application of
// Section 5.2: a compiled filter that runs as a Palladium kernel
// extension at native speed, compared against the interpreted BPF
// filter used by tcpdump. Figure 7 plots both for conjunction rules of
// 0-4 terms.
package filter

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/sandbox"
)

// HeaderLen is how many packet bytes the kernel stages into the
// extension's shared data area (an Ethernet + IPv4 header's worth).
const HeaderLen = 34

// MakeUDPPacket builds a deterministic synthetic Ethernet/IPv4/UDP
// packet of the given total length.
func MakeUDPPacket(srcPort, dstPort uint16, length int) []byte {
	if length < 42 {
		length = 42
	}
	p := make([]byte, length)
	for i := range p {
		p[i] = byte(i*13 + 7)
	}
	// Ethernet: dst 0-5, src 6-11, ethertype 12-13.
	p[12], p[13] = 0x08, 0x00
	// IPv4 header at 14: version/ihl, ..., protocol at 23.
	p[14] = 0x45
	p[23] = 17 // UDP
	// UDP ports at 34-37.
	p[34], p[35] = byte(srcPort>>8), byte(srcPort)
	p[36], p[37] = byte(dstPort>>8), byte(dstPort)
	return p
}

// TermsTrueFor builds n conjunction terms that are all true for pkt —
// the Figure-7 workload ("a varying number of terms linked by a
// conjunction, when all terms are true").
func TermsTrueFor(pkt []byte, n int) []bpf.Term {
	candidates := []bpf.Term{
		{Offset: 12, Size: 2, Value: uint32(pkt[12])<<8 | uint32(pkt[13])}, // ethertype
		{Offset: 23, Size: 1, Value: uint32(pkt[23])},                      // IP protocol
		{Offset: 14, Size: 1, Value: uint32(pkt[14])},                      // version/ihl
		{Offset: 30, Size: 1, Value: uint32(pkt[30])},                      // dst addr byte
		{Offset: 26, Size: 1, Value: uint32(pkt[26])},                      // src addr byte
		{Offset: 31, Size: 1, Value: uint32(pkt[31])},
	}
	if n > len(candidates) {
		n = len(candidates)
	}
	return candidates[:n]
}

// Evaluator is a packet filter with a cycle-accounted Match. There is
// exactly one implementation — *Filter, a sandbox.Extension plus a
// staging policy — shared by the serial Figure 7 harness, the
// benchmark's invoke workload and the workload×backend matrix test, so
// every isolation mechanism's filter goes through the same dispatch
// type.
type Evaluator interface {
	Match(pkt []byte) (bool, error)
	Name() string
}

// Filter adapts a sandbox.Extension to the packet-filter workload:
// Match stages the packet into the extension's view and invokes it.
type Filter struct {
	name string
	ext  sandbox.Extension
	// Seg is the kernel extension segment confining the compiled
	// filter (nil for backends without one); tests inspect its
	// descriptors.
	Seg *core.ExtSegment
	// headerOnly stages only the HeaderLen-byte header, modeling the
	// kernel copying packet headers into the extension's shared area;
	// false hands the interpreter the packet the kernel already
	// holds.
	headerOnly bool
}

// NewFilter wraps an arbitrary sandbox extension as a packet filter,
// so the same filter program runs under backends the paper never
// measured.
func NewFilter(name string, ext sandbox.Extension, headerOnly bool) *Filter {
	f := &Filter{name: name, ext: ext, headerOnly: headerOnly}
	if seg, ok := ext.(interface{ Segment() *core.ExtSegment }); ok {
		f.Seg = seg.Segment()
	}
	return f
}

// Match implements Evaluator: stage the packet (or its header), then
// invoke the extension with the staged byte count.
func (f *Filter) Match(pkt []byte) (bool, error) {
	b := pkt
	if f.headerOnly {
		n := HeaderLen
		if n > len(pkt) {
			n = len(pkt)
		}
		b = pkt[:n]
	}
	if st, ok := f.ext.(sandbox.Stager); ok {
		if err := st.Stage(b); err != nil {
			return false, err
		}
	}
	v, err := f.ext.Invoke(uint32(len(b)))
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// Name implements Evaluator.
func (f *Filter) Name() string { return f.name }

// Extension exposes the backing sandbox extension.
func (f *Filter) Extension() sandbox.Extension { return f.ext }

// NewInterpreted validates and installs an interpreted filter: the
// bpf sandbox backend, the kernel interpreting the filter over the
// packet it already holds.
func NewInterpreted(s *core.System, terms []bpf.Term) (*Filter, error) {
	b, err := sandbox.Open("bpf", sandbox.HostFor(s))
	if err != nil {
		return nil, err
	}
	ext, err := b.Load(nil, sandbox.LoadOptions{BPF: bpf.Conjunction(terms)})
	if err != nil {
		return nil, err
	}
	return NewFilter("BPF", ext, false), nil
}

// compiledSeq disambiguates the entry symbols of compiled filters; it
// is atomic because independent machines may compile filters
// concurrently.
var compiledSeq atomic.Int64

// CompileObject compiles the conjunction for the given terms to a
// native extension object whose entry reads staged packet bytes from
// the `shared_area` module symbol — loadable under any native
// backend. It returns the object and its entry symbol. Compilation
// and assembly are memoized per program shape (the source embeds a
// fixed entry name); only the post-clone symbol rename is per call,
// so the per-load entry symbols stay unique across a system's
// Extension Function Table.
func CompileObject(terms []bpf.Term) (*isa.Object, string, error) {
	prog := bpf.Conjunction(terms)
	text, err := bpf.Compile(prog, "pfilter", "shared_area")
	if err != nil {
		return nil, "", err
	}
	src := text + "\n.data\n.global shared_area\nshared_area: .space 2048\n"
	obj, err := isa.AssembleCached("pfilter", src)
	if err != nil {
		return nil, "", fmt.Errorf("filter: assembling compiled filter: %w", err)
	}
	obj = obj.Clone() // the cached object is read-only
	entry := fmt.Sprintf("pfilter_%d", compiledSeq.Add(1))
	if !obj.RenameSymbol("pfilter", entry) {
		return nil, "", fmt.Errorf("filter: compiled filter lacks its entry symbol")
	}
	return obj, entry, nil
}

// NewCompiled compiles the conjunction and loads it through the
// palladium-kernel sandbox backend: a fresh extension segment, the
// module insmod'ed into it, packet headers staged into its shared
// area by the kernel.
func NewCompiled(s *core.System, terms []bpf.Term) (*Filter, error) {
	obj, entry, err := CompileObject(terms)
	if err != nil {
		return nil, err
	}
	b, err := sandbox.Open("palladium-kernel", sandbox.HostFor(s))
	if err != nil {
		return nil, err
	}
	ext, err := b.Load(obj, sandbox.LoadOptions{Entry: entry, SharedSymbol: "shared_area"})
	if err != nil {
		return nil, err
	}
	return NewFilter("Palladium", ext, true), nil
}

// MeasureMatch returns the cycles one Match consumes (after a warm-up
// call, as in the paper's cache-warm methodology).
func MeasureMatch(s *core.System, f Evaluator, pkt []byte) (float64, error) {
	if _, err := f.Match(pkt); err != nil {
		return 0, err
	}
	start := s.K.Clock.Cycles()
	if _, err := f.Match(pkt); err != nil {
		return 0, err
	}
	return s.K.Clock.Cycles() - start, nil
}
