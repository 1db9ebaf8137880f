package experiments

import (
	"errors"
	"testing"

	"repro/internal/bpf"
	"repro/internal/filter"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/verify"
	"repro/sandbox"
)

// cgiScriptSrc is the Table 3 LibCGI script: it reads the request word
// the server staged at the shared address it is passed, writes the
// response status and length beside it, and returns the status.
const cgiScriptSrc = `
	.global cgi_script
	.text
	cgi_script:
		mov eax, [esp+4]      ; shared area address
		mov ecx, [eax]        ; request: file length
		mov [eax+4], 200      ; response: status
		mov [eax+8], ecx      ; response: content length
		mov eax, 200
		ret
`

// kernelCGIScriptSrc adds an in-module data area, so the script can
// run inside a kernel extension segment: addresses are
// segment-relative there, and the staged area must live inside the
// segment.
const kernelCGIScriptSrc = cgiScriptSrc + `
	.data
	.global cgi_env
	cgi_env: .space 1024
`

// matrixCell is one workload × backend combination: whether the paper's
// evaluation measured it, and whether the backend can express the
// workload at all (an unsupported cell must fail to load).
type matrixCell struct {
	workload  string
	backend   string
	inPaper   bool
	supported bool
}

func (c matrixCell) key() string { return c.workload + "/" + c.backend }

// matrixCells covers both evaluation workloads under every registered
// backend, including the combinations the paper never measured. The
// paper measured four: Figure 7's interpreted and compiled filters and
// Table 3's unprotected and protected LibCGI.
var matrixCells = []matrixCell{
	{"packet-filter", "bpf", true, true},
	{"packet-filter", "direct", false, true},
	{"packet-filter", "palladium-kernel", true, true},
	{"packet-filter", "palladium-user", false, true},
	{"packet-filter", "rpc", false, true},
	{"packet-filter", "sfi", false, true},
	{"libcgi", "bpf", false, false}, // BPF bytecode cannot encode the script
	{"libcgi", "direct", true, true},
	{"libcgi", "palladium-kernel", false, true},
	{"libcgi", "palladium-user", true, true},
	{"libcgi", "rpc", false, true},
	{"libcgi", "sfi", false, true},
}

// cellsFor restricts the matrix to the named backends.
func cellsFor(backends ...string) []matrixCell {
	var cells []matrixCell
	for _, c := range matrixCells {
		for _, b := range backends {
			if c.backend == b {
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// newSandboxHost boots a fresh host with one user process.
func newSandboxHost(t *testing.T) *sandbox.Host {
	t.Helper()
	h, err := sandbox.NewHost()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Sys.K.CreateProcess(); err != nil {
		t.Fatal(err)
	}
	return h
}

// loadCell boots a fresh host and loads the cell's workload under its
// backend with the verifier on. It returns the extension and one
// operation (a packet match or a CGI invocation) that yields the
// workload's sanity value: filter verdict 1 or HTTP status 200.
func loadCell(t *testing.T, workload, backend string) (*sandbox.Host, sandbox.Extension, func() (uint32, error), error) {
	t.Helper()
	h := newSandboxHost(t)
	b, err := sandbox.Open(backend, h)
	if err != nil {
		t.Fatal(err)
	}
	switch workload {
	case "packet-filter":
		pkt := filter.MakeUDPPacket(1234, 53, 64)
		terms := filter.TermsTrueFor(pkt, 4)
		var ext sandbox.Extension
		if backend == "bpf" {
			// The interpreter runs over the packet the kernel holds.
			ext, err = b.Load(nil, sandbox.WithVerify(sandbox.LoadOptions{BPF: bpf.Conjunction(terms)}))
		} else {
			obj, entry, cerr := filter.CompileObject(terms)
			if cerr != nil {
				t.Fatal(cerr)
			}
			opts := sandbox.LoadOptions{Entry: entry, SharedSymbol: "shared_area"}
			if backend != "palladium-kernel" {
				opts.ReqBytes, opts.RespBytes = filter.HeaderLen, 4
			}
			if backend == "sfi" {
				// The filter only loads packet bytes, so write-only
				// guards would guard nothing.
				opts.SFI = sandbox.DefaultSFIRegion
				opts.SFI.GuardReads = true
			}
			ext, err = b.Load(obj, sandbox.WithVerify(opts))
		}
		if err != nil {
			return h, nil, nil, err
		}
		fil := filter.NewFilter(backend, ext, backend != "bpf")
		return h, ext, func() (uint32, error) {
			ok, err := fil.Match(pkt)
			if ok {
				return 1, err
			}
			return 0, err
		}, nil
	case "libcgi":
		src, opts := cgiScriptSrc, sandbox.LoadOptions{Entry: "cgi_script", SharedBytes: mem.PageSize}
		env := make([]byte, 700)
		env[0] = 28 // Table 3's headline file size
		switch backend {
		case "palladium-kernel":
			src, opts = kernelCGIScriptSrc, sandbox.LoadOptions{Entry: "cgi_script", SharedSymbol: "cgi_env"}
		case "sfi":
			opts = sandbox.LoadOptions{Entry: "cgi_script"} // stages at the region base
		case "rpc":
			opts.ReqBytes, opts.RespBytes = len(env), 8
		}
		ext, err := b.Load(isa.MustAssemble("cgiscript", src), sandbox.WithVerify(opts))
		if err != nil {
			return h, nil, nil, err
		}
		st, ok := ext.(sandbox.Stager)
		if !ok {
			t.Fatalf("%s extension has no staging area", backend)
		}
		return h, ext, func() (uint32, error) {
			if err := st.Stage(env); err != nil {
				return 0, err
			}
			return ext.Invoke(st.SharedArg())
		}, nil
	}
	t.Fatalf("unknown workload %q", workload)
	return nil, nil, nil, nil
}

// cellCycles loads the cell on a fresh host, runs one warm-up
// operation (the paper's cache-warm methodology) and returns the mean
// simulated cycles of the next ops operations and the verifier's
// verdict ("-" when the backend attached no report).
func cellCycles(t *testing.T, c matrixCell, ops int) (float64, string, error) {
	t.Helper()
	h, ext, op, err := loadCell(t, c.workload, c.backend)
	if err != nil {
		return 0, "", err
	}
	want := uint32(200)
	if c.workload == "packet-filter" {
		want = 1
	}
	clock := h.Sys.K.Clock
	var start float64
	for i := 0; i <= ops; i++ {
		if i == 1 {
			start = clock.Cycles()
		}
		v, err := op()
		if err != nil {
			t.Fatalf("%s op %d: %v", c.key(), i, err)
		}
		if v != want {
			t.Fatalf("%s op %d returned %d, want %d", c.key(), i, v, want)
		}
	}
	verdict := "-"
	if rep := ext.(interface{ VerifyReport() *verify.Report }).VerifyReport(); rep != nil {
		verdict = rep.Status.String()
	}
	return (clock.Cycles() - start) / float64(ops), verdict, nil
}

// cellResult is one supported cell's measurement.
type cellResult struct {
	cycles  float64 // simulated cycles per operation
	verdict string  // load-time verifier verdict
}

// measureMatrix runs each cell ops times on its own fresh host and
// returns the supported cells' results by key. A supported cell must
// load and return its sanity value at a positive cost; an unsupported
// one must be refused at load with ValidationReject.
func measureMatrix(t *testing.T, cells []matrixCell, ops int) map[string]cellResult {
	t.Helper()
	res := map[string]cellResult{}
	for _, c := range cells {
		cyc, verdict, err := cellCycles(t, c, ops)
		if !c.supported {
			var f *sandbox.Fault
			if !errors.As(err, &f) || f.Class != sandbox.ValidationReject {
				t.Fatalf("%s: load = %v, want ValidationReject for an unsupported cell", c.key(), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: load: %v", c.key(), err)
		}
		if cyc <= 0 {
			t.Fatalf("%s: cycles/op = %v", c.key(), cyc)
		}
		res[c.key()] = cellResult{cyc, verdict}
	}
	return res
}

// TestMatrixCoversWorkloadsAndBackends runs the packet filter and the
// LibCGI script under every registered backend: 12 cells, of which
// only libcgi × bpf is unsupported, and all four cells the paper
// measured load and run.
func TestMatrixCoversWorkloadsAndBackends(t *testing.T) {
	backends := sandbox.Backends()
	if want := 2 * len(backends); len(matrixCells) != want {
		t.Fatalf("matrix has %d cells, want %d (2 workloads x %v)", len(matrixCells), want, backends)
	}
	listed := map[string]bool{}
	for _, c := range matrixCells {
		listed[c.key()] = true
	}
	for _, w := range []string{"packet-filter", "libcgi"} {
		for _, b := range backends {
			if !listed[w+"/"+b] {
				t.Fatalf("cell %s x %s missing from the matrix", w, b)
			}
		}
	}
	res := measureMatrix(t, matrixCells, 5)
	if len(res) != 11 {
		t.Errorf("%d supported cells, want 11", len(res))
	}
	if _, ok := res["libcgi/bpf"]; ok {
		t.Error("libcgi x bpf loaded")
	}
	inPaper := 0
	for _, c := range matrixCells {
		if _, ok := res[c.key()]; ok && c.inPaper {
			inPaper++
		}
	}
	if inPaper != 4 {
		t.Errorf("%d supported in-paper cells, want 4", inPaper)
	}
}

// TestMatrixDeterministic measures the matrix twice on fresh hosts:
// every cell must cost the same simulated cycles both times.
func TestMatrixDeterministic(t *testing.T) {
	a, b := measureMatrix(t, matrixCells, 3), measureMatrix(t, matrixCells, 3)
	for k, ra := range a {
		if rb := b[k]; ra != rb {
			t.Errorf("cell %s differs across runs: %+v vs %+v", k, ra, rb)
		}
	}
}

// TestMatrixBackendRestriction measures the matrix restricted to two
// backends: it has their four cells, and each cell costs what it does
// in the full matrix, because every cell runs on its own host.
func TestMatrixBackendRestriction(t *testing.T) {
	if _, err := sandbox.Open("no-such-backend", newSandboxHost(t)); err == nil {
		t.Fatal("unknown backend opened")
	}
	cells := cellsFor("bpf", "palladium-kernel")
	if len(cells) != 4 {
		t.Fatalf("restricted cells = %d, want 4", len(cells))
	}
	sub, full := measureMatrix(t, cells, 3), measureMatrix(t, matrixCells, 3)
	if len(sub) != 3 {
		t.Errorf("restricted supported cells = %d, want 3 (libcgi x bpf unsupported)", len(sub))
	}
	for k, r := range sub {
		if full[k] != r {
			t.Errorf("cell %s: %+v restricted, %+v in the full matrix", k, r, full[k])
		}
	}
}

// TestMatrixOrderingConsistentWithPaper checks the cross-mechanism
// claims the matrix must reproduce: the interpreted filter costs at
// least twice the compiled in-kernel one (Figure 7), and protected
// LibCGI costs more than unprotected but under a tenth of RPC
// isolation (Tables 2 and 3).
func TestMatrixOrderingConsistentWithPaper(t *testing.T) {
	res := measureMatrix(t, matrixCells, 10)
	cycles := func(k string) float64 {
		r, ok := res[k]
		if !ok {
			t.Fatalf("missing cell %s", k)
		}
		return r.cycles
	}
	if bpfC, pal := cycles("packet-filter/bpf"), cycles("packet-filter/palladium-kernel"); bpfC < 2*pal {
		t.Errorf("interpreted filter %v cycles not >= 2x compiled %v", bpfC, pal)
	}
	unprot, prot := cycles("libcgi/direct"), cycles("libcgi/palladium-user")
	if prot <= unprot {
		t.Errorf("protected libcgi %v cycles not above unprotected %v", prot, unprot)
	}
	if rpcC := cycles("libcgi/rpc"); rpcC < 10*prot {
		t.Errorf("rpc libcgi %v cycles not >= 10x protected %v", rpcC, prot)
	}
}

// TestMatrixVerifiedColumn pins the load-time verifier's verdict in
// every supported cell: clean everywhere except libcgi under sfi, whose
// shared-argument pointer accesses the rewriter leaves to runtime
// masking, so the verifier conservatively reports guarded.
func TestMatrixVerifiedColumn(t *testing.T) {
	res := measureMatrix(t, matrixCells, 3)
	for _, c := range matrixCells {
		r, ok := res[c.key()]
		if !ok {
			continue
		}
		want := "clean"
		if c.key() == "libcgi/sfi" {
			want = "guarded"
		}
		if r.verdict != want {
			t.Errorf("%s verified = %q, want %q", c.key(), r.verdict, want)
		}
	}
}
