package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"repro/internal/experiments"
)

// expectedJSON holds every simulated value the workloads produce,
// recorded from the simulator (go test -run TestExpected -update).
//
//go:embed expected.json
var expectedJSON []byte

// expected is the correctness oracle. Simulated values are exact: a
// change that moves any of them is a change to the model, not a speed-up.
type expected struct {
	Note string `json:"note"`
	// TickCycles is the kernel timer-interrupt cost, charged once per
	// tick that fires inside an operation.
	TickCycles float64 `json:"tick_cycles"`
	// Serve holds X-Sim-Micros as the daemon formats it: a machine's
	// first request (and every clone-per-request request, since each runs
	// on a fresh clone) and every later request on a long-lived machine.
	Serve struct {
		FirstSimUS  string `json:"first_request_sim_us"`
		SteadySimUS string `json:"steady_sim_us"`
	} `json:"serve"`
	// Invoke holds each warm operation's simulated cycles with no timer
	// tick, by input class: strrev by string length (index len-16), the
	// filters by the index of the first false term (4 = match).
	Invoke struct {
		StrrevCycles       []float64          `json:"strrev_cycles"`
		FilterKernelCycles []float64          `json:"filter_kernel_cycles"`
		FilterBPFCycles    []float64          `json:"filter_bpf_cycles"`
		CGISFICycles       float64            `json:"cgi_sfi_cycles"`
		CGIRPCCycles       float64            `json:"cgi_rpc_cycles"`
		VerifyPassCycles   map[string]float64 `json:"verify_pass_cycles"`
	} `json:"invoke"`
	Paper paperTables `json:"paper"`
}

type paperTables struct {
	Table1  []experiments.Table1Row    `json:"table1"`
	Table2  []experiments.Table2Row    `json:"table2"`
	Table3  []experiments.Table3Row    `json:"table3"`
	Figure7 []experiments.Figure7Point `json:"figure7"`
}

// The paper's published anchors, which the recorded oracle must itself
// reproduce: Table 1's inter/intra/hardware totals and Figure 7's
// 4-term BPF and Palladium costs (cycles).
const (
	paperInter, paperIntra, paperHardware = 142, 10, 82
	paperFig7BPF, paperFig7Palladium      = 890, 274
)

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := e.crossCheck(); err != nil {
		return nil, err
	}
	return &e, nil
}

// crossCheck holds the oracle to the paper's published numbers.
func (e *expected) crossCheck() error {
	t1 := e.Paper.Table1
	if len(t1) == 0 {
		return fmt.Errorf("oracle: no Table 1")
	}
	tot := t1[len(t1)-1]
	if tot.Inter != paperInter || tot.Intra != paperIntra || tot.Hardware != paperHardware {
		return fmt.Errorf("oracle: Table 1 totals %v/%v/%v, paper has %d/%d/%d",
			tot.Inter, tot.Intra, tot.Hardware, paperInter, paperIntra, paperHardware)
	}
	f7 := e.Paper.Figure7
	if len(f7) != 5 || f7[4].BPF != paperFig7BPF || f7[4].Palladium != paperFig7Palladium {
		return fmt.Errorf("oracle: Figure 7 4-term point %+v, paper has %d/%d", f7, paperFig7BPF, paperFig7Palladium)
	}
	if len(e.Invoke.StrrevCycles) != maxStrrev-minStrrev+1 || len(e.Invoke.FilterKernelCycles) != filterTerms+1 ||
		len(e.Invoke.FilterBPFCycles) != filterTerms+1 {
		return fmt.Errorf("oracle: invoke tables have the wrong shape")
	}
	return nil
}

// opCycles is the oracle's tick-free cost of one warm invoke operation.
func (e *expected) opCycles(op *invokeOp) float64 {
	switch op.kind {
	case opStrrev:
		return e.Invoke.StrrevCycles[op.class-minStrrev]
	case opFilterKernel:
		return e.Invoke.FilterKernelCycles[op.class]
	case opFilterBPF:
		return e.Invoke.FilterBPFCycles[op.class]
	case opCGISFI:
		return e.Invoke.CGISFICycles
	default:
		return e.Invoke.CGIRPCCycles
	}
}

// cyclesMatch reports whether an operation that took got cycles, during
// which ticks timer interrupts fired, costs what the oracle says. The
// tolerance absorbs the float rounding of reading a large running clock
// twice; every modeled cost differs from another by far more.
func (e *expected) cyclesMatch(op *invokeOp, got float64, ticks int) bool {
	return math.Abs(got-float64(ticks)*e.TickCycles-e.opCycles(op)) < 1e-3
}

// verifyPass checks the fixed verification pass's total, for the seeds
// the oracle recorded (true for any other seed).
func (e *expected) verifyPass(seed uint64, total float64) (bool, float64) {
	want, ok := e.Invoke.VerifyPassCycles[strconv.FormatUint(seed, 10)]
	return !ok || want == total, want
}

// paperMatches reports the first table that differs from the oracle.
func (e *expected) paperMatches(got *paperTables) error {
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Table 1", got.Table1, e.Paper.Table1},
		{"Table 2", got.Table2, e.Paper.Table2},
		{"Table 3", got.Table3, e.Paper.Table3},
		{"Figure 7", got.Figure7, e.Paper.Figure7},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Errorf("%s = %+v, oracle has %+v", c.name, c.got, c.want)
		}
	}
	return nil
}
