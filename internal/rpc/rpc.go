// Package rpc models the two IPC baselines the paper compares against:
//
//   - Linux socket-based RPC between a client and a server process on
//     the same machine (Table 2's "Linux RPC" column) — "socket-based
//     and not optimized for intra-machine RPC";
//   - an L4-style optimized IPC (Section 5.1's comparison: 242 cycles
//     best case for a request-reply, four protection-domain crossings
//     versus Palladium's two).
//
// Both are cost models charged to the shared simulated clock, composed
// from the same kernel primitives Palladium's accounting uses (system
// call entries, context switches with their TLB flushes, per-byte
// copies). The paper's comparator is the stock Linux RPC facility, so
// the stack-processing constants are calibrated against its Table 2
// measurements: about 349 microseconds for a 32-byte round trip,
// growing to about 423 microseconds at 256 bytes.
package rpc

import (
	"repro/internal/cycles"
	"repro/internal/kernel"
)

// Costs holds the RPC path constants (cycles).
type Costs struct {
	// StubOverhead is the client+server RPC library work per call:
	// XDR marshaling setup, select/poll dispatch, stub glue.
	StubOverhead float64
	// SocketSyscall is the kernel socket write/read path beyond the
	// bare trap: fd lookup, buffer management, wakeups.
	SocketSyscall float64
	// TCPSegment is per-message TCP/IP processing (header build,
	// checksum setup, loopback delivery).
	TCPSegment float64
	// Wakeup is scheduler wakeup + run-queue latency per handoff.
	Wakeup float64
	// PerByte is the per-byte cost across all copies and checksums
	// (user->kernel, kernel->user on each side, marshal/unmarshal).
	PerByte float64
}

// DefaultCosts is calibrated against Table 2 (see EXPERIMENTS.md):
// the fixed path sums to about 67,700 cycles per round trip and the
// per-byte slope to about 66 cycles per payload byte, reproducing the
// 349.19 us (32 B) to 423.33 us (256 B) figures at 200 MHz.
func DefaultCosts() Costs {
	return Costs{
		StubOverhead:  19_796,
		SocketSyscall: 3_200,
		TCPSegment:    4_600,
		Wakeup:        1_800,
		PerByte:       33.1,
	}
}

// Loopback is a same-machine socket RPC channel between two simulated
// processes.
type Loopback struct {
	K      *kernel.Kernel
	Costs  Costs
	Client *kernel.Process
	Server *kernel.Process
}

// NewLoopback builds the client/server process pair.
func NewLoopback(k *kernel.Kernel) (*Loopback, error) {
	c, err := k.CreateProcess()
	if err != nil {
		return nil, err
	}
	s, err := k.Fork(c)
	if err != nil {
		return nil, err
	}
	return &Loopback{K: k, Costs: DefaultCosts(), Client: c, Server: s}, nil
}

// oneWay prices one message of n bytes from one process to the other:
// send syscall, TCP processing, copies, wakeup, context switch to the
// peer, receive syscall.
func (l *Loopback) oneWay(n int, to *kernel.Process) {
	k, c := l.K, l.Costs
	// Sender: write() on the socket.
	k.Clock.Add(k.Costs.SyscallEntry + k.Costs.SyscallExit)
	k.Clock.Charge(k.Model, cycles.IntGate)
	k.Clock.Charge(k.Model, cycles.IretInter)
	k.Clock.Add(c.SocketSyscall + c.TCPSegment)
	k.Clock.Add(c.PerByte * float64(n) / 2)
	// Handoff: wakeup + context switch (CR3 load flushes the TLB —
	// the cost Palladium's intra-address-space design never pays).
	k.Clock.Add(c.Wakeup)
	k.Switch(to)
	// Receiver: read() returns the data.
	k.Clock.Add(k.Costs.SyscallEntry + k.Costs.SyscallExit)
	k.Clock.Charge(k.Model, cycles.IntGate)
	k.Clock.Charge(k.Model, cycles.IretInter)
	k.Clock.Add(c.SocketSyscall)
	k.Clock.Add(c.PerByte * float64(n) / 2)
}

// Call performs a request-reply RPC carrying reqBytes out and
// respBytes back, plus serverWork cycles of server-side processing.
// It returns the total cycles consumed.
func (l *Loopback) Call(reqBytes, respBytes int, serverWork float64) float64 {
	start := l.K.Clock.Cycles()
	l.K.Clock.Add(l.Costs.StubOverhead) // client stub + marshal
	l.oneWay(reqBytes, l.Server)
	l.K.Clock.Add(l.Costs.StubOverhead) // server stub + dispatch
	l.K.Clock.Add(serverWork)
	l.oneWay(respBytes, l.Client)
	return l.K.Clock.Cycles() - start
}

// L4Costs prices an L4-style optimized same-machine IPC: no page-table
// switch (segment-register reload instead), register-carried payload,
// but still four protection-domain crossings per request-reply.
type L4Costs struct {
	// Crossing is one protection-domain crossing on the optimized
	// path.
	Crossing float64
	// FixedPerRoundTrip is the remaining per-round-trip work
	// (segment reload, thread switch bookkeeping).
	FixedPerRoundTrip float64
}

// DefaultL4Costs reproduces the paper's 242-cycle best case.
func DefaultL4Costs() L4Costs {
	return L4Costs{Crossing: 53, FixedPerRoundTrip: 30}
}

// L4 is the L4-style IPC baseline.
type L4 struct {
	Clock *cycles.Clock
	Costs L4Costs
}

// NewL4 returns the baseline bound to a clock.
func NewL4(clock *cycles.Clock) *L4 {
	return &L4{Clock: clock, Costs: DefaultL4Costs()}
}

// Call prices one request-reply: four crossings plus the fixed work.
// Palladium's protected call makes two crossings (one lret, one
// lcall); this is the structural difference Section 5.1 highlights.
func (l *L4) Call() float64 {
	start := l.Clock.Cycles()
	l.Clock.Add(4*l.Costs.Crossing + l.Costs.FixedPerRoundTrip)
	return l.Clock.Cycles() - start
}
