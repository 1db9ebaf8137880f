package isa

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Assemble translates assembly source into a relocatable Object.
//
// Syntax (Intel-ish, one instruction per line, ';' or '#' comments):
//
//	.text
//	strrev:                     ; labels end with ':'
//	    push ebp
//	    mov ebp, esp
//	    mov eax, [ebp+8]        ; memory operands: [base+index*scale+disp]
//	    movb ecx, [eax+2]       ; 'b' suffix: byte-sized access
//	    cmp ecx, 0
//	    je done
//	    lcall 0x43              ; far call through a call gate selector
//	    int 0x80                ; software interrupt
//	done:
//	    pop ebp
//	    ret
//	.data
//	buf:  .space 64
//	msg:  .asciz "hi"
//	tab:  .word 1, 2, labelref  ; 32-bit words; symbols relocate
//	.global strrev
//
// All symbolic references (branch targets, [sym+off] operands, bare
// symbol immediates such as `push Transfer`) are emitted as
// relocations and patched by the loader with absolute virtual
// addresses.
func Assemble(name, src string) (*Object, error) {
	a := &assembler{
		obj: &Object{Name: name, Symbols: make(map[string]*Symbol)},
	}
	if err := a.run(src); err != nil {
		return nil, err
	}
	return a.obj, nil
}

// asmCache memoizes MustAssemble: the built-in sources (stubs, libc,
// the benchmark extensions) are re-assembled on every machine boot,
// which boot-heavy drivers (Table 3 cells, fleets) repeat hundreds of
// times. Entries are immutable templates; MustAssemble returns a deep
// Clone so callers may relocate freely. Concurrent boots (fleet
// workers) share the cache, hence the RWMutex. The cache is bounded:
// a long-lived process feeding it unbounded distinct sources (e.g.
// per-client compiled filters) wholesale-resets it at the cap rather
// than growing without limit — recurring sources simply re-memoize.
const asmCacheMax = 512

var asmCache = struct {
	sync.RWMutex
	m map[string]*Object
}{m: make(map[string]*Object)}

// AssembleCached is Assemble memoized by (name, source). Every caller
// of one source gets the same cached object, possibly on several
// goroutines at once, so the result is read-only: a caller that changes
// it (renames a symbol, rewrites the text) works on a Clone. The
// loader only reads it. Use it for sources that recur across boots
// (built-ins, generated stubs); one-off sources should use Assemble.
func AssembleCached(name, src string) (*Object, error) {
	key := name + "\x00" + src
	asmCache.RLock()
	tmpl := asmCache.m[key]
	asmCache.RUnlock()
	if tmpl == nil {
		o, err := Assemble(name, src)
		if err != nil {
			return nil, err
		}
		asmCache.Lock()
		if len(asmCache.m) >= asmCacheMax {
			clear(asmCache.m)
		}
		asmCache.m[key] = o
		asmCache.Unlock()
		tmpl = o
	}
	return tmpl, nil
}

// MustAssemble is AssembleCached for known-good built-in sources; it
// panics on error. Its result is read-only, as AssembleCached's is.
func MustAssemble(name, src string) *Object {
	o, err := AssembleCached(name, src)
	if err != nil {
		panic(fmt.Sprintf("isa: assembling %s: %v", name, err))
	}
	return o
}

type assembler struct {
	obj     *Object
	section Section
	lineNo  int
}

func (a *assembler) errf(format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", a.obj.Name, a.lineNo, fmt.Sprintf(format, args...))
}

func (a *assembler) run(src string) error {
	a.section = SecText
	for _, raw := range strings.Split(src, "\n") {
		a.lineNo++
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels, possibly several, possibly followed by code.
		for {
			i := strings.Index(line, ":")
			if i < 0 || strings.ContainsAny(line[:i], " \t[\",") {
				break
			}
			if err := a.defineLabel(strings.TrimSpace(line[:i])); err != nil {
				return err
			}
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if err := a.directive(line); err != nil {
				return err
			}
			continue
		}
		if err := a.instruction(line); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) defineLabel(name string) error {
	if name == "" {
		return a.errf("empty label")
	}
	if s, ok := a.obj.Symbols[name]; ok && s.Section != SecUndef {
		return a.errf("duplicate label %q", name)
	}
	var off uint32
	switch a.section {
	case SecText:
		off = uint32(len(a.obj.Text)) * InstrSlot
	case SecData:
		off = uint32(len(a.obj.Data))
	case SecBSS:
		off = a.obj.BSSSize
	}
	prev := a.obj.Symbols[name]
	global := prev != nil && prev.Global
	a.obj.Symbols[name] = &Symbol{Name: name, Section: a.section, Off: off, Global: global}
	return nil
}

func (a *assembler) directive(line string) error {
	fields := strings.SplitN(line, " ", 2)
	dir := fields[0]
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	switch dir {
	case ".text":
		a.section = SecText
	case ".data":
		a.section = SecData
	case ".bss":
		a.section = SecBSS
	case ".global", ".globl":
		for _, n := range splitOperands(rest) {
			if s, ok := a.obj.Symbols[n]; ok {
				s.Global = true
			} else {
				a.obj.Symbols[n] = &Symbol{Name: n, Section: SecUndef, Global: true}
			}
		}
	case ".extern":
		for _, n := range splitOperands(rest) {
			if _, ok := a.obj.Symbols[n]; !ok {
				a.obj.Symbols[n] = &Symbol{Name: n, Section: SecUndef}
			}
		}
	case ".space", ".skip":
		n, err := parseNumber(rest)
		if err != nil {
			return a.errf(".space: %v", err)
		}
		switch a.section {
		case SecData:
			a.obj.Data = append(a.obj.Data, make([]byte, n)...)
		case SecBSS:
			a.obj.BSSSize += uint32(n)
		default:
			return a.errf(".space outside .data/.bss")
		}
	case ".word", ".long":
		if a.section != SecData {
			return a.errf(".word outside .data")
		}
		for _, tok := range splitOperands(rest) {
			if v, err := parseNumber(tok); err == nil {
				a.appendWord(uint32(v))
			} else {
				// Symbolic word: relocate.
				a.obj.Relocs = append(a.obj.Relocs, Reloc{
					Slot: RelData, Index: len(a.obj.Data), Sym: tok,
				})
				a.appendWord(0)
			}
		}
	case ".byte":
		if a.section != SecData {
			return a.errf(".byte outside .data")
		}
		for _, tok := range splitOperands(rest) {
			v, err := parseNumber(tok)
			if err != nil {
				return a.errf(".byte: %v", err)
			}
			a.obj.Data = append(a.obj.Data, byte(v))
		}
	case ".asciz", ".string":
		if a.section != SecData {
			return a.errf(".asciz outside .data")
		}
		s, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf(".asciz: %v", err)
		}
		a.obj.Data = append(a.obj.Data, []byte(s)...)
		a.obj.Data = append(a.obj.Data, 0)
	case ".align":
		n, err := parseNumber(rest)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return a.errf(".align: need a power of two")
		}
		switch a.section {
		case SecData:
			for len(a.obj.Data)%int(n) != 0 {
				a.obj.Data = append(a.obj.Data, 0)
			}
		case SecBSS:
			for a.obj.BSSSize%uint32(n) != 0 {
				a.obj.BSSSize++
			}
		case SecText:
			for (uint32(len(a.obj.Text))*InstrSlot)%uint32(n) != 0 {
				a.obj.Text = append(a.obj.Text, Instr{Op: NOP, Size: 4})
			}
		}
	default:
		return a.errf("unknown directive %s", dir)
	}
	return nil
}

func (a *assembler) appendWord(v uint32) {
	a.obj.Data = append(a.obj.Data, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

var mnemonics = map[string]Op{}

func init() {
	for op := NOP; op < numOps; op++ {
		mnemonics[op.String()] = op
	}
}

// byteSuffixable lists opcodes that accept the 'b' size suffix.
var byteSuffixable = map[Op]bool{
	MOV: true, CMP: true, ADD: true, SUB: true, AND: true, OR: true,
	XOR: true, TEST: true, INC: true, DEC: true, XCHG: true,
}

func (a *assembler) instruction(line string) error {
	if a.section != SecText {
		return a.errf("instruction outside .text")
	}
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	size := uint8(4)
	op, ok := mnemonics[mnemonic]
	if !ok && strings.HasSuffix(mnemonic, "b") {
		if base, ok2 := mnemonics[strings.TrimSuffix(mnemonic, "b")]; ok2 && byteSuffixable[base] {
			op, ok, size = base, true, 1
		}
	}
	if !ok {
		return a.errf("unknown mnemonic %q", mnemonic)
	}
	idx := len(a.obj.Text)
	ins := Instr{Op: op, Size: size}
	operands := splitOperands(rest)

	parse := func(tok string, slotDisp, slotImm RelocSlot) (Operand, error) {
		o, sym, addend, err := a.parseOperand(tok)
		if err != nil {
			return o, err
		}
		if sym != "" {
			slot := slotImm
			if o.Kind == KindMem {
				slot = slotDisp
			}
			a.obj.Relocs = append(a.obj.Relocs, Reloc{Slot: slot, Index: idx, Sym: sym, Addend: addend})
			a.noteExtern(sym)
		}
		return o, nil
	}

	var err error
	switch len(operands) {
	case 0:
	case 1:
		ins.Dst, err = parse(operands[0], RelDstDisp, RelDstImm)
	case 2:
		if ins.Dst, err = parse(operands[0], RelDstDisp, RelDstImm); err == nil {
			ins.Src, err = parse(operands[1], RelSrcDisp, RelSrcImm)
		}
	default:
		return a.errf("too many operands")
	}
	if err != nil {
		return err
	}
	if err := validate(&ins); err != nil {
		return a.errf("%s: %v", line, err)
	}
	a.obj.Text = append(a.obj.Text, ins)
	return nil
}

func (a *assembler) noteExtern(sym string) {
	if _, ok := a.obj.Symbols[sym]; !ok {
		a.obj.Symbols[sym] = &Symbol{Name: sym, Section: SecUndef}
	}
}

// parseOperand parses one operand token, returning the operand plus an
// optional symbol reference (with addend) to relocate.
func (a *assembler) parseOperand(tok string) (Operand, string, int32, error) {
	if r, ok := parseReg(tok); ok {
		return R(r), "", 0, nil
	}
	if strings.HasPrefix(tok, "[") {
		if !strings.HasSuffix(tok, "]") {
			return Operand{}, "", 0, a.errf("unterminated memory operand %q", tok)
		}
		return a.parseMem(tok[1 : len(tok)-1])
	}
	if v, err := parseNumber(tok); err == nil {
		return I(int32(v)), "", 0, nil
	}
	// Bare symbol: immediate absolute address (e.g. `push Transfer`).
	sym, addend, err := splitSymAddend(tok)
	if err != nil {
		return Operand{}, "", 0, a.errf("bad operand %q", tok)
	}
	return I(0), sym, addend, nil
}

// parseMem parses the inside of a bracketed memory operand.
func (a *assembler) parseMem(expr string) (Operand, string, int32, error) {
	o := Operand{Kind: KindMem, Base: NoReg, Index: NoReg}
	sym := ""
	var disp int64
	for _, term := range splitTerms(expr) {
		neg := false
		t := term
		if strings.HasPrefix(t, "-") {
			neg, t = true, t[1:]
		}
		switch {
		case t == "":
			return o, "", 0, a.errf("empty term in [%s]", expr)
		case strings.Contains(t, "*"):
			parts := strings.SplitN(t, "*", 2)
			r, ok := parseReg(strings.TrimSpace(parts[0]))
			if !ok || neg {
				return o, "", 0, a.errf("bad index term %q", term)
			}
			s, err := parseNumber(strings.TrimSpace(parts[1]))
			if err != nil || (s != 1 && s != 2 && s != 4 && s != 8) {
				return o, "", 0, a.errf("bad scale in %q", term)
			}
			o.Index, o.Scale = r, uint8(s)
		default:
			if r, ok := parseReg(t); ok {
				if neg {
					return o, "", 0, a.errf("negated register in %q", expr)
				}
				if o.Base == NoReg {
					o.Base = r
				} else if o.Index == NoReg {
					o.Index, o.Scale = r, 1
				} else {
					return o, "", 0, a.errf("too many registers in [%s]", expr)
				}
				continue
			}
			if v, err := parseNumber(t); err == nil {
				if neg {
					v = -v
				}
				disp += v
				continue
			}
			if sym != "" || neg {
				return o, "", 0, a.errf("bad term %q in [%s]", term, expr)
			}
			sym = t
		}
	}
	if disp < -1<<31 || disp > 1<<31-1 {
		return o, "", 0, a.errf("displacement overflow in [%s]", expr)
	}
	if sym != "" {
		// Symbol goes through a relocation; accumulated numeric
		// displacement rides along as the addend.
		return o, sym, int32(disp), nil
	}
	o.Disp = int32(disp)
	return o, "", 0, nil
}

func parseReg(s string) (Reg, bool) {
	switch strings.ToLower(s) {
	case "eax":
		return EAX, true
	case "ecx":
		return ECX, true
	case "edx":
		return EDX, true
	case "ebx":
		return EBX, true
	case "esp":
		return ESP, true
	case "ebp":
		return EBP, true
	case "esi":
		return ESI, true
	case "edi":
		return EDI, true
	}
	return NoReg, false
}

func parseNumber(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		u, err := strconv.Unquote(s)
		if err != nil || len(u) != 1 {
			return 0, fmt.Errorf("bad char literal %s", s)
		}
		return int64(u[0]), nil
	}
	return strconv.ParseInt(s, 0, 64)
}

// splitSymAddend parses "sym", "sym+4" or "sym-4".
func splitSymAddend(tok string) (string, int32, error) {
	i := strings.IndexAny(tok[1:], "+-")
	if i < 0 {
		if !validSymbol(tok) {
			return "", 0, fmt.Errorf("bad symbol %q", tok)
		}
		return tok, 0, nil
	}
	i++
	sym := tok[:i]
	if !validSymbol(sym) {
		return "", 0, fmt.Errorf("bad symbol %q", sym)
	}
	v, err := parseNumber(tok[i:])
	if err != nil {
		return "", 0, err
	}
	return sym, int32(v), nil
}

func validSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.', c == '$', c == '@':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// splitOperands splits on commas that are not inside brackets or
// quotes.
func splitOperands(s string) []string {
	var out []string
	depth, inStr, start := 0, false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '[':
			if !inStr {
				depth++
			}
		case ']':
			if !inStr {
				depth--
			}
		case ',':
			if depth == 0 && !inStr {
				if t := strings.TrimSpace(s[start:i]); t != "" {
					out = append(out, t)
				}
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}

// splitTerms splits a bracket expression on top-level '+' and keeps
// '-' attached to the following term.
func splitTerms(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '+':
			if t := strings.TrimSpace(s[start:i]); t != "" {
				out = append(out, t)
			}
			start = i + 1
		case '-':
			if i > start {
				if t := strings.TrimSpace(s[start:i]); t != "" {
					out = append(out, t)
				}
			}
			start = i // keep the '-'
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}

// validate rejects operand combinations the CPU does not implement.
func validate(i *Instr) error {
	nd, ns := i.Dst.Kind, i.Src.Kind
	two := func() error {
		if nd == KindNone || ns == KindNone {
			return fmt.Errorf("needs two operands")
		}
		if nd == KindImm {
			return fmt.Errorf("immediate destination")
		}
		if nd == KindMem && ns == KindMem {
			return fmt.Errorf("memory-to-memory not supported")
		}
		return nil
	}
	one := func() error {
		if nd == KindNone || ns != KindNone {
			return fmt.Errorf("needs one operand")
		}
		return nil
	}
	switch i.Op {
	case MOV, ADD, SUB, AND, OR, XOR, CMP, TEST, XCHG:
		if err := two(); err != nil {
			return err
		}
		if i.Op == XCHG && (nd == KindImm || ns == KindImm) {
			return fmt.Errorf("xchg with immediate")
		}
	case LEA:
		if nd != KindReg || ns != KindMem {
			return fmt.Errorf("lea needs reg, mem")
		}
	case IMUL:
		if nd != KindReg {
			return fmt.Errorf("imul destination must be a register")
		}
	case SHL, SHR, SAR:
		if nd == KindImm || ns != KindImm {
			return fmt.Errorf("shift needs dst, imm")
		}
	case INC, DEC, NEG, NOT:
		if err := one(); err != nil {
			return err
		}
		if nd == KindImm {
			return fmt.Errorf("immediate operand")
		}
	case PUSH:
		return one()
	case POP:
		if err := one(); err != nil {
			return err
		}
		if nd == KindImm {
			return fmt.Errorf("pop immediate")
		}
	case JMP, CALL:
		return one()
	case JE, JNE, JL, JLE, JG, JGE, JB, JBE, JA, JAE, JS, JNS:
		if err := one(); err != nil {
			return err
		}
		if nd != KindImm {
			return fmt.Errorf("conditional branch target must be a label")
		}
	case LCALL, INT:
		if err := one(); err != nil {
			return err
		}
		if nd != KindImm {
			return fmt.Errorf("%s needs an immediate", i.Op)
		}
	case RET, LRET:
		if nd == KindNone {
			return nil
		}
		if nd != KindImm || ns != KindNone {
			return fmt.Errorf("%s takes an optional immediate", i.Op)
		}
	case IRET, NOP, HLT:
		if nd != KindNone || ns != KindNone {
			return fmt.Errorf("%s takes no operands", i.Op)
		}
	}
	return nil
}
