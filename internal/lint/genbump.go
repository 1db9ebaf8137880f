// Package lint implements genbumplint, a stdlib-only static check
// (go/parser + go/ast, no external analysis framework) for the MMU's
// generation-bump discipline.
//
// The simulator caches segment-check and translation decisions keyed
// on two generation counters (MMU.SegGen / MMU.TransGen): cached
// blocks and traces, SegProbe warm hits and the verifier's elided
// checks all stay valid only while their generation matches. Any
// method that mutates generation-guarded state — descriptor-table
// entries, the installed GDT/LDT, the active address space — must
// therefore advance a generation (directly via bumpGen/bumpSegGen,
// or through a mutator that fires one, like Table.Set or
// RestoreEntries) in the same function. A mutation without a bump is
// exactly the kind of bug that silently serves stale translations.
//
// Functions with a deliberate exception carry a directive comment:
//
//	//lint:genbump-exempt <reason>
//
// on the declaration; the reason is mandatory and the exemption is
// reported (so the waiver list stays visible in CI logs).
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// guardedFields are the receiver fields whose mutation must be paired
// with a generation bump.
var guardedFields = map[string]bool{
	"entries": true, // descriptor-table contents (Table)
	"GDT":     true, // installed global descriptor table (MMU)
	"LDT":     true, // installed local descriptor table (MMU)
	"space":   true, // active address space / CR3 (MMU)
}

// bumpCalls are the callee names that advance a generation, directly
// or by construction (Table mutators fire onMutate; RestoreEntries
// fires it once; LoadCR3/SetLDT/InvalidatePage bump internally).
var bumpCalls = map[string]bool{
	"bumpGen":        true,
	"bumpSegGen":     true,
	"onMutate":       true,
	"Set":            true,
	"Clear":          true,
	"RestoreEntries": true,
	"LoadCR3":        true,
	"SetLDT":         true,
	"InvalidatePage": true,
}

// exemptDirective marks a reviewed exception; a reason must follow.
const exemptDirective = "//lint:genbump-exempt"

// Finding is one rule violation (or an Exempt waiver being used).
type Finding struct {
	Pos    token.Position
	Func   string
	Fields []string
	// Exempt is set for functions that mutate guarded state under a
	// genbump-exempt directive; Reason carries the directive's text.
	Exempt bool
	Reason string
}

func (f Finding) String() string {
	if f.Exempt {
		return fmt.Sprintf("%s: %s mutates %s without a generation bump (exempt: %s)",
			f.Pos, f.Func, strings.Join(f.Fields, ", "), f.Reason)
	}
	return fmt.Sprintf("%s: %s mutates %s without advancing a generation (call bumpGen/bumpSegGen/onMutate, or add %s <reason>)",
		f.Pos, f.Func, strings.Join(f.Fields, ", "), exemptDirective)
}

// CheckSource lints one file's source text.
func CheckSource(filename, src string) ([]Finding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return checkFile(fset, file), nil
}

// CheckDir lints every non-test Go file in dir.
func CheckDir(dir string) ([]Finding, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		fs, err := CheckSource(filepath.Join(dir, name), string(b))
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out, nil
}

func checkFile(fset *token.FileSet, file *ast.File) []Finding {
	var out []Finding
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Body == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
			continue // only methods mutate generation-guarded receiver state
		}
		recv := fn.Recv.List[0].Names[0].Name
		mutated := mutatedGuarded(fn.Body, recv)
		if len(mutated) == 0 {
			continue
		}
		if callsBump(fn.Body) {
			continue
		}
		f := Finding{Pos: fset.Position(fn.Pos()), Func: fn.Name.Name, Fields: mutated}
		if reason, ok := exemptReason(fn.Doc); ok {
			f.Exempt, f.Reason = true, reason
		}
		out = append(out, f)
	}
	return out
}

// exemptReason extracts the directive's reason from a doc comment.
func exemptReason(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, exemptDirective); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// mutatedGuarded collects guarded receiver fields the body writes:
// assignments (plain or compound) through a selector path rooted at
// the receiver, and copy() into such a path.
func mutatedGuarded(body *ast.BlockStmt, recv string) []string {
	seen := map[string]bool{}
	record := func(expr ast.Expr) {
		if f, ok := guardedPath(expr, recv); ok {
			seen[f] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(st.X)
		case *ast.CallExpr:
			if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "copy" && len(st.Args) == 2 {
				record(st.Args[0])
			}
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// guardedPath reports the first guarded field on a selector/index
// path rooted at the receiver identifier. `m.LDT.onMutate = ...`
// matches LDT; `t.entries[i] = d` matches entries; `c.GDT = ...` with
// c not the receiver matches nothing.
func guardedPath(expr ast.Expr, recv string) (string, bool) {
	var fields []string
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			fields = append(fields, e.Sel.Name)
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			if e.Name != recv {
				return "", false
			}
			for _, f := range fields {
				if guardedFields[f] {
					return f, true
				}
			}
			return "", false
		default:
			return "", false
		}
	}
}

// callsBump reports whether the body invokes any generation-advancing
// callee (method value assignments like `t.onMutate = ...` do not
// count; only calls do).
func callsBump(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if bumpCalls[fun.Sel.Name] {
				found = true
			}
		case *ast.Ident:
			if bumpCalls[fun.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}
