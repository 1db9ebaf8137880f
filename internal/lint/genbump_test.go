package lint

import (
	"strings"
	"testing"
)

// lintSrc wraps a body of declarations in a package clause and runs
// the check, returning finding strings for easy matching.
func lintSrc(t *testing.T, decls string) []Finding {
	t.Helper()
	fs, err := CheckSource("fixture.go", "package mmu\n\n"+decls)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fs
}

func TestGenbumpFixtures(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		want  []string // substrings of finding strings, in order
		clean bool
	}{
		{
			name: "mutation with bump is clean",
			src: `func (m *MMU) LoadTable(g Table) {
	m.GDT = g
	m.bumpSegGen()
}`,
			clean: true,
		},
		{
			name: "mutation through a table helper is clean",
			src: `func (t *Table) Install(i int, d Descriptor) {
	t.entries[i] = d
	t.onMutate()
}`,
			clean: true,
		},
		{
			name: "bare mutation is flagged",
			src: `func (m *MMU) swap(s *AddressSpace) {
	m.space = s
}`,
			want: []string{"swap mutates space without advancing a generation"},
		},
		{
			name: "copy into guarded slice is flagged",
			src: `func (t *Table) restore(src []Descriptor) {
	copy(t.entries, src)
}`,
			want: []string{"restore mutates entries"},
		},
		{
			name: "nested selector path is flagged",
			src: `func (m *MMU) rewire(fn func()) {
	m.GDT.onMutate = fn
}`,
			want: []string{"rewire mutates GDT"},
		},
		{
			name: "exempt directive downgrades to waiver",
			src: `// adopt rebinds the space.
//lint:genbump-exempt clone rebinding, tables identical
func (m *MMU) adopt(s *AddressSpace) {
	m.space = s
}`,
			want: []string{"exempt: clone rebinding, tables identical"},
		},
		{
			name: "non-receiver root is ignored",
			src: `func (m *MMU) CloneInto(c *MMU) {
	c.GDT = m.GDT
	c.space = nil
}`,
			clean: true,
		},
		{
			name: "plain function is ignored",
			src: `func reset(m *MMU) {
	m.space = nil
}`,
			clean: true,
		},
		{
			name: "unguarded field is ignored",
			src: `func (m *MMU) charge(n uint64) {
	m.cycles += n
}`,
			clean: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := lintSrc(t, tc.src)
			if tc.clean {
				if len(fs) != 0 {
					t.Fatalf("want no findings, got %v", fs)
				}
				return
			}
			if len(fs) != len(tc.want) {
				t.Fatalf("want %d finding(s), got %v", len(tc.want), fs)
			}
			for i, sub := range tc.want {
				if got := fs[i].String(); !strings.Contains(got, sub) {
					t.Fatalf("finding %d = %q, want substring %q", i, got, sub)
				}
			}
			exempt := strings.HasPrefix(tc.name, "exempt")
			if fs[0].Exempt != exempt {
				t.Fatalf("finding Exempt = %v, want %v", fs[0].Exempt, exempt)
			}
		})
	}
}

// TestGenbumpMMUPackage pins the real package's lint state: the only
// acceptable output is the AdoptSpace waiver (clone rebinding).
func TestGenbumpMMUPackage(t *testing.T) {
	fs, err := CheckDir("../mmu")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if !f.Exempt {
			t.Errorf("violation: %s", f)
		}
	}
	waivers := 0
	for _, f := range fs {
		if f.Exempt {
			waivers++
			if f.Func != "AdoptSpace" {
				t.Errorf("unexpected waiver: %s", f)
			}
		}
	}
	if waivers != 1 {
		t.Errorf("want exactly the AdoptSpace waiver, got %d waiver(s): %v", waivers, fs)
	}
}
