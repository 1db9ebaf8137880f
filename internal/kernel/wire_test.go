package kernel

import (
	"reflect"
	"testing"
)

// TestCostSheetWireCoverage: costsFields lists every CostSheet field
// exactly once, so a cost added to the struct cannot silently drop out
// of the byte image.
func TestCostSheetWireCoverage(t *testing.T) {
	var c CostSheet
	listed := map[*float64]bool{}
	for _, p := range costsFields(&c) {
		if listed[p] {
			t.Errorf("costsFields lists a field twice")
		}
		listed[p] = true
	}
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		p, ok := f.Addr().Interface().(*float64)
		if !ok {
			t.Errorf("CostSheet.%s is %v; the wire format encodes float64 costs only", v.Type().Field(i).Name, f.Type())
			continue
		}
		if !listed[p] {
			t.Errorf("CostSheet.%s is missing from costsFields", v.Type().Field(i).Name)
		}
	}
	if len(listed) != v.NumField() {
		t.Errorf("costsFields lists %d fields, CostSheet has %d", len(listed), v.NumField())
	}
}
