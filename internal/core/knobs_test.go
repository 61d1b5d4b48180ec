package core

import (
	"reflect"
	"testing"

	"repro/internal/dagman"
	"repro/internal/fabric"
	"repro/internal/pegasus"
	"repro/internal/portal"
	"repro/internal/webservice"
)

// TestKnobBudget pins the exported field count of every configuration
// struct (`make knobs` prints the same table). Each independent knob doubles
// the configurations the recovery proofs and the benchmark must cover, so a
// new one has to be argued for, not slipped in.
func TestKnobBudget(t *testing.T) {
	for _, c := range []struct {
		cfg    any
		budget int
	}{
		{webservice.Config{}, 26},
		{Config{}, 23},
		{dagman.Options{}, 7},
		{portal.Config{}, 16},
		{pegasus.Config{}, 10},
		{fabric.Config{}, 7},
		{fabric.SimOptions{}, 4},
	} {
		typ := reflect.TypeOf(c.cfg)
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		if n != c.budget {
			t.Errorf("%s has %d exported fields, budget %d: justify a new knob with two existing non-test "+
				"callers that need different values, or derive it from what the code already knows; "+
				"lower the budget when one is removed", typ, n, c.budget)
		}
	}
}
