package main

import (
	"context"
	"testing"

	"adept2"
	"adept2/internal/sim"
)

// newSystem returns a non-durable system with the benchmark's users and
// the schema deployed.
func newSystem(t *testing.T, schema *adept2.Schema) *adept2.System {
	t.Helper()
	sys := adept2.New()
	for _, u := range users {
		submit(t, sys, &adept2.AddUser{User: u})
	}
	submit(t, sys, &adept2.Deploy{Schema: schema})
	return sys
}

func submit(t *testing.T, sys *adept2.System, c adept2.Command) any {
	t.Helper()
	res, err := sys.Submit(context.Background(), c)
	if err != nil {
		t.Fatalf("%s: %v", c.CommandName(), err)
	}
	return res
}

// step completes node on the program and in the oracle.
func step(t *testing.T, sys *adept2.System, in *inst, node string, again bool) {
	t.Helper()
	submit(t, sys, in.stepCommand(node, again))
	in.complete(node, again)
}

// order creates an online-order instance and completes nodes in order.
func order(t *testing.T, sys *adept2.System, id string, nodes ...string) *inst {
	t.Helper()
	in := newOrder(id)
	submit(t, sys, &adept2.CreateInstance{TypeName: orderType, ID: id})
	for _, n := range nodes {
		step(t, sys, in, n, false)
	}
	return in
}

// bias applies the ad-hoc change b, which the oracle must allow.
func bias(t *testing.T, sys *adept2.System, in *inst, b biasKind, then ...string) *inst {
	t.Helper()
	if !in.adhocApplies(b) {
		t.Fatalf("%s: oracle rejects bias %d", in.id, b)
	}
	submit(t, sys, in.adhocCommand(b))
	in.bias = b
	for _, n := range then {
		step(t, sys, in, n, false)
	}
	return in
}

// checkAgainst compares the report with the prediction, instance by
// instance, and every instance's state with the oracle.
func checkAgainst(t *testing.T, sys *adept2.System, insts []*inst, pred map[string]adept2.Outcome, rep *adept2.MigrationReport) {
	t.Helper()
	if rep.Total() != len(pred) {
		t.Fatalf("report classifies %d instances, oracle %d", rep.Total(), len(pred))
	}
	for _, r := range rep.Results {
		if pred[r.Instance] != r.Outcome {
			t.Errorf("%s: program %s (%s), oracle %s", r.Instance, r.Outcome, r.Detail, pred[r.Instance])
		}
	}
	for _, in := range insts {
		pi, ok := sys.Instance(in.id)
		if !ok {
			t.Fatalf("%s missing", in.id)
		}
		if pi.Version() != in.version || pi.Done() != in.finished() {
			t.Errorf("%s: version %d done %v, oracle %d %v", in.id, pi.Version(), pi.Done(), in.version, in.finished())
		}
		if err := checkNodes(pi, in); err != nil {
			t.Errorf("%s: %v", in.id, err)
		}
	}
	for u, want := range expectedWorkItems(insts) {
		if got := len(sys.WorkItems(u)); got != want {
			t.Errorf("worklist of %s: %d items, oracle %d", u, got, want)
		}
	}
}

// runToEnd drives every unfinished instance to its end along the
// oracle's model, so the post-migration models are checked as well.
func runToEnd(t *testing.T, sys *adept2.System, insts []*inst) {
	t.Helper()
	first := func(int) int { return 0 }
	for _, in := range insts {
		for {
			node, again, ok := in.next(first)
			if !ok {
				break
			}
			step(t, sys, in, node, again)
		}
		if pi, _ := sys.Instance(in.id); !pi.Done() {
			t.Errorf("%s: oracle finished, program not done", in.id)
		}
	}
}

// fig1Population is one instance of each Fig. 1 state, plus a fresh one
// and disjointly biased ones.
func fig1Population(t *testing.T, sys *adept2.System) []*inst {
	return []*inst{
		order(t, sys, "i1", "get_order", "collect_data", "compose_order"),
		bias(t, sys, order(t, sys, "i2", "get_order"), biasI2),
		order(t, sys, "i3", "get_order", "collect_data", "compose_order", "pack_goods"),
		order(t, sys, "done", "get_order", "collect_data", "confirm_order", "compose_order", "pack_goods", "deliver_goods"),
		order(t, sys, "fresh"),
		order(t, sys, "confirmed", "get_order", "collect_data", "confirm_order"),
		bias(t, sys, order(t, sys, "qc", "get_order", "collect_data"), biasQC),
		bias(t, sys, order(t, sys, "i2-late", "get_order"), biasI2, "collect_data", "send_brochure", "confirm_order"),
	}
}

func TestOraclePredictsFig1Migration(t *testing.T) {
	for _, mode := range []adept2.CheckMode{adept2.FastCheck, adept2.ReplayCheck} {
		t.Run(mode.String(), func(t *testing.T) {
			sys := newSystem(t, sim.OnlineOrder())
			insts := fig1Population(t, sys)
			pred := predictEvolve(insts, false, 1)
			want := map[string]adept2.Outcome{
				"i1": adept2.Migrated, "i2": adept2.StructuralConflict, "i3": adept2.StateConflict,
				"done": adept2.AlreadyFinished, "fresh": adept2.Migrated, "confirmed": adept2.StateConflict,
				"qc": adept2.Migrated, "i2-late": adept2.StructuralConflict,
			}
			for id, o := range want {
				if pred[id] != o {
					t.Fatalf("oracle predicts %s for %s, the paper's rule says %s", pred[id], id, o)
				}
			}
			rep := submit(t, sys, &adept2.Evolve{TypeName: orderType, Ops: orderTypeChange(),
				Options: adept2.EvolveOptions{Mode: mode}}).(*adept2.MigrationReport)
			applyMigration(insts, pred, 2)
			checkAgainst(t, sys, insts, pred, rep)
			runToEnd(t, sys, insts)
		})
	}
}

func TestOraclePredictsLoopMigration(t *testing.T) {
	sys := newSystem(t, sim.LoopProcess())
	var insts []*inst
	add := func(id string, passes, target int, finish bool, extra int, audit bool) {
		in := newLoop(id, target, finish)
		submit(t, sys, &adept2.CreateInstance{TypeName: loopType, ID: id})
		if audit {
			submit(t, sys, in.adhocCommand(biasAudit))
			in.bias = biasAudit
		}
		for in.passes < passes {
			node, again, _ := in.next(nil)
			step(t, sys, in, node, again)
		}
		for i := 0; i < extra; i++ {
			node, again, ok := in.next(nil)
			if !ok {
				break
			}
			step(t, sys, in, node, again)
		}
		insts = append(insts, in)
	}
	add("new", 0, 6, false, 0, false)
	add("one", 1, 6, false, 0, false)
	add("mid-pass", 3, 6, false, 2, false)
	add("many", 12, 20, false, 0, true)
	add("left", 4, 4, true, 0, false)
	add("finalized", 4, 4, true, 1, true)
	add("done", 4, 4, true, 1, false)
	for k, ops := range loopTypeChanges() {
		pred := predictEvolve(insts, true, k+1)
		rep := submit(t, sys, &adept2.Evolve{TypeName: loopType, Ops: ops,
			Options: adept2.EvolveOptions{Mode: adept2.ReplayCheck}}).(*adept2.MigrationReport)
		if k == 0 {
			want := map[string]adept2.Outcome{
				"new": adept2.Migrated, "one": adept2.Migrated, "mid-pass": adept2.Migrated,
				"many": adept2.Migrated, "left": adept2.Migrated,
				"finalized": adept2.StateConflict, "done": adept2.AlreadyFinished,
			}
			for id, o := range want {
				if pred[id] != o {
					t.Fatalf("oracle predicts %s for %s, the rule says %s", pred[id], id, o)
				}
			}
		}
		applyMigration(insts, pred, k+2)
		checkAgainst(t, sys, insts, pred, rep)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}}
	if got := covered(p, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}
