package main

import (
	"fmt"
	"sort"

	"adept2"
)

// The oracle is the benchmark's own model of every instance it drives.
// It is computed from the commands the generator issued and from the
// paper's rules (precedence, compliance, the Fig. 1 conflicts), never
// from the program's state, so the end-of-run checks compare two
// independent derivations of the same population.

// Process type names, as the program's fixtures deploy them.
const (
	orderType = "online_order"
	loopType  = "loopy"
	loopEnd   = "loop-end_2"
)

// biasKind names the ad-hoc changes the generator applies.
type biasKind uint8

const (
	biasNone biasKind = iota
	// biasI2 is the Fig. 1 I2 bias: send_brochure before confirm_order
	// plus a sync edge confirm_order -> compose_order. With the type
	// change ΔT it closes a cycle, so it is a structural conflict.
	biasI2
	// biasQC inserts quality_check between pack_goods and the AND join;
	// it is disjoint from ΔT and migrates with it.
	biasQC
	// biasAudit inserts audit after finalize in a loop instance.
	biasAudit
)

// users is the organisation the generator journals at set-up.
var users = []*adept2.User{
	{ID: "ann", Name: "Ann", Roles: []string{"clerk", "sales", "worker"}},
	{ID: "bob", Name: "Bob", Roles: []string{"warehouse", "courier", "worker"}},
	{ID: "cyn", Name: "Cyn", Roles: []string{"clerk", "warehouse", "worker"}},
	{ID: "dan", Name: "Dan", Roles: []string{"sales", "courier", "worker"}},
}

// performer is the user who completes an activity of the role.
var performer = map[string]string{
	"clerk": "ann", "sales": "dan", "warehouse": "bob", "courier": "bob", "worker": "cyn",
}

var roleOf = map[string]string{
	"get_order": "clerk", "collect_data": "clerk", "confirm_order": "sales",
	"compose_order": "warehouse", "pack_goods": "warehouse", "deliver_goods": "courier",
	"send_questions": "sales", "send_brochure": "sales", "quality_check": "warehouse",
	"step1": "worker", "step2": "worker", "step3": "worker", "finalize": "worker",
	"audit": "worker", "review": "worker", "sign_off": "worker",
}

// orderNodes lists every activity an online-order instance can have, in
// a fixed order.
var orderNodes = []string{
	"get_order", "collect_data", "send_brochure", "confirm_order",
	"compose_order", "send_questions", "pack_goods", "quality_check", "deliver_goods",
}

// orderPreds returns the precedence relation of an online-order
// instance: version 2 carries ΔT (send_questions between compose_order
// and pack_goods, sync edge send_questions -> confirm_order), and the
// bias adds its own nodes and edges.
func orderPreds(version int, bias biasKind) map[string][]string {
	p := map[string][]string{
		"get_order":     nil,
		"collect_data":  {"get_order"},
		"confirm_order": {"collect_data"},
		"compose_order": {"get_order"},
		"pack_goods":    {"compose_order"},
		"deliver_goods": {"confirm_order", "pack_goods"},
	}
	if version >= 2 {
		p["send_questions"] = []string{"compose_order"}
		p["pack_goods"] = []string{"send_questions"}
		p["confirm_order"] = append(p["confirm_order"], "send_questions")
	}
	switch bias {
	case biasI2:
		p["send_brochure"] = []string{"collect_data"}
		p["confirm_order"] = []string{"send_brochure"}
		p["compose_order"] = []string{"get_order", "confirm_order"}
	case biasQC:
		p["quality_check"] = []string{"pack_goods"}
		p["deliver_goods"] = []string{"confirm_order", "quality_check"}
	}
	return p
}

var orderModels = map[[2]int]map[string][]string{}

func init() {
	for v := 1; v <= 2; v++ {
		for _, b := range []biasKind{biasNone, biasI2, biasQC} {
			orderModels[[2]int{v, int(b)}] = orderPreds(v, b)
		}
	}
}

// loopBody is one pass of the loop process; loop-end_2 is the loop
// gateway, completed with an explicit iterate-again decision.
var loopBody = []string{"step1", "step2", "step3", loopEnd}

// inst is the oracle's view of one instance.
type inst struct {
	id      string
	loop    bool
	version int
	bias    biasKind
	done    map[string]bool // completed activities (loops: those after the loop)

	// Loop instances: pos is the next body node (len(loopBody) once the
	// loop was left), passes the completed passes, target the passes
	// the plan runs before leaving the loop.
	pos, passes, target int
	// finish: the plan leaves the loop and finalizes (loops only).
	finish bool

	adhoc biasKind // planned ad-hoc change not applied yet
}

func newOrder(id string) *inst {
	return &inst{id: id, version: 1, done: map[string]bool{}}
}

func newLoop(id string, target int, finish bool) *inst {
	return &inst{id: id, loop: true, version: 1, done: map[string]bool{}, target: target, finish: finish}
}

// finished reports whether the instance reached its end node.
func (in *inst) finished() bool {
	if in.loop {
		for _, n := range in.loopTail() {
			if !in.done[n] {
				return false
			}
		}
		return true
	}
	return in.done["deliver_goods"]
}

// loopTail lists a loop instance's activities after the loop, in order:
// review from version 2, sign_off from version 3, finalize, and audit
// when the instance carries that bias.
func (in *inst) loopTail() []string {
	var tail []string
	if in.version >= 2 {
		tail = append(tail, "review")
	}
	if in.version >= 3 {
		tail = append(tail, "sign_off")
	}
	tail = append(tail, "finalize")
	if in.bias == biasAudit {
		tail = append(tail, "audit")
	}
	return tail
}

// enabled lists the activities (and, for loops, the loop gateway) the
// instance can complete next.
func (in *inst) enabled() []string {
	if in.loop {
		if in.pos < len(loopBody) {
			return []string{loopBody[in.pos]}
		}
		for _, n := range in.loopTail() {
			if !in.done[n] {
				return []string{n}
			}
		}
		return nil
	}
	preds := orderModels[[2]int{in.version, int(in.bias)}]
	var out []string
	for _, n := range orderNodes {
		ps, ok := preds[n]
		if !ok || in.done[n] {
			continue
		}
		ready := true
		for _, p := range ps {
			if !in.done[p] {
				ready = false
				break
			}
		}
		if ready {
			out = append(out, n)
		}
	}
	return out
}

// workItems lists the enabled nodes that are offered as work items.
func (in *inst) workItems() []string {
	var out []string
	for _, n := range in.enabled() {
		if n != loopEnd {
			out = append(out, n)
		}
	}
	return out
}

// next picks the node the plan completes next and, for the loop
// gateway, the iterate-again decision: a finishing loop instance leaves
// after its target passes, the others keep iterating. Online-order
// instances pick uniformly among the enabled activities. ok is false
// when the plan has nothing left to do.
func (in *inst) next(pick func(n int) int) (node string, again bool, ok bool) {
	en := in.enabled()
	if len(en) == 0 {
		return "", false, false
	}
	if in.loop {
		return en[0], en[0] == loopEnd && (!in.finish || in.passes+1 < in.target), true
	}
	return en[pick(len(en))], false, true
}

// complete records one completed node.
func (in *inst) complete(node string, again bool) {
	if in.loop && in.pos < len(loopBody) {
		in.pos++
		if node == loopEnd {
			in.passes++
			if again {
				in.pos = 0
			}
		}
		return
	}
	in.done[node] = true
}

// stepCommand is the command completing node.
func (in *inst) stepCommand(node string, again bool) adept2.Command {
	c := &adept2.CompleteActivity{Instance: in.id, Node: node}
	switch {
	case node == loopEnd:
		c.Again = &again
	case node == "get_order":
		c.User = performer[roleOf[node]]
		c.Outputs = map[string]any{"out": "order-" + in.id}
	default:
		c.User = performer[roleOf[node]]
	}
	return c
}

// adhocApplies reports whether the ad-hoc change b is valid on the
// instance now: the paper's state conditions for inserting before a
// node that has not started.
func (in *inst) adhocApplies(b biasKind) bool {
	if in.bias != biasNone || in.finished() {
		return false
	}
	switch b {
	case biasI2:
		return !in.loop && in.version == 1 && in.done["get_order"] &&
			!in.done["collect_data"] && !in.done["compose_order"]
	case biasQC:
		return !in.loop && !in.done["pack_goods"]
	case biasAudit:
		return in.loop && !in.done["finalize"]
	}
	return false
}

// adhocCommand is the ad-hoc change command for b.
func (in *inst) adhocCommand(b biasKind) adept2.Command {
	var ops []adept2.Operation
	switch b {
	case biasI2:
		ops = []adept2.Operation{
			&adept2.SerialInsert{Node: activity("send_brochure"), Pred: "collect_data", Succ: "confirm_order"},
			&adept2.InsertSyncEdge{From: "confirm_order", To: "compose_order"},
		}
	case biasQC:
		ops = []adept2.Operation{&adept2.SerialInsert{Node: activity("quality_check"), Pred: "pack_goods", Succ: "and-join_2"}}
	case biasAudit:
		ops = []adept2.Operation{&adept2.SerialInsert{Node: activity("audit"), Pred: "finalize", Succ: "end"}}
	}
	return &adept2.AdHoc{Instance: in.id, Ops: ops}
}

func activity(id string) *adept2.Node {
	return &adept2.Node{ID: id, Name: id, Type: adept2.NodeActivity, Role: roleOf[id], Template: id}
}

// orderTypeChange is ΔT of Fig. 1.
func orderTypeChange() []adept2.Operation {
	return []adept2.Operation{
		&adept2.SerialInsert{Node: activity("send_questions"), Pred: "compose_order", Succ: "pack_goods"},
		&adept2.InsertSyncEdge{From: "send_questions", To: "confirm_order"},
	}
}

// loopTypeChanges are the successive type changes of the loop process:
// review after the loop (v2), then sign_off after review (v3).
func loopTypeChanges() [][]adept2.Operation {
	return [][]adept2.Operation{
		{&adept2.SerialInsert{Node: activity("review"), Pred: loopEnd, Succ: "finalize"}},
		{&adept2.SerialInsert{Node: activity("sign_off"), Pred: "review", Succ: "finalize"}},
	}
}

// predictOutcome applies the paper's migration rules to an instance for
// a type change from version from: finished instances stay, a bias that
// collides with the change is a structural conflict, an instance that
// already started a node the change puts behind a new activity is a
// state conflict, and everything else migrates. ok is false when the
// instance is not on version from (the evolution does not consider it).
func predictOutcome(in *inst, from int) (adept2.Outcome, bool) {
	if in.version != from {
		return 0, false
	}
	switch {
	case in.finished():
		return adept2.AlreadyFinished, true
	case in.loop:
		// Both loop changes insert before finalize.
		if in.done["finalize"] {
			return adept2.StateConflict, true
		}
		return adept2.Migrated, true
	case in.bias == biasI2:
		return adept2.StructuralConflict, true
	case in.done["confirm_order"] || in.done["pack_goods"]:
		return adept2.StateConflict, true
	}
	return adept2.Migrated, true
}

// outcomeCounts tallies predicted outcomes keyed like the wire report.
type outcomeCounts map[string]int

func (c outcomeCounts) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%d ", k, c[k])
	}
	return s
}

// predictEvolve predicts the outcome of every instance of the type on
// version from.
func predictEvolve(insts []*inst, loop bool, from int) map[string]adept2.Outcome {
	out := map[string]adept2.Outcome{}
	for _, in := range insts {
		if in.loop != loop {
			continue
		}
		if o, ok := predictOutcome(in, from); ok {
			out[in.id] = o
		}
	}
	return out
}

// applyMigration moves the migrated instances to version to.
func applyMigration(insts []*inst, pred map[string]adept2.Outcome, to int) {
	for _, in := range insts {
		if o, ok := pred[in.id]; ok && o == adept2.Migrated {
			in.version = to
		}
	}
}

func countOutcomes(pred map[string]adept2.Outcome) outcomeCounts {
	c := outcomeCounts{}
	for _, o := range pred {
		c[o.String()]++
	}
	return c
}

// expectedWorkItems counts each user's expected work items.
func expectedWorkItems(insts []*inst) map[string]int {
	byRole := map[string]int{}
	for _, in := range insts {
		for _, n := range in.workItems() {
			byRole[roleOf[n]]++
		}
	}
	out := map[string]int{}
	for _, u := range users {
		for _, r := range u.Roles {
			out[u.ID] += byRole[r]
		}
	}
	return out
}
