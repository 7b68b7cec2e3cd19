package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"adept2"
)

// workload fixes everything a round does except the seed.
type workload struct {
	name   string
	remote bool // drive the System through rpc.Client over loopback HTTP
	loop   bool // loop-process population instead of online orders

	shards     int // CheckpointConfig.Shards (0: single journal)
	checkpoint int // orders: an explicit checkpoint after set-up, after every this many loop commands and before close (0: none)

	population int // instances loaded at set-up
	ops        int // step and ad-hoc commands per round
	segment    int // commands per timed loop segment; ops/2 and checkpoint are multiples of it
	window     int // commands the writer pipelines before awaiting receipts (1: blocking)
}

const (
	readEvery = 16 // a worklist page read before every readEvery-th command
	pageSize  = 50
	mineScans = 10
)

var workloads = []*workload{
	// A large population on a sharded, checkpointed layout: snapshot
	// staging and encoding, the command barrier, the worklist index
	// rebuild, fast-check migration, the mining fold and snapshot
	// restore do most of their work here.
	{name: "orders-large", shards: 4, checkpoint: 1024, population: 3000, ops: 4096, segment: 64, window: 64},
	// The same mix over loopback HTTP on a small population: request
	// handling, the JSON wire codec and receipt resolution dominate,
	// while snapshots, worklist rebuilds and scans stay cheap.
	{name: "orders-remote", remote: true, shards: 4, checkpoint: 512, population: 300, ops: 1024, segment: 4, window: 4},
	// Long loop histories on one journal without snapshots, submitted
	// blocking: per-command durability round trips, history reduction,
	// replay-check migration, mining of long histories and full replay.
	{name: "loops-replay", loop: true, population: 300, ops: 3000, segment: 100, window: 1},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// generate builds the starting instances and the set-up commands that
// load them. The make-up of the population is fixed by the workload;
// the seed only shuffles which instance gets which part of it, so every
// seed loads the same amount of work. Online orders come in the Fig. 1
// mix: 25% fresh, 30% I1 (get_order, collect_data, compose_order done),
// 15% I2 (get_order done plus the I2 bias), 15% I3 (I1 plus pack_goods)
// and 15% finished. A fifth of the fresh instances plan the I2 bias, two
// fifths the disjoint quality-check bias; a third of the I1 instances
// carry the quality-check bias from set-up and another third plan it.
// Loop instances have run 2 to 5 passes, plan 6 to 15, three in ten
// leave the loop and finalize, and 15% plan the audit bias.
func (w *workload) generate(rng *rand.Rand) ([]*inst, []adept2.Command) {
	type part struct{ kind, k int }
	parts := make([]part, w.population)
	for i := range parts {
		parts[i] = part{kind: i * 100 / w.population, k: i}
	}
	rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })

	insts := make([]*inst, 0, w.population)
	var cmds []adept2.Command
	step := func(in *inst, node string) {
		cmds = append(cmds, in.stepCommand(node, false))
		in.complete(node, false)
	}
	for i, p := range parts {
		if w.loop {
			in := newLoop(fmt.Sprintf("l%05d", i), 6+p.k%10, p.kind%10 < 3)
			if p.kind%20 < 3 {
				in.adhoc = biasAudit
			}
			cmds = append(cmds, &adept2.CreateInstance{TypeName: loopType, ID: in.id})
			for pre := 2 + (p.k/10)%4; in.passes < pre; {
				node, again, _ := in.next(nil)
				cmds = append(cmds, in.stepCommand(node, again))
				in.complete(node, again)
			}
			insts = append(insts, in)
			continue
		}
		in := newOrder(fmt.Sprintf("o%06d", i))
		cmds = append(cmds, &adept2.CreateInstance{TypeName: orderType, ID: in.id})
		switch sub := p.k % 15; {
		case p.kind < 25: // fresh
			switch sub % 5 {
			case 0:
				in.adhoc = biasI2
			case 1, 2:
				in.adhoc = biasQC
			}
		case p.kind < 55: // I1
			step(in, "get_order")
			step(in, "collect_data")
			step(in, "compose_order")
			switch sub % 3 {
			case 0:
				in.bias = biasQC
				cmds = append(cmds, in.adhocCommand(biasQC))
			case 1:
				in.adhoc = biasQC
			}
		case p.kind < 70: // I2
			step(in, "get_order")
			in.bias = biasI2
			cmds = append(cmds, in.adhocCommand(biasI2))
		case p.kind < 85: // I3
			for _, n := range []string{"get_order", "collect_data", "compose_order", "pack_goods"} {
				step(in, n)
			}
		default: // finished
			for _, n := range []string{"get_order", "collect_data", "confirm_order", "compose_order", "pack_goods", "deliver_goods"} {
				step(in, n)
			}
		}
		insts = append(insts, in)
	}
	return insts, cmds
}

// opKind classifies a writer's commands.
type opKind uint8

const (
	opStep opKind = iota
	opAdhoc
)

// pendingOp is a submitted command awaiting its receipt.
type pendingOp struct {
	kind   opKind
	rcpt   waiter
	start  time.Time
	issued time.Time // SubmitAsync returned
	root   int64     // root span ID
}

// writer is the closed-loop client: it drives the population step by
// step, reading its user's worklist between steps and applying the
// planned ad-hoc changes.
type writer struct {
	w      *workload
	tg     target
	rng    *rand.Rand
	insts  []*inst
	cursor int
	user   string
	tr     *tracer

	sinceRead int
	steps     int
	adhocs    int
	reads     int
	failed    int

	commitMs, readMs, adhocMs []float64
	adhocSubmitUs             []float64
}

// pick is what nextOp found.
type pick uint8

const (
	picked    pick = iota
	windowEnd      // the next instance already has a command in this window
	exhausted      // no instance has work left
)

// nextOp picks the next command round-robin over the instances and
// advances the oracle. A window holds at most one command per instance,
// so nextOp stops at an instance in busy without advancing.
func (wr *writer) nextOp(busy map[*inst]bool) (adept2.Command, opKind, *inst, pick) {
	for tries := 0; tries < len(wr.insts); tries++ {
		in := wr.insts[wr.cursor]
		if busy[in] {
			return nil, 0, nil, windowEnd
		}
		wr.cursor = (wr.cursor + 1) % len(wr.insts)
		if in.adhoc != biasNone {
			b := in.adhoc
			in.adhoc = biasNone
			if in.adhocApplies(b) {
				in.bias = b
				return in.adhocCommand(b), opAdhoc, in, picked
			}
		}
		node, again, ok := in.next(wr.rng.Intn)
		if !ok {
			continue
		}
		in.complete(node, again)
		return in.stepCommand(node, again), opStep, in, picked
	}
	return nil, 0, nil, exhausted
}

// run issues up to n commands in windows and returns how many it issued.
// The steps of a window are submitted first and its ad-hoc changes last,
// so an ad-hoc change's latency does not depend on where it was picked.
func (wr *writer) run(ctx context.Context, n int) int {
	issued := 0
	pend := make([]pendingOp, 0, wr.w.window)
	busy := map[*inst]bool{}
	for done := false; issued < n && !done; {
		pend = pend[:0]
		clear(busy)
		var adhocs []adept2.Command
		for len(busy) < wr.w.window && issued < n {
			cmd, kind, in, p := wr.nextOp(busy)
			if p != picked {
				done = p == exhausted
				break
			}
			busy[in] = true
			issued++
			if kind == opAdhoc {
				adhocs = append(adhocs, cmd)
				continue
			}
			wr.submit(ctx, cmd, opStep, &pend)
		}
		for _, cmd := range adhocs {
			wr.submit(ctx, cmd, opAdhoc, &pend)
		}
		for _, p := range pend {
			wr.resolve(ctx, p)
		}
	}
	return issued
}

// submit reads the worklist when one is due, then submits cmd and
// queues its receipt.
func (wr *writer) submit(ctx context.Context, cmd adept2.Command, kind opKind, pend *[]pendingOp) {
	wr.maybeRead(ctx)
	p := pendingOp{kind: kind, start: time.Now(), root: wr.tr.id()}
	r, err := wr.tg.submitAsync(ctx, cmd)
	p.issued = time.Now()
	if err != nil {
		wr.failed++
		return
	}
	if kind == opAdhoc {
		wr.adhocSubmitUs = append(wr.adhocSubmitUs, float64(p.issued.Sub(p.start).Nanoseconds())/1e3)
	}
	wr.tr.rec(wr.tg.submitSpan(), p.root, p.root, p.start, p.issued)
	p.rcpt = r
	*pend = append(*pend, p)
}

// resolve awaits one receipt and records its latency.
func (wr *writer) resolve(ctx context.Context, p pendingOp) {
	err := p.rcpt.Wait(ctx)
	done := time.Now()
	if err != nil {
		wr.failed++
		return
	}
	wr.tr.rec(wr.tg.waitSpan(), p.root, p.root, p.issued, done)
	ms := float64(done.Sub(p.start).Nanoseconds()) / 1e6
	if p.kind == opAdhoc {
		wr.adhocs++
		wr.adhocMs = append(wr.adhocMs, ms)
		wr.tr.add(p.root, "op.adhoc", 0, p.root, p.start, done)
		return
	}
	wr.steps++
	wr.commitMs = append(wr.commitMs, ms)
	wr.tr.add(p.root, "op.step", 0, p.root, p.start, done)
}

// maybeRead reads the writer's worklist page before every readEvery-th
// command.
func (wr *writer) maybeRead(ctx context.Context) {
	wr.sinceRead++
	if wr.sinceRead < readEvery {
		return
	}
	wr.sinceRead = 0
	start := time.Now()
	_, err := wr.tg.read(ctx, wr.user, pageSize)
	end := time.Now()
	if err != nil {
		wr.failed++
		return
	}
	wr.reads++
	wr.readMs = append(wr.readMs, float64(end.Sub(start).Nanoseconds())/1e6)
	wr.tr.rec(wr.tg.readSpan(), 0, wr.tr.id(), start, end)
}

// closedLoop drives the writer through the workload's commands in
// segments and returns the loop's wall time and the step rate of each
// segment. On the orders workloads an explicit checkpoint follows every
// w.checkpoint commands; it is loop time but falls between segments, so
// the segment rates are the command path's alone. The type change ΔT
// runs after half the commands. The oracle's prediction before ΔT, the
// collection and ΔT itself are not loop time: ΔT is timed as the
// migration.
func closedLoop(ctx context.Context, sys *adept2.System, w *workload, wr *writer, all []*inst) (time.Duration, []float64, *evolveRun, error) {
	var loop time.Duration
	var rates []float64
	var ev *evolveRun
	for done := 0; done < w.ops; {
		if !w.loop && ev == nil && done >= w.ops/2 {
			pred := predictEvolve(all, false, 1)
			runtime.GC()
			start := time.Now()
			res, err := wr.tg.evolve(ctx, &adept2.Evolve{TypeName: orderType, Ops: orderTypeChange()})
			end := time.Now()
			if err != nil {
				return loop, rates, nil, fmt.Errorf("evolve: %w", err)
			}
			wr.tr.rec("evolution.evolve", 0, wr.tr.id(), start, end)
			applyMigration(all, pred, 2)
			ev = &evolveRun{pred, res, end.Sub(start)}
		}
		start, steps := time.Now(), wr.steps
		n := wr.run(ctx, min(w.segment, w.ops-done))
		took := time.Since(start)
		loop += took
		rates = append(rates, float64(wr.steps-steps)/took.Seconds())
		if n == 0 {
			return loop, rates, nil, fmt.Errorf("no instance has work left after %d of %d commands", done, w.ops)
		}
		done += n
		if w.checkpoint > 0 && done%w.checkpoint == 0 {
			ck := time.Now()
			if _, _, err := sys.Checkpoint(); err != nil {
				return loop, rates, nil, fmt.Errorf("checkpoint: %w", err)
			}
			end := time.Now()
			wr.tr.rec("durable.checkpoint", 0, wr.tr.id(), ck, end)
			loop += end.Sub(ck)
		}
	}
	return loop, rates, ev, nil
}
