package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"adept2"
	"adept2/internal/mining"
	"adept2/internal/obs"
	"adept2/internal/rpc"
	"adept2/internal/sim"
	"adept2/internal/state"
	"adept2/internal/vfs"
)

// roundResult is what one round measured.
type roundResult struct {
	setup, loop, recover time.Duration
	heapMB, bytesPerCmd  float64
	steps, attempted     int
	failed               int
	commitMs, readMs     []float64
	adhocMs              []float64
	migrated             int
	evolve               time.Duration
	mine                 time.Duration
	commitPerS           []float64          // one step rate per loop segment
	minePerS             []float64          // one rate per mining scan
	layer                map[string]float64 // per-layer values of this round
	adhocSubmitUs        []float64
	spans                []span
}

// round runs one whole round in dir: set up a fresh layout, drive the
// closed loop, migrate, mine, close, recover, and check the program's
// state against the oracle before and after recovery.
func round(ctx context.Context, w *workload, seed int64, dir string, traced bool) (*roundResult, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal")
	// Background snapshots are off: the orders workloads checkpoint at
	// fixed points of the loop instead, so every round does the same
	// snapshot work however fast the host runs.
	opts := []adept2.Option{
		adept2.WithCheckpointing(adept2.CheckpointConfig{Shards: w.shards, GroupCommit: true, Every: -1}),
		adept2.WithVFS(noSyncFS{vfs.OS()}),
	}

	rng := rand.New(rand.NewSource(seed))
	all, setupCmds := w.generate(rng)
	res := &roundResult{layer: map[string]float64{}}
	base := time.Now()
	var ids atomic.Int64
	var tr *tracer
	if traced {
		tr = newTracer(base, &ids)
	}

	// The heap the round adds is measured against what the process holds
	// before it: earlier rounds' samples and the oracle are not the
	// program's.
	runtime.GC()
	var msBase runtime.MemStats
	runtime.ReadMemStats(&msBase)

	// Set-up: open, (serve and dial), journal users and schemas, load,
	// checkpoint.
	setupStart := time.Now()
	sys, err := adept2.Open(journal, opts...)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	defer func() {
		if sys != nil {
			_ = sys.Close() // error paths only; the success path checks Close
		}
	}()
	var (
		tg  target = localTarget{sys}
		srv *rpc.Server
		cli *rpc.Client
	)
	if w.remote {
		if srv, err = rpc.NewServer(sys, rpc.Options{}); err != nil {
			return nil, err
		}
		defer srv.Close(context.Background())
		if cli, err = rpc.Dial(ctx, srv.URL()); err != nil {
			return nil, err
		}
		defer cli.Close()
		tg = remoteTarget{cli}
	}
	control := []adept2.Command{}
	for _, u := range users {
		control = append(control, &adept2.AddUser{User: u})
	}
	if w.loop {
		control = append(control, &adept2.Deploy{Schema: sim.LoopProcess()})
	} else {
		control = append(control, &adept2.Deploy{Schema: sim.OnlineOrder()})
	}
	if err := tg.batch(ctx, control); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	const chunk = 512
	for i := 0; i < len(setupCmds); i += chunk {
		if err := tg.batch(ctx, setupCmds[i:min(i+chunk, len(setupCmds))]); err != nil {
			return nil, fmt.Errorf("set-up load: %w", err)
		}
	}
	if w.checkpoint > 0 {
		if _, _, err := sys.Checkpoint(); err != nil {
			return nil, fmt.Errorf("set-up checkpoint: %w", err)
		}
	}
	res.setup = time.Since(setupStart)
	records := len(control) + len(setupCmds)

	// Closed loop.
	wr := &writer{w: w, tg: tg, rng: rand.New(rand.NewSource(seed*31 + 1)), insts: all, user: users[0].ID, tr: tr}
	m0 := sys.Metrics()
	jb0, err := journalBytes(dir)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	loopDur, rates, ev, err := closedLoop(ctx, sys, w, wr, all)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	m1 := sys.Metrics()
	jb1, err := journalBytes(dir)
	if err != nil {
		return nil, err
	}
	res.loop, res.commitPerS = loopDur, rates
	res.steps, res.failed = wr.steps, wr.failed
	res.attempted = wr.steps + wr.adhocs + wr.reads + wr.failed
	res.commitMs, res.readMs, res.adhocMs, res.adhocSubmitUs = wr.commitMs, wr.readMs, wr.adhocMs, wr.adhocSubmitUs
	records += wr.steps + wr.adhocs
	if res.failed > 0 {
		return res, fmt.Errorf("%d commands failed in the closed loop", res.failed)
	}
	// Two collections: the second also empties what sync.Pool victim
	// caches kept alive through the first.
	runtime.GC()
	runtime.GC()
	var msHeap runtime.MemStats
	runtime.ReadMemStats(&msHeap)
	res.heapMB = (float64(msHeap.HeapAlloc) - float64(msBase.HeapAlloc)) / (1 << 20)
	loopLayers(res, m0, m1, ms0, ms1, loopDur, jb1-jb0)

	// The worklist read cost after a write and with the user's index
	// cached: the writer reads its page twice, first after the loop's
	// writes, then with nothing written in between.
	for _, name := range []string{"worklist.page_after_write_us", "worklist.page_cached_us"} {
		start := time.Now()
		if _, err := tg.read(ctx, wr.user, pageSize); err != nil {
			return res, fmt.Errorf("worklist read: %w", err)
		}
		res.layer[name] = float64(time.Since(start).Nanoseconds()) / 1e3
		res.attempted++
	}

	// Migration: ΔT ran inside the loop for online orders; the loop
	// process evolves twice with the replay check after the loop.
	var evolves []evolveRun
	if ev != nil {
		res.attempted++
		records++
		evolves = append(evolves, *ev)
	} else {
		for k, ops := range loopTypeChanges() {
			pred := predictEvolve(all, true, k+1)
			runtime.GC()
			start := time.Now()
			er, err := tg.evolve(ctx, &adept2.Evolve{TypeName: loopType, Ops: ops,
				Options: adept2.EvolveOptions{Mode: adept2.ReplayCheck}})
			end := time.Now()
			if err != nil {
				return res, fmt.Errorf("evolve %d: %w", k+1, err)
			}
			tr.rec("evolution.evolve", 0, tr.id(), start, end)
			res.attempted++
			records++
			applyMigration(all, pred, k+2)
			evolves = append(evolves, evolveRun{pred, er, end.Sub(start)})
		}
	}
	var elapsed time.Duration
	for _, e := range evolves {
		if err := checkEvolve(e.pred, e.res); err != nil {
			return res, err
		}
		res.migrated += e.res.total
		res.evolve += e.took
		elapsed += e.res.elapsed
		for o, n := range e.res.counts {
			res.layer["evolution."+outcomeMetric(o)] += float64(n)
		}
	}
	res.layer["evolution.us_per_instance"] = float64(elapsed.Nanoseconds()) / 1e3 / float64(max(res.migrated, 1))
	res.layer["evolution.outside_migration_ms"] = ms(res.evolve - elapsed)

	// Mining scans. Each one-shot phase starts after a collection, so it
	// does not pay for garbage the loop left behind.
	for s := 0; s < mineScans; s++ {
		runtime.GC()
		start := time.Now()
		rep, err := sys.Mine(ctx, adept2.MineOptions{})
		end := time.Now()
		if err != nil {
			return res, fmt.Errorf("mine: %w", err)
		}
		tr.rec("mining.scan", 0, tr.id(), start, end)
		res.mine += end.Sub(start)
		res.minePerS = append(res.minePerS, float64(rep.Instances)/end.Sub(start).Seconds())
		if err := checkMine(rep, all); err != nil {
			return res, err
		}
	}
	res.layer["mining.scan_ms_mean"] = ms(res.mine) / float64(mineScans)

	if err := checkState(sys, all, records); err != nil {
		return res, fmt.Errorf("live state: %w", err)
	}

	// A checkpoint before the clean close: online-order recovery is a
	// snapshot restore; the loop layout has no snapshots and replays
	// its whole journal.
	if w.checkpoint > 0 {
		start := time.Now()
		if _, _, err := sys.Checkpoint(); err != nil {
			return res, fmt.Errorf("checkpoint: %w", err)
		}
		end := time.Now()
		tr.rec("durable.checkpoint_call", 0, tr.id(), start, end)
		res.layer["durable.checkpoint_call_ms"] = ms(end.Sub(start))
	}
	if w.remote {
		snap := sys.Metrics()
		if cmds := snap.RPC.Endpoints["commands"]; cmds.Latency.Count > 0 {
			res.layer["rpc.server_commands_us_mean"] = float64(cmds.Latency.Sum) / float64(cmds.Latency.Count) / 1e3
		}
		receipts := res.steps + len(res.adhocMs)
		res.layer["rpc.stream_events_per_receipt"] = float64(snap.RPC.StreamEvents) / float64(max(receipts, 1))
		_ = cli.Close() // idempotent; the deferred Close repeats it
		if err := srv.Close(ctx); err != nil {
			return res, fmt.Errorf("server close: %w", err)
		}
	}
	err = sys.Close()
	sys = nil
	if err != nil {
		return res, fmt.Errorf("close: %w", err)
	}
	jb, err := journalBytes(dir)
	if err != nil {
		return res, err
	}
	res.bytesPerCmd = float64(jb) / float64(records)
	res.layer["persist.journal_bytes"] = float64(jb)

	// Recovery after the clean close.
	runtime.GC()
	start := time.Now()
	sys, err = adept2.Open(journal, opts...)
	end := time.Now()
	if err != nil {
		return res, fmt.Errorf("recover: %w", err)
	}
	tr.rec("recovery.open", 0, tr.id(), start, end)
	res.recover = end.Sub(start)
	info := sys.Recovery()
	res.layer["recovery.replayed"] = float64(info.Replayed)
	if info.Replayed > 0 {
		res.layer["recovery.us_per_replayed"] = float64(res.recover.Nanoseconds()) / 1e3 / float64(info.Replayed)
	}
	res.layer["recovery.snapshot_bytes_read"] = float64(sys.Metrics().Checkpoint.BytesRead)
	if err := checkState(sys, all, records); err != nil {
		return res, fmt.Errorf("recovered state: %w", err)
	}
	rep, err := sys.Mine(ctx, adept2.MineOptions{})
	if err != nil {
		return res, fmt.Errorf("mine after recovery: %w", err)
	}
	if err := checkMine(rep, all); err != nil {
		return res, fmt.Errorf("after recovery: %w", err)
	}
	err = sys.Close()
	sys = nil
	if err != nil {
		return res, fmt.Errorf("close after recovery: %w", err)
	}
	if tr != nil {
		res.spans = tr.spans
	}
	return res, nil
}

// evolveRun is one Evolve with the oracle's prediction and its wall time.
type evolveRun struct {
	pred map[string]adept2.Outcome
	res  evolveResult
	took time.Duration
}

// loopLayers derives the per-layer counters of the closed loop from the
// program's metric snapshots and the runtime's allocation statistics.
func loopLayers(res *roundResult, m0, m1 *obs.Snapshot, ms0, ms1 runtime.MemStats, window time.Duration, journalGrowth int64) {
	l := res.layer
	cmds := float64(max(res.steps, 1))
	l["runtime.alloc_bytes_per_cmd"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / cmds
	l["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	l["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	fs := m1.Committer.Fsync.Count - m0.Committer.Fsync.Count
	l["durable.fsyncs"] = float64(fs)
	if fs > 0 {
		l["durable.fsync_us_mean"] = float64(m1.Committer.Fsync.Sum-m0.Committer.Fsync.Sum) / float64(fs) / 1e3
	}
	if b := m1.Committer.BatchRecords.Count - m0.Committer.BatchRecords.Count; b > 0 {
		l["durable.records_per_fsync"] = float64(m1.Committer.BatchRecords.Sum-m0.Committer.BatchRecords.Sum) / float64(b)
	}
	ck := m1.Checkpoint.Count - m0.Checkpoint.Count
	ckNs := m1.Checkpoint.Nanos.Sum - m0.Checkpoint.Nanos.Sum
	l["durable.checkpoints"] = float64(ck)
	if ck > 0 {
		l["durable.checkpoint_ms_mean"] = float64(ckNs) / float64(ck) / 1e6
	}
	l["durable.checkpoint_busy_share"] = float64(ckNs) / float64(window.Nanoseconds())
	if journalGrowth > 0 {
		l["durable.snapshot_bytes_per_journal_byte"] = float64(m1.Checkpoint.BytesWritten-m0.Checkpoint.BytesWritten) / float64(journalGrowth)
	}
}

var journalName = regexp.MustCompile(`^journal(\.shard-[0-9]+)?$`)

// journalBytes sums the sizes of the layout's journal files.
func journalBytes(dir string) (int64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, de := range des {
		if de.IsDir() || !journalName.MatchString(de.Name()) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func outcomeMetric(o string) string { return strings.ReplaceAll(o, "-", "_") }

// checkEvolve compares a migration report with the oracle's prediction.
func checkEvolve(pred map[string]adept2.Outcome, got evolveResult) error {
	if got.total != len(pred) {
		return fmt.Errorf("evolve classified %d instances, oracle expects %d", got.total, len(pred))
	}
	want := countOutcomes(pred)
	for k, v := range want {
		if got.counts[k] != v {
			return fmt.Errorf("evolve outcomes %v, oracle expects %v", got.counts, want)
		}
	}
	for id, o := range got.perInst {
		if pred[id] != o {
			return fmt.Errorf("evolve: instance %s %s, oracle expects %s", id, o, pred[id])
		}
	}
	return nil
}

// checkMine compares a mining report with the oracle's totals. For
// online orders it also compares the completions of every order
// activity: one the oracle never completed must have none. Gateways are
// not in the oracle's model and are not compared.
func checkMine(rep *mining.Report, all []*inst) error {
	var done, biased int64
	orders := len(all) > 0 && !all[0].loop
	completes := map[string]int64{}
	for _, in := range all {
		if in.finished() {
			done++
		}
		if in.bias != biasNone {
			biased++
		}
		if orders {
			for n := range in.done {
				completes[n]++
			}
		}
	}
	if rep.Instances != int64(len(all)) || rep.Done != done || rep.Biased != biased {
		return fmt.Errorf("mined instances/done/biased %d/%d/%d, oracle expects %d/%d/%d",
			rep.Instances, rep.Done, rep.Biased, len(all), done, biased)
	}
	sum := rep.VariantOverflow
	for _, v := range rep.Variants {
		sum += v.Count
	}
	if sum != int64(len(all)) {
		return fmt.Errorf("mined variant counts sum to %d, population is %d", sum, len(all))
	}
	if !orders {
		return nil
	}
	mined := map[string]int64{}
	for _, n := range rep.Nodes {
		mined[n.Node] += n.Completes
	}
	for _, n := range orderNodes {
		if mined[n] != completes[n] {
			return fmt.Errorf("mined %d completions of %s, oracle expects %d", mined[n], n, completes[n])
		}
	}
	return nil
}

// checkState compares every instance, every worklist and the journal's
// record count with the oracle.
func checkState(sys *adept2.System, all []*inst, records int) error {
	if got := sys.JournalSeq(); got != records {
		return fmt.Errorf("journal holds %d records, oracle expects %d", got, records)
	}
	if got := sys.Engine().NumInstances(); got != len(all) {
		return fmt.Errorf("%d instances, oracle expects %d", got, len(all))
	}
	for _, in := range all {
		pi, ok := sys.Instance(in.id)
		if !ok {
			return fmt.Errorf("instance %s missing", in.id)
		}
		if pi.Version() != in.version || pi.Done() != in.finished() {
			return fmt.Errorf("instance %s: version %d done %v, oracle expects %d %v",
				in.id, pi.Version(), pi.Done(), in.version, in.finished())
		}
		if err := checkNodes(pi, in); err != nil {
			return fmt.Errorf("instance %s: %w", in.id, err)
		}
	}
	for u, want := range expectedWorkItems(all) {
		if got := len(sys.WorkItems(u)); got != want {
			return fmt.Errorf("worklist of %s holds %d items, oracle expects %d", u, got, want)
		}
	}
	return nil
}

// checkNodes compares the node states of one instance with the oracle:
// completed nodes are completed, enabled nodes activated, and no other
// node of the model is activated or running.
func checkNodes(pi *adept2.Instance, in *inst) error {
	enabled := map[string]bool{}
	for _, n := range in.enabled() {
		enabled[n] = true
	}
	var nodes []string
	if in.loop {
		nodes = append(append(nodes, loopBody...), in.loopTail()...)
		// The program counts loop-backs: the pass that leaves the loop
		// does not iterate.
		want := in.passes
		if in.pos == len(loopBody) {
			want--
		}
		if got := pi.LoopIterations(loopEnd); got != want {
			return fmt.Errorf("loop iterations %d, oracle expects %d", got, want)
		}
	} else {
		for n := range orderModels[[2]int{in.version, int(in.bias)}] {
			nodes = append(nodes, n)
		}
	}
	for _, n := range nodes {
		st := pi.NodeState(n)
		switch {
		case enabled[n] && st != state.Activated:
			return fmt.Errorf("node %s is %s, oracle expects activated", n, st)
		case !enabled[n] && (st == state.Activated || st == state.Running):
			return fmt.Errorf("node %s is %s, oracle expects it not enabled", n, st)
		case in.done[n] && st != state.Completed:
			return fmt.Errorf("node %s is %s, oracle expects completed", n, st)
		}
	}
	return nil
}
