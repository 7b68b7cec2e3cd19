package main

import (
	"context"
	"fmt"
	"time"

	"adept2"
	"adept2/internal/rpc"
)

// waiter is a durability receipt: *adept2.Receipt in process,
// *rpc.Receipt over HTTP.
type waiter interface {
	Wait(ctx context.Context) error
}

// evolveResult is what the benchmark reads back from one Evolve.
type evolveResult struct {
	counts  outcomeCounts
	perInst map[string]adept2.Outcome // nil over the wire (counts only)
	total   int
	elapsed time.Duration // the migration report's own timing
}

// target is the command path a workload drives: the System in process
// or an rpc.Client over loopback HTTP.
type target interface {
	submitAsync(ctx context.Context, c adept2.Command) (waiter, error)
	batch(ctx context.Context, cmds []adept2.Command) error
	// read fetches the first worklist page of user and checks that every
	// item on it is offered to or claimed by that user.
	read(ctx context.Context, user string, limit int) (int, error)
	evolve(ctx context.Context, ev *adept2.Evolve) (evolveResult, error)
	// layer names the spans of calls into this target.
	submitSpan() string
	waitSpan() string
	readSpan() string
}

type localTarget struct{ sys *adept2.System }

func (t localTarget) submitAsync(ctx context.Context, c adept2.Command) (waiter, error) {
	return t.sys.SubmitAsync(ctx, c)
}

func (t localTarget) batch(ctx context.Context, cmds []adept2.Command) error {
	_, err := t.sys.SubmitBatch(ctx, cmds)
	return err
}

func (t localTarget) read(_ context.Context, user string, limit int) (int, error) {
	items, _ := t.sys.WorkItemsPage(user, "", limit)
	for _, it := range items {
		if !offeredTo(it.Offered, it.ClaimedBy, user) {
			return 0, fmt.Errorf("worklist of %s holds item %s offered to %v", user, it.ID, it.Offered)
		}
	}
	return len(items), nil
}

func (t localTarget) evolve(ctx context.Context, ev *adept2.Evolve) (evolveResult, error) {
	res, err := t.sys.Submit(ctx, ev)
	if err != nil {
		return evolveResult{}, err
	}
	rep := res.(*adept2.MigrationReport)
	out := evolveResult{counts: outcomeCounts{}, perInst: map[string]adept2.Outcome{},
		total: rep.Total(), elapsed: rep.Elapsed}
	for _, r := range rep.Results {
		out.perInst[r.Instance] = r.Outcome
		out.counts[r.Outcome.String()]++
	}
	return out, nil
}

func (localTarget) submitSpan() string { return "adept2.submit" }
func (localTarget) waitSpan() string   { return "adept2.durable_wait" }
func (localTarget) readSpan() string   { return "worklist.page" }

type remoteTarget struct{ cli *rpc.Client }

func (t remoteTarget) submitAsync(ctx context.Context, c adept2.Command) (waiter, error) {
	return t.cli.SubmitAsync(ctx, c)
}

func (t remoteTarget) batch(ctx context.Context, cmds []adept2.Command) error {
	_, err := t.cli.SubmitBatch(ctx, cmds)
	return err
}

func (t remoteTarget) read(ctx context.Context, user string, limit int) (int, error) {
	page, err := t.cli.WorkItems(ctx, user, "", limit)
	if err != nil {
		return 0, err
	}
	for _, it := range page.Items {
		if !offeredTo(it.Offered, it.ClaimedBy, user) {
			return 0, fmt.Errorf("worklist of %s holds item %s offered to %v", user, it.ID, it.Offered)
		}
	}
	return len(page.Items), nil
}

func (t remoteTarget) evolve(ctx context.Context, ev *adept2.Evolve) (evolveResult, error) {
	res, err := t.cli.Submit(ctx, ev)
	if err != nil {
		return evolveResult{}, err
	}
	if res.Result == nil || res.Result.Report == nil {
		return evolveResult{}, fmt.Errorf("evolve over the wire returned no report")
	}
	rep := res.Result.Report
	out := evolveResult{counts: outcomeCounts{}, total: rep.Total, elapsed: time.Duration(rep.ElapsedNanos)}
	for k, v := range rep.Outcomes {
		out.counts[k] = v
	}
	return out, nil
}

func (remoteTarget) submitSpan() string { return "rpc.client_submit" }
func (remoteTarget) waitSpan() string   { return "rpc.receipt_wait" }
func (remoteTarget) readSpan() string   { return "rpc.client_read" }

func offeredTo(offered []string, claimedBy, user string) bool {
	if claimedBy == user {
		return true
	}
	for _, u := range offered {
		if u == user {
			return true
		}
	}
	return false
}
