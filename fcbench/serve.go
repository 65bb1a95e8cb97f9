package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fastcolumns"
)

// The serve-closed workload: Engine.Serve with Cooperative set, driven
// by a few goroutine clients in a closed loop, each sending the next
// query of a seeded list as soon as its previous reply arrives: 80%
// point queries and 20% 5% ranges on a 200k-row attribute (800 KB, fits
// in L2). Admission, the batching window, the cooperative pass manager
// and reply delivery do the work; no merge runs while serving.
//
// The load is a closed loop because an open loop did not give a steady
// figure on a shared 2-core host: with arrivals on a fixed schedule, the
// share of queries that attach to a pass in flight rises with how slow
// the host is at the moment, each attach costs about as much CPU as a
// scan, and the CPU per query of ten runs spread by a third.
const (
	serveRows   = 200_000
	serveDomain = 1 << 20
	// serveClients is the number of clients in the closed loop: enough
	// to keep both cores of the reference host busy, few enough that the
	// scheduler, not the Go runtime, orders their queries.
	serveClients = 4
	// serveQueriesPerSecond sets the fixed number of queries from
	// -seconds; the 2-core reference host serves 1,000 to 1,700 a second.
	serveQueriesPerSecond = 1000
	servePoint            = 0.8 // share of point queries; the rest are 5% ranges
	serveRange            = 0.05
	// serveWarmup queries run before the timed phase and are checked
	// but not timed.
	serveWarmup = 500
)

func runServeClosed(e *env) error {
	col := newColumn(uniform(e.rng(1), serveRows, serveDomain))

	var srv *fastcolumns.Server
	var tbl *fastcolumns.Table
	closeServer, err := e.timeSetup(31, func() (time.Duration, func(), error) {
		var s *fastcolumns.Server
		// The table gets its own copy, apart from the model's values.
		vals := slices.Clone(col.vals)
		eng, t, d, err := setupTable("serve", func(eng *fastcolumns.Engine, t *fastcolumns.Table) []func() error {
			return []func() error{
				func() error { return t.AddColumn("v", vals) },
				func() error { return t.CreateIndex("v") },
				func() error { return t.Analyze("v", 128) },
				func() error {
					s = eng.Serve(fastcolumns.ServeOptions{Cooperative: e.coop})
					return nil
				},
			}
		})
		if err != nil {
			return 0, nil, err
		}
		srv, tbl = s, t
		return d, func() { s.Close(); eng.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer closeServer()

	// Every predicate comes from the seed.
	n := serveQueriesPerSecond * e.seconds
	r := e.rng(2)
	preds := make([]fastcolumns.Predicate, serveWarmup+n)
	for i := range preds {
		sel := 0.0
		if r.Float64() >= servePoint {
			sel = serveRange
		}
		preds[i] = pred(r, serveDomain, sel)
	}

	// latMs[traced] holds the timed queries' reply latencies; traced
	// runs trace every second timed query and compare the halves.
	var latMs [2][]float64
	var submitUs []float64
	var mu sync.Mutex
	ctx := context.Background()
	traced := func(i int) bool { return e.traced && i >= serveWarmup && i%2 == 1 }
	query := func(i int) {
		sent := time.Now()
		ch, err := srv.SubmitContext(ctx, "serve", "v", preds[i])
		submitted := time.Now()
		if err != nil {
			e.op(err, nil)
			return
		}
		rep := <-ch
		done := time.Now()
		var bad error
		if rep.Err == nil {
			bad = col.check(preds[i], rep.RowIDs)
		}
		e.op(rep.Err, bad)
		if i < serveWarmup || rep.Err != nil || bad != nil {
			return
		}
		if traced(i) {
			req := int64(i)
			root := e.tr.add("serve.query", 0, req, sent, done)
			e.tr.add("scheduler.submit", root, req, sent, submitted)
			e.tr.add("scheduler.wait", root, req, submitted, done)
		}
		mu.Lock()
		defer mu.Unlock()
		k := b2i(traced(i))
		latMs[k] = append(latMs[k], ms(done.Sub(sent)))
		if traced(i) {
			submitUs = append(submitUs, us(submitted.Sub(sent)))
		}
	}
	// run sends queries [from, to) from serveClients closed-loop clients
	// and ends a slice of the timed phase after every second's worth.
	run := func(from, to int, mark bool) {
		var next atomic.Int64
		next.Store(int64(from))
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < to; i = int(next.Add(1) - 1) {
					query(i)
					if mark && (i-from+1)%serveQueriesPerSecond == 0 && i+1 < to {
						e.mark()
					}
				}
			}()
		}
		wg.Wait()
	}

	run(0, serveWarmup, false)
	attachedBefore := srv.ServerStats().Attached
	err = e.measure(srv.Observe, func() error {
		run(serveWarmup, len(preds), true)
		return nil
	})
	if err != nil {
		return err
	}
	attached := srv.ServerStats().Attached - attachedBefore

	fmt.Printf("# queries %d (plus %d warm-up) from %d closed-loop clients, cooperative %v, %d attached mid-pass\n", n, serveWarmup, serveClients, e.coop, attached)
	fmt.Printf("# reply_ms p50 %.3f p90 %.3f p99 %.3f over %d samples\n", median(latMs[0]), quantile(latMs[0], 0.9), quantile(latMs[0], 0.99), len(latMs[0]))
	if !e.traced {
		return nil
	}

	// Only this workload runs the scheduler and the coop pass manager.
	hist := e.after.Histograms
	execNs := hist["scheduler.exec_ns"]
	_, savedNs := e.hist("coop.attach_saved_ns")
	e.layer("scheduler.submit_us", "us", median(submitUs))
	e.layer("scheduler.batch_width_p50", "count", float64(hist["scheduler.batch_width"].P50))
	e.layer("scheduler.exec_ms_p50", "ms", float64(execNs.P50)/1e6)
	e.layer("scheduler.exec_ms_p99", "ms", float64(execNs.P99)/1e6)
	e.layer("scheduler.wait_ms", "ms", median(latMs[1])-float64(execNs.P50)/1e6)
	e.layer("coop.attached_per_kop", "count", 1000*float64(attached)/float64(n))
	e.layer("coop.passes", "count", e.delta("coop.passes"))
	e.layer("coop.wrap_blocks", "count", e.delta("coop.wrap_blocks"))
	e.layer("coop.demand_skipped", "count", e.delta("coop.demand_skipped"))
	e.layer("coop.attach_saved_ms", "ms", savedNs/1e6)
	e.set("trace.overhead_pct", "%", overhead("reply_p50_ms", median(latMs[0]), median(latMs[1])), true)
	overhead("reply_p99_ms", quantile(latMs[0], 0.99), quantile(latMs[1], 0.99))
	blocking("reply_p50_ms", median(e.tr.selfPerReq("scheduler.submit", "scheduler.wait"))/1e6, median(latMs[0]))
	return probeGrid(e, tbl, gridCells(&gridAttr{name: "v", col: col, domain: serveDomain}))
}
