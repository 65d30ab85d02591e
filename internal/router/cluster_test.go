package router

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"doconsider/client"
	"doconsider/internal/executor"
	"doconsider/internal/server"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
)

// clusterFactor returns a small lower factor with a distinct structure
// per mesh size m.
func clusterFactor(m int) *sparse.CSR {
	return stencil.Laplace2D(m, m).LowerWithDiag()
}

func testBatch(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([][]float64, 2)
	for j := range b {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() + 0.1
		}
		b[j] = v
	}
	return b
}

// newTestCluster starts a cluster whose cleanup is the tier's leak check
// (internal/server's assertDrained, through the exported stats): after
// Close no surviving replica holds a request arena or a pin on either of
// its caches, and the goroutine count is back at the pre-cluster baseline.
func newTestCluster(t *testing.T, replicas int, scfg server.Config, rcfg Config) *Cluster {
	t.Helper()
	base := executor.Goroutines()
	c, err := NewCluster(replicas, scfg, rcfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		var live []*server.Server
		for _, addr := range c.Addrs() {
			live = append(live, c.Server(addr))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.Close(ctx); err != nil {
			t.Errorf("cluster close: %v", err)
		}
		for _, s := range live {
			if st := s.Stats(); st.Arena.Outstanding != 0 || st.FactorCache.Pinned != 0 || st.PlanCache.Pinned != 0 {
				t.Errorf("replica %s after close: %d arenas outstanding, %d factor pins, %d skeleton pins",
					s.Addr(), st.Arena.Outstanding, st.FactorCache.Pinned, st.PlanCache.Pinned)
			}
		}
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for executor.Goroutines() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := executor.Goroutines(); n > base {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines after cluster close, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
	})
	return c
}

// TestClusterWarmHandoffOnDrain checks the rebalance contract on a
// graceful leave: exactly the fingerprints the drained replica owned
// move (the K/N bound), every one of them is pre-warmed into its new
// owner, and by-fp resubmissions keep resolving with no 404 — the
// cutover lands on warm caches.
func TestClusterWarmHandoffOnDrain(t *testing.T) {
	c := newTestCluster(t, 3, server.Config{Procs: 1}, Config{})
	if c.Server(c.Addrs()[0]) == nil || c.Server("nonsense:0") != nil {
		t.Fatal("Cluster.Server does not index replicas by address")
	}
	ctx := context.Background()
	cli := client.New(c.URL())

	// Register six distinct factors through the front door.
	type reg struct {
		f  *client.Factor
		fp uint64
	}
	var regs []reg
	for m := 4; m < 10; m++ {
		f := client.NewFactor(clusterFactor(m), true)
		if _, err := f.Solve(ctx, cli, testBatch(f.N(), int64(m))); err != nil {
			t.Fatalf("register m=%d: %v", m, err)
		}
		fp, err := parseHexFp64(f.Fp())
		if err != nil {
			t.Fatalf("m=%d returned fingerprint %q: %v", m, f.Fp(), err)
		}
		regs = append(regs, reg{f: f, fp: fp})
	}

	// Count what the departing replica owns under the current ring.
	loser := c.Addrs()[0]
	old := newRing(c.Addrs(), 64)
	owned := 0
	for _, r := range regs {
		if old.lookup(r.fp) == loser {
			owned++
		}
	}

	if err := c.Drain(ctx, loser); err != nil {
		t.Fatalf("drain %s: %v", loser, err)
	}
	st := c.Router().Stats()
	if len(st.Rebalances) != 1 {
		t.Fatalf("rebalance events = %d, want 1", len(st.Rebalances))
	}
	ev := st.Rebalances[0]
	if ev.Kind != "leave" || ev.Addr != loser {
		t.Fatalf("event = %+v, want leave of %s", ev, loser)
	}
	if ev.Moved != owned {
		t.Errorf("moved %d fingerprints, want exactly the %d the leaver owned (K/N contract)", ev.Moved, owned)
	}
	if ev.Warmed != ev.Moved {
		t.Errorf("warmed %d of %d moved fingerprints; a live drain must hand off all of them", ev.Warmed, ev.Moved)
	}

	// Every factor still resolves by fingerprint alone: no fallback
	// possible here because the request names no matrix. The handoff
	// built each moved factor's plan on its gainer (the replay is the
	// structure's first sight there, and residency on the leaver the
	// reuse evidence), so a moved factor's first routed request misses
	// no plan; a factor that stayed was seen once, by its registration,
	// so this request — its second sight — is the one that builds.
	lower := true
	cur := newRing(c.Addrs(), 64)
	for i, r := range regs {
		owner := c.Server(cur.lookup(r.fp))
		before := owner.Stats().PlanCache.Misses
		if _, err := cli.Solve(ctx, &client.Request{Fp: r.f.Fp(), Lower: &lower, B: testBatch(r.f.N(), int64(i))}); err != nil {
			t.Errorf("by-fp solve after drain (factor %d, fp %s): %v", i, r.f.Fp(), err)
		}
		want := uint64(1)
		if old.lookup(r.fp) == loser {
			want = 0
		}
		if got := owner.Stats().PlanCache.Misses - before; got != want {
			t.Errorf("factor %d (moved=%v): first request after drain missed %d plans, want %d", i, want == 0, got, want)
		}
	}
}

// TestClusterKillRebuildsCold checks the crash path: a killed replica
// hands nothing off (Warmed = 0), and its fingerprints answer 404 until
// resubmitted in full — the honest cost of a crash, never a wrong answer.
func TestClusterKillRebuildsCold(t *testing.T) {
	c := newTestCluster(t, 2, server.Config{Procs: 1}, Config{RetryBackoff: time.Millisecond})
	ctx := context.Background()
	cli := client.New(c.URL())

	var regs []*client.Factor
	for m := 4; m < 10; m++ {
		f := client.NewFactor(clusterFactor(m), true)
		if _, err := f.Solve(ctx, cli, testBatch(f.N(), int64(m))); err != nil {
			t.Fatalf("register m=%d: %v", m, err)
		}
		regs = append(regs, f)
	}
	victim := c.Addrs()[0]
	old := newRing(c.Addrs(), 64)

	if err := c.Kill(ctx, victim); err != nil {
		t.Fatalf("kill %s: %v", victim, err)
	}
	ev := c.Router().Stats().Rebalances[0]
	if ev.Warmed != 0 {
		t.Errorf("killed replica warmed %d fingerprints; a crash has nothing to hand off", ev.Warmed)
	}

	lower := true
	sawCold := false
	for i, f := range regs {
		fp, _ := parseHexFp64(f.Fp())
		_, err := cli.Solve(ctx, &client.Request{Fp: f.Fp(), Lower: &lower, B: testBatch(f.N(), int64(i))})
		if old.lookup(fp) != victim {
			if err != nil {
				t.Errorf("factor %d survived on %s but by-fp solve failed: %v", i, old.lookup(fp), err)
			}
			continue
		}
		// Owned by the victim: the new shard never saw it.
		if client.StatusOf(err) != 404 {
			t.Errorf("factor %d owned by killed replica: by-fp err = %v, want 404", i, err)
			continue
		}
		sawCold = true
		// Factor.Solve absorbs the 404 with a full resubmission.
		if _, err := f.Solve(ctx, cli, testBatch(f.N(), int64(i))); err != nil {
			t.Errorf("factor %d full resubmission after crash: %v", i, err)
		}
	}
	if !sawCold {
		t.Skip("no registered fingerprint was owned by the killed replica; nothing to assert")
	}
}

// TestClusterChaos is the distributed tier's race-matrix test: clients
// hammer the front door while a replica is killed mid-load and a fresh
// one joins. Every request must end in a solution bit-identical to the
// single-server oracle — the tier may slow down under membership churn,
// never answer wrongly or hang.
func TestClusterChaos(t *testing.T) {
	scfg := server.Config{Procs: 2}
	c := newTestCluster(t, 3, scfg, Config{
		HealthInterval: 20 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})
	ctx := context.Background()

	// Oracle: one standalone server answering the identical requests.
	oracle, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = oracle.Shutdown(sctx)
	}()
	ocli := client.New("http://" + oracle.Addr())

	const (
		templates = 4
		seeds     = 3
		clients   = 6
		perClient = 25
	)
	factors := make([]*client.Factor, templates)
	batches := make([][][][]float64, templates)
	expected := make([][][][]float64, templates)
	for ti := 0; ti < templates; ti++ {
		l := clusterFactor(4 + ti)
		factors[ti] = client.NewFactor(l, true)
		of := client.NewFactor(l, true)
		batches[ti] = make([][][]float64, seeds)
		expected[ti] = make([][][]float64, seeds)
		for si := 0; si < seeds; si++ {
			batches[ti][si] = testBatch(l.N, int64(ti*100+si))
			resp, err := of.SolveFull(ctx, ocli, batches[ti][si])
			if err != nil {
				t.Fatalf("oracle solve t=%d s=%d: %v", ti, si, err)
			}
			xs, err := resp.Solutions()
			if err != nil {
				t.Fatalf("oracle solutions t=%d s=%d: %v", ti, si, err)
			}
			expected[ti][si] = xs
		}
	}

	cli := client.New(c.URL(), client.WithRetry(6, 10*time.Millisecond))
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ti := (g + i) % templates
				si := (g * 7 * i) % seeds
				resp, err := factors[ti].Solve(ctx, cli, batches[ti][si])
				if err != nil {
					errs <- fmt.Errorf("client %d req %d (t=%d s=%d): %w", g, i, ti, si, err)
					return
				}
				got, err := resp.Solutions()
				if err != nil {
					errs <- fmt.Errorf("client %d req %d (t=%d s=%d): %w", g, i, ti, si, err)
					return
				}
				want := expected[ti][si]
				for j := range want {
					for k := range want[j] {
						if got[j][k] != want[j][k] {
							errs <- fmt.Errorf("client %d req %d (t=%d s=%d): x[%d][%d] = %v, oracle %v",
								g, i, ti, si, j, k, got[j][k], want[j][k])
							return
						}
					}
				}
			}
		}(g)
	}

	// Membership churn mid-load: crash one replica, then grow back.
	time.Sleep(30 * time.Millisecond)
	victim := c.Addrs()[0]
	if err := c.Kill(ctx, victim); err != nil {
		t.Errorf("kill %s: %v", victim, err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := c.Rejoin(ctx); err != nil {
		t.Errorf("rejoin: %v", err)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.Replicas() != 3 {
		t.Errorf("replicas = %d after kill+rejoin, want 3", c.Replicas())
	}
	st := c.Router().Stats()
	if st.Failures > 0 {
		t.Errorf("router reports %d exhausted requests; churn must be absorbed by retries", st.Failures)
	}
}

// TestClusterScaling measures 1-replica vs 4-replica throughput on the
// same workload. CPU-bound and meaningless on a single-core host, so it
// only runs when DOCONSIDER_PERF=1 (the repo's opt-in for wall-clock
// assertions).
func TestClusterScaling(t *testing.T) {
	if os.Getenv("DOCONSIDER_PERF") != "1" {
		t.Skip("set DOCONSIDER_PERF=1 for wall-clock scaling assertions")
	}
	const (
		clients   = 8
		perClient = 40
	)
	measure := func(replicas int) time.Duration {
		c := newTestCluster(t, replicas, server.Config{Procs: 2}, Config{})
		ctx := context.Background()
		cli := client.New(c.URL(), client.WithRetry(4, 5*time.Millisecond))
		// One factor per client: distinct fingerprints spread the by-fp
		// traffic across shards, which is what the tier scales on.
		fs := make([]*client.Factor, clients)
		for g := range fs {
			fs[g] = client.NewFactor(clusterFactor(20+g), true)
			if _, err := fs[g].Solve(ctx, cli, testBatch(fs[g].N(), 1)); err != nil {
				t.Fatalf("%d replicas: warmup %d: %v", replicas, g, err)
			}
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				f := fs[g]
				b := testBatch(f.N(), int64(g))
				for i := 0; i < perClient; i++ {
					if _, err := f.Solve(ctx, cli, b); err != nil {
						t.Errorf("%d replicas: %v", replicas, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return time.Since(t0)
	}
	t1 := measure(1)
	t4 := measure(4)
	speedup := float64(t1) / float64(t4)
	t.Logf("1 replica %v, 4 replicas %v: speedup %.2fx", t1, t4, speedup)
	if speedup < 3 {
		t.Errorf("4-replica speedup %.2fx, want >= 3x", speedup)
	}
}
