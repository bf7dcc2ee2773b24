package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"amalgam/internal/data"
	"amalgam/internal/tensor"
)

// loadJob builds one tiny deterministic plain-CV request for scheduler
// load tests. Jobs with equal seed are identical (same data, same model
// init, same shuffle), so a scheduled run can be checked bit-for-bit
// against a run-alone reference.
func loadJob(tenant string, seed uint64) *TrainRequest {
	ds := data.GenerateImages(data.ImageConfig{
		Name: "sched", N: 8, C: 1, H: 12, W: 12, Classes: 2, Seed: seed + 100, Noise: 0.05})
	return &TrainRequest{
		Spec: ModelSpec{
			Kind: "plain-cv", Model: "lenet", InC: 1, OrigH: 12, OrigW: 12,
			Classes: 2, ModelSeed: seed, Tenant: tenant,
		},
		Hyper:  Hyper{Epochs: 1, BatchSize: 4, LR: 0.05, Momentum: 0.9, Shuffle: true, ShuffleSeed: seed},
		Images: ds.Images,
		Labels: ds.Labels,
	}
}

// TestSchedulerFairShareLoad is the tentpole load test: schedLoadJobs jobs
// (200; scaled down under -race) from 4 tenants submitted as sequential
// per-tenant bursts through a 4-executor pool. Deterministic assertions:
//
//   - dispatch order is EXACT round-robin over tenants (the ring pops one
//     job per tenant turn), so a tenant's burst cannot serialise the rest;
//   - every job terminates "done";
//   - completion order never starves a tenant: in every prefix of the
//     completion sequence, per-tenant counts differ by at most
//     Executors+1 (perfect dispatch interleave ± the in-flight window);
//   - every job's weights are bit-identical to the same request trained
//     alone, so concurrent executors share nothing.
func TestSchedulerFairShareLoad(t *testing.T) {
	const tenants = 4
	const executors = 4
	const seedVariants = 8
	perTenant := schedLoadJobs / tenants

	sch := newScheduler(ServerConfig{Executors: executors, QueueDepth: schedLoadJobs})

	// Submit every job BEFORE starting the executors: with the full
	// backlog admitted up front, the fair-share dispatch order is a pure
	// function of the queue state and can be asserted exactly.
	tenantOf := func(tn int) string { return fmt.Sprintf("tenant-%d", tn) }
	seedOf := func(tn, k int) uint64 { return uint64((tn*perTenant+k)%seedVariants) + 1 }
	jobs := make([][]*schedJob, tenants)
	for tn := 0; tn < tenants; tn++ {
		for k := 0; k < perTenant; k++ {
			job, err := sch.Submit(loadJob(tenantOf(tn), seedOf(tn, k)), nil)
			if err != nil {
				t.Fatalf("submit tenant %d job %d: %v", tn, k, err)
			}
			jobs[tn] = append(jobs[tn], job)
		}
	}

	var wantDispatch []string
	for k := 0; k < perTenant; k++ {
		for tn := 0; tn < tenants; tn++ {
			wantDispatch = append(wantDispatch, jobs[tn][k].id)
		}
	}

	sch.start()
	sch.Finish()
	sch.WaitIdle()

	sch.mu.Lock()
	dispatched := append([]string(nil), sch.dispatched...)
	completed := append([]string(nil), sch.completed...)
	sch.mu.Unlock()

	if len(dispatched) != len(wantDispatch) {
		t.Fatalf("dispatched %d jobs, want %d", len(dispatched), len(wantDispatch))
	}
	for i := range wantDispatch {
		if dispatched[i] != wantDispatch[i] {
			t.Fatalf("dispatch[%d] = %s, want %s: fair-share ring order violated", i, dispatched[i], wantDispatch[i])
		}
	}

	// Windowed starvation check over the completion order.
	tenantByID := make(map[string]int, schedLoadJobs)
	for tn := range jobs {
		for _, job := range jobs[tn] {
			tenantByID[job.id] = tn
		}
	}
	if len(completed) != schedLoadJobs {
		t.Fatalf("%d jobs completed, want %d", len(completed), schedLoadJobs)
	}
	var counts [tenants]int
	for i, id := range completed {
		counts[tenantByID[id]]++
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > executors+1 {
			t.Fatalf("after %d completions tenant counts %v skew beyond the in-flight window: a tenant is starving", i+1, counts)
		}
	}

	// Terminal states and run-alone bit-identity. Jobs sharing a seed are
	// identical, so one reference per seed covers them all.
	refs := make(map[uint64]*TrainResponse)
	for tn := range jobs {
		for k, job := range jobs[tn] {
			resp, err := job.result()
			if err != nil {
				t.Fatalf("tenant %d job %d failed: %v", tn, k, err)
			}
			job.mu.Lock()
			state := job.state
			job.mu.Unlock()
			if state != JobDone {
				t.Fatalf("tenant %d job %d state %v, want done", tn, k, state)
			}
			seed := seedOf(tn, k)
			ref := refs[seed]
			if ref == nil {
				var err error
				ref, err = RunLocal(loadJob(tenantOf(tn), seed))
				if err != nil {
					t.Fatal(err)
				}
				refs[seed] = ref
			}
			for name, want := range ref.State {
				if !resp.State[name].Equal(want) {
					t.Fatalf("tenant %d job %d diverged from run-alone at %q", tn, k, name)
				}
			}
		}
	}
}

// TestSchedulerAdmissionControl pins the typed rejects: per-tenant quota
// first, then global depth, both transient; unknown job IDs are fatal.
// The scheduler stays unstarted while filling, so occupancy is exact.
func TestSchedulerAdmissionControl(t *testing.T) {
	sch := newScheduler(ServerConfig{Executors: 1, QueueDepth: 4, TenantQuota: 2})

	for i := 0; i < 2; i++ {
		if _, err := sch.Submit(loadJob("a", 1), nil); err != nil {
			t.Fatalf("tenant a submit %d: %v", i, err)
		}
	}
	_, err := sch.Submit(loadJob("a", 1), nil)
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota submit: got %v, want ErrTenantQuota", err)
	}
	if !IsTransient(err) {
		t.Fatal("ErrTenantQuota must be transient: quota frees as the tenant's jobs drain")
	}

	for i := 0; i < 2; i++ {
		if _, err := sch.Submit(loadJob("b", 1), nil); err != nil {
			t.Fatalf("tenant b submit %d: %v", i, err)
		}
	}
	_, err = sch.Submit(loadJob("c", 1), nil)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submit: got %v, want ErrQueueFull", err)
	}
	if !IsTransient(err) {
		t.Fatal("ErrQueueFull must be transient: it is backpressure, not failure")
	}

	if _, err := sch.Job("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown ID: got %v, want ErrUnknownJob", err)
	}
	if IsTransient(fmt.Errorf("wrap: %w", ErrUnknownJob)) {
		t.Fatal("ErrUnknownJob must be fatal: the ID will never appear")
	}

	// The four admitted jobs still train to completion.
	sch.start()
	sch.Finish()
	sch.WaitIdle()
	sch.mu.Lock()
	completed := len(sch.completed)
	sch.mu.Unlock()
	if completed != 4 {
		t.Fatalf("%d jobs completed, want 4", completed)
	}
}

// TestSchedulerCancelStates drives both cancellation entries of the state
// machine: a job cancelled while QUEUED terminates cancelled without
// training (epoch-aligned initial result, still attachable); a job
// cancelled while RUNNING stops at the next epoch boundary with its
// partial epochs intact. Cancelling a terminal job is a no-op.
func TestSchedulerCancelStates(t *testing.T) {
	sch := newScheduler(ServerConfig{Executors: 1})

	long := loadJob("t", 1)
	long.Hyper.Epochs = 50
	epochCh := make(chan int, 64)
	running, err := sch.Submit(long, &attachSink{progress: func(m EpochMetric) error {
		epochCh <- m.Epoch
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := sch.Submit(loadJob("t", 2), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job before any executor exists.
	if err := sch.Cancel(queued.id); err != nil {
		t.Fatal(err)
	}
	st, err := sch.Status(queued.id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "queued" || st.QueuePos != 2 {
		t.Fatalf("pre-start status = %+v, want queued at position 2", st)
	}

	sch.start()
	for e := range epochCh {
		if e >= 2 {
			break
		}
	}
	if err := sch.Cancel(running.id); err != nil {
		t.Fatal(err)
	}
	<-running.done
	for len(epochCh) > 0 {
		<-epochCh
	}

	resp, err := running.result()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cancelled || resp.CompletedEpochs < 2 || resp.CompletedEpochs >= 50 {
		t.Fatalf("running-cancel result: cancelled=%v epochs=%d, want epoch-aligned partial", resp.Cancelled, resp.CompletedEpochs)
	}
	if st, _ := sch.Status(running.id); st.State != "cancelled" {
		t.Fatalf("running-cancel state %q, want cancelled", st.State)
	}

	<-queued.done
	qresp, err := queued.result()
	if err != nil {
		t.Fatal(err)
	}
	if !qresp.Cancelled || qresp.CompletedEpochs != 0 || len(qresp.State) == 0 {
		t.Fatalf("queued-cancel result: cancelled=%v epochs=%d state=%d entries; want untrained epoch-aligned result",
			qresp.Cancelled, qresp.CompletedEpochs, len(qresp.State))
	}

	// Terminal cancel: idempotent no-op.
	if err := sch.Cancel(running.id); err != nil {
		t.Fatal(err)
	}

	sch.Finish()
	sch.WaitIdle()
}

// TestSchedulerFailedJobIsolated: a job whose request cannot train fails
// that job alone — the executor survives and runs the next job.
func TestSchedulerFailedJobIsolated(t *testing.T) {
	sch := newScheduler(ServerConfig{Executors: 1})
	// A spec that does not build never reaches an executor: admission
	// builds the job's model, and refuses.
	unbuildable := loadJob("t", 1)
	unbuildable.Spec.Kind = "banana"
	if _, err := sch.Submit(unbuildable, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown-kind job admitted with %v, want ErrBadRequest", err)
	}
	unbuildable = loadJob("t", 1)
	unbuildable.Spec.Model = "no-such-zoo-model"
	if _, err := sch.Submit(unbuildable, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown-model job admitted with %v, want ErrBadRequest", err)
	}
	// One that builds and then cannot train does, and fails there.
	bad := loadJob("t", 1)
	bad.Hyper.BatchSize = 0
	badJob, err := sch.Submit(bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	goodJob, err := sch.Submit(loadJob("t", 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	sch.start()
	sch.Finish()
	sch.WaitIdle()

	if _, err := badJob.result(); err == nil {
		t.Fatal("a job with batch size 0 must fail")
	}
	if st, _ := sch.Status(badJob.id); st.State != "failed" || st.Err == "" {
		t.Fatalf("bad job status %+v, want failed with an error message", st)
	}
	if _, err := goodJob.result(); err != nil {
		t.Fatalf("job after a failed one must still run: %v", err)
	}
}

// TestSchedulerAttachExactlyOnce pins the replay/live handover: a sink
// attached mid-run receives each epoch exactly once — buffered epochs past
// FromEpoch replayed inside the same critical section that registers the
// sink for live delivery — and a second attach displaces the first.
func TestSchedulerAttachExactlyOnce(t *testing.T) {
	sch := newScheduler(ServerConfig{Executors: 1})
	req := loadJob("t", 1)
	req.Hyper.Epochs = 30
	gate := make(chan int, 64)
	job, err := sch.Submit(req, &attachSink{progress: func(m EpochMetric) error {
		gate <- m.Epoch
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	sch.start()
	for e := range gate {
		if e >= 3 {
			break
		}
	}

	// Attach claiming to have seen epoch 1: the replay must start at 2 and
	// the live stream continue without a gap or a duplicate.
	var mu sync.Mutex
	var got []int
	sink := &attachSink{progress: func(m EpochMetric) error {
		mu.Lock()
		got = append(got, m.Epoch)
		mu.Unlock()
		return nil
	}}
	if err := job.attach(1, sink); err != nil {
		t.Fatal(err)
	}
	<-job.done
	for len(gate) > 0 {
		<-gate
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 29 {
		t.Fatalf("attached sink saw %d epochs, want 29 (2..30 exactly once)", len(got))
	}
	for i, e := range got {
		if e != i+2 {
			t.Fatalf("attached sink epoch[%d] = %d, want %d: replay/live handover duplicated or dropped", i, e, i+2)
		}
	}
}

// TestViewsAsyncWorld is the Views satellite: queued jobs are present-
// but-pending with State "queued", terminal jobs are stamped with their
// state, and Views races cleanly against concurrent submissions and
// training (run under -race in CI).
func TestViewsAsyncWorld(t *testing.T) {
	paused := newScheduler(ServerConfig{Executors: 1})
	for i := 0; i < 3; i++ {
		if _, err := paused.Submit(loadJob("t", uint64(i+1)), nil); err != nil {
			t.Fatal(err)
		}
	}
	views := paused.Views()
	if len(views) != 3 {
		t.Fatalf("%d views of 3 queued jobs: queued jobs must be present-but-pending", len(views))
	}
	for i, v := range views {
		if v.State != "queued" || v.JobID == "" {
			t.Fatalf("view[%d] = {JobID %q, State %q}, want a queued job ID", i, v.JobID, v.State)
		}
		if v.N == 0 {
			t.Fatalf("view[%d] missing the captured observation", i)
		}
	}
	paused.start()
	paused.Finish()
	paused.WaitIdle()

	// Concurrent-jobs race: submissions, training, and Views interleaved.
	sch := newScheduler(ServerConfig{Executors: 2})
	sch.start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, v := range sch.Views() {
					if v.JobID == "" {
						panic("view without a job ID")
					}
				}
			}
		}
	}()
	const n = 24
	var submitWG sync.WaitGroup
	for g := 0; g < 3; g++ {
		submitWG.Add(1)
		go func(g int) {
			defer submitWG.Done()
			for i := 0; i < n/3; i++ {
				if _, err := sch.Submit(loadJob(fmt.Sprintf("t%d", g), uint64(i%4+1)), nil); err != nil {
					panic(err)
				}
			}
		}(g)
	}
	submitWG.Wait()
	sch.Finish()
	sch.WaitIdle()
	close(stop)
	wg.Wait()

	final := sch.Views()
	if len(final) != n {
		t.Fatalf("%d final views, want %d", len(final), n)
	}
	for i, v := range final {
		if v.State != "done" {
			t.Fatalf("final view[%d] state %q, want done", i, v.State)
		}
	}
}

// TestSchedulerForgetsOldTerminalJobs: the registry used to keep every
// terminal job's result for the life of the server. 3 000 tiny jobs through
// one scheduler (retainedJobs plus a few hundred under -race), at most 16 in
// flight: the registry never holds more than the retained terminal jobs plus
// that window — and one job per executor whose done has closed before its
// executor recorded it finished — and ends at exactly retainedJobs in all
// four structures; the newest job is still attachable with its result; the
// oldest answers ErrUnknownJob to lookup (attach) and cancel — as an ID that
// never existed — and poll still says how it ended, from the status ledger.
func TestSchedulerForgetsOldTerminalJobs(t *testing.T) {
	total, window, executors := 3000, 16, 2
	if raceEnabled {
		total = retainedJobs + 200
	}
	sch := newScheduler(ServerConfig{Executors: executors})
	sch.start()
	tiny := loadJob("t", 1)
	var first, last *schedJob
	var inFlight []*schedJob
	for i := 0; i < total; i++ {
		job, err := sch.Submit(tiny, nil)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if first == nil {
			first = job
		}
		last = job
		if inFlight = append(inFlight, job); len(inFlight) == window {
			<-inFlight[0].done
			inFlight = inFlight[1:]
		}
		sch.mu.Lock()
		size := len(sch.jobs)
		sch.mu.Unlock()
		if size > retainedJobs+window+executors {
			t.Fatalf("after %d submissions the registry holds %d jobs, want at most %d terminal + %d in flight + %d finishing", i+1, size, retainedJobs, window, executors)
		}
	}
	sch.Finish()
	sch.WaitIdle()

	sch.mu.Lock()
	sizes := []int{len(sch.jobs), len(sch.order), len(sch.dispatched), len(sch.completed)}
	sch.mu.Unlock()
	for _, size := range append(sizes, len(sch.Views())) {
		if size != retainedJobs {
			t.Fatalf("jobs/order/dispatched/completed/Views hold %v entries after %d jobs, want %d each", sizes, total, retainedJobs)
		}
	}

	if _, err := sch.Job(last.id); err != nil {
		t.Fatalf("the newest job is gone: %v", err)
	}
	var replayed []int
	if err := last.attach(0, &attachSink{progress: func(m EpochMetric) error {
		replayed = append(replayed, m.Epoch)
		return nil
	}}); err != nil || len(replayed) != 1 || replayed[0] != 1 {
		t.Fatalf("attach to the newest job replayed epochs %v (err %v), want [1]", replayed, err)
	}
	if resp, err := last.result(); err != nil || resp == nil || resp.CompletedEpochs != 1 {
		t.Fatalf("the newest job's result: %+v, %v", resp, err)
	}

	if _, err := sch.Job(first.id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("looking up an evicted job answered %v, want ErrUnknownJob", err)
	}
	if err := sch.Cancel(first.id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancelling an evicted job answered %v, want ErrUnknownJob", err)
	}
	if st, err := sch.Status(first.id); err != nil || st.State != "done" || st.CompletedEpochs != 1 || st.Tenant != "t" {
		t.Fatalf("polling an evicted job: %+v, %v; want how it ended: done after 1 epoch", st, err)
	}
	if _, err := sch.Status("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("polling an ID that never existed answered %v, want ErrUnknownJob", err)
	}
	sch.mu.Lock()
	ledger, ledgerIDs := len(sch.past), len(sch.pastIDs)
	sch.mu.Unlock()
	if want := min(total, pastJobs); ledger != want || ledgerIDs != want {
		t.Fatalf("the status ledger holds %d entries under %d IDs after %d jobs, want %d", ledger, ledgerIDs, total, want)
	}
	if resp, err := first.result(); err != nil || resp == nil {
		t.Fatalf("a holder of the evicted record lost its result: %+v, %v", resp, err)
	}
}

// TestServerLeavesWorkerCountAlone: a server of any executor count computes
// on the kernel pool as it finds it. The worker count the process pinned
// reads the same after the constructor, while a job runs and after Wait.
func TestServerLeavesWorkerCountAlone(t *testing.T) {
	pin := runtime.NumCPU() + 1 // no NumCPU/executors slice, nor its floor of 1
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(pin))
	// Reading the count swaps the pin back in: a moved count fails the test
	// and is put right for the next read.
	check := func(executors int, when string) {
		if got := tensor.SetMaxWorkers(pin); got != pin {
			t.Errorf("%d executors, %s: worker count %d, pinned %d", executors, when, got, pin)
		}
	}
	for _, executors := range []int{2, 3} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		server := NewServerConfig(l, ServerConfig{Executors: executors})
		check(executors, "after NewServerConfig")
		req, _, _ := tinyJob(t, false)
		req.Hyper.Stream = true
		_, err = TrainContext(context.Background(), l.Addr().String(), req, StreamHandlers{
			Progress: func(EpochMetric) { check(executors, "while its job runs") },
		})
		l.Close()
		server.Wait()
		if err != nil {
			t.Fatal(err)
		}
		check(executors, "after Wait")
	}
}

// TestConcurrentAugmentedJobsMatchRunLocal: three augmented jobs — LeNet
// with taps, the text classifier, the LM with dropout — train at once on one
// server, their sub-networks and kernels sharing the one pool, and each ends
// on the weights RunLocal gives the same request at one worker, bit for bit.
func TestConcurrentAugmentedJobsMatchRunLocal(t *testing.T) {
	jobs := func() []*TrainRequest {
		cv, _, _ := tinyJob(t, true)
		return []*TrainRequest{cv, textJob(t), lmJob(t)}
	}
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	var want []map[string]*tensor.Tensor
	for _, req := range jobs() {
		resp, err := RunLocal(req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, resp.State)
	}
	for _, workers := range []int{2, 8} {
		tensor.SetMaxWorkers(workers)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		server := NewServerConfig(l, ServerConfig{Executors: 3})
		reqs := jobs()
		got := make([]*TrainResponse, len(reqs))
		errs := make([]error, len(reqs))
		var wg sync.WaitGroup
		for i, req := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Train(l.Addr().String(), req)
			}()
		}
		wg.Wait()
		l.Close()
		server.Wait()
		for i, req := range reqs {
			if errs[i] != nil {
				t.Fatalf("%d workers, %s: %v", workers, req.Spec.Kind, errs[i])
			}
			if len(got[i].State) != len(want[i]) {
				t.Fatalf("%d workers, %s: %d state entries, RunLocal has %d", workers, req.Spec.Kind, len(got[i].State), len(want[i]))
			}
			for name, w := range want[i] {
				if g := got[i].State[name]; g == nil || !g.Equal(w) {
					t.Fatalf("%d workers, %s: %q differs from RunLocal at one worker", workers, req.Spec.Kind, name)
				}
			}
		}
	}
}
