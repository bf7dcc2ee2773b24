package cloudsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"

	"amalgam/internal/optim"
	"amalgam/internal/serialize"
)

// adamJob is textJob trained under Adam + halving StepLR instead of the
// flat SGD hyper-parameters.
func adamJob(t *testing.T) *TrainRequest {
	t.Helper()
	req := textJob(t)
	req.Hyper.Epochs = 3
	req.Hyper.Optimizer = &optim.OptimSpec{Kind: optim.KindAdam, LR: 0.05}
	req.Hyper.Schedule = &optim.ScheduleSpec{Kind: optim.SchedStep, StepSize: 1, Gamma: 0.5}
	return req
}

// TestTrainLoopAdamStepLRResumeBitIdentical pins the tentpole invariant at
// the loop level: an Adam + StepLR run interrupted at an epoch boundary
// and resumed from the returned state (weights, moment buffers, step
// counter — the LR is re-derived from the schedule, never restored)
// finishes bit-identical to an uninterrupted run. It also pins the
// schedule cadence: the streamed LR halves exactly once per epoch, so a
// double-fired (or skipped) EpochEnd shows up as a golden mismatch.
func TestTrainLoopAdamStepLRResumeBitIdentical(t *testing.T) {
	straight := adamJob(t)
	straight.Hyper.Stream = false
	straight.Hyper.CheckpointEvery = 0
	full, err := RunLocal(straight)
	if err != nil {
		t.Fatal(err)
	}
	wantLR := []float64{0.05, 0.025, 0.0125}
	if len(full.Metrics) != len(wantLR) {
		t.Fatalf("%d metrics, want %d", len(full.Metrics), len(wantLR))
	}
	for i, m := range full.Metrics {
		if m.LR != wantLR[i] {
			t.Fatalf("epoch %d trained at LR %v, want %v (EpochEnd cadence broken?)", m.Epoch, m.LR, wantLR[i])
		}
	}
	if full.OptState.Kind != optim.KindAdam || full.OptState.Step == 0 {
		t.Fatalf("final optimiser state: kind=%q step=%d", full.OptState.Kind, full.OptState.Step)
	}

	first := adamJob(t)
	first.Hyper.Stream = false
	first.Hyper.CheckpointEvery = 0
	first.Hyper.Epochs = 1
	part, err := RunLocal(first)
	if err != nil {
		t.Fatal(err)
	}
	second := adamJob(t)
	second.Hyper.Stream = false
	second.Hyper.CheckpointEvery = 0
	second.Hyper.StartEpoch = 1
	second.InitState = part.State
	second.InitOptState = part.OptState
	rest, err := RunLocal(second)
	if err != nil {
		t.Fatal(err)
	}
	for name, tns := range full.State {
		if !rest.State[name].Equal(tns) {
			t.Fatalf("resumed Adam run diverged from straight run at %q", name)
		}
	}
	if rest.OptState.Step != full.OptState.Step {
		t.Fatalf("step counter diverged: resumed %d, straight %d", rest.OptState.Step, full.OptState.Step)
	}
	for name, tns := range full.OptState.Buffers {
		if !rest.OptState.Buffers[name].Equal(tns) {
			t.Fatalf("moment buffer %q diverged between resumed and straight runs", name)
		}
	}
}

// TestAdamJobOverWireMatchesLocal pins remote/local equality for a
// spec-driven job: the service rebuilds Adam + StepLR from the wire spec
// and produces the same weights, streams AMC3 checkpoints carrying the
// generalized optimiser section, and returns the final Adam state in the
// terminal msgState checkpoint.
func TestAdamJobOverWireMatchesLocal(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()

	req := adamJob(t)
	var lrs []float64
	checkpoints := 0
	resp, err := TrainContext(context.Background(), l.Addr().String(), req, StreamHandlers{
		Progress: func(m EpochMetric) { lrs = append(lrs, m.LR) },
		Checkpoint: func(ck *serialize.TrainCheckpoint) {
			checkpoints++
			if ck.OptState.Kind != optim.KindAdam {
				t.Errorf("checkpoint frame carries optimiser kind %q, want adam", ck.OptState.Kind)
			}
			if ck.OptState.Step == 0 || ck.OptState.NumBuffers() == 0 {
				t.Errorf("checkpoint frame lost the Adam section: step=%d buffers=%d",
					ck.OptState.Step, ck.OptState.NumBuffers())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if checkpoints != req.Hyper.Epochs {
		t.Fatalf("streamed %d checkpoint frames, want %d", checkpoints, req.Hyper.Epochs)
	}
	for i, lr := range lrs {
		if want := 0.05 / float64(int(1)<<i); lr != want {
			t.Fatalf("wire epoch %d reports LR %v, want %v", i+1, lr, want)
		}
	}
	if resp.OptState.Kind != optim.KindAdam || resp.OptState.Step == 0 {
		t.Fatalf("wire run returned optimiser state kind=%q step=%d", resp.OptState.Kind, resp.OptState.Step)
	}
	local, err := RunLocal(adamJob(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, tns := range local.State {
		if !resp.State[name].Equal(tns) {
			t.Fatalf("wire and local Adam training diverged at %q", name)
		}
	}
}

// TestUnknownOptimizerKindOverWire pins the taxonomy end to end: a job
// naming an optimiser kind the server's registry lacks comes back as
// ErrUnknownOptimizer via the coded error frame — fatal, so retry loops
// stop instead of resubmitting a spec that can never run.
func TestUnknownOptimizerKindOverWire(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()

	req := adamJob(t)
	req.Hyper.Optimizer = &optim.OptimSpec{Kind: "lion", LR: 0.01}
	_, err = TrainContext(context.Background(), l.Addr().String(), req, StreamHandlers{})
	if !errors.Is(err, ErrUnknownOptimizer) {
		t.Fatalf("want ErrUnknownOptimizer over the wire, got %v", err)
	}
	if IsTransient(err) {
		t.Fatal("unknown optimiser kind classified transient; retries would spin forever")
	}
}

// TestRecipeRefusedAlikeAtAdmissionAndInLoop feeds the same
// hyper-parameters to the scheduler's admission and to TrainLoop: both go
// through Hyper.recipe, so what one refuses the other refuses, under the
// same sentinel — a bad flat SGD field included, which is turned away at
// the door instead of failing on an executor.
func TestRecipeRefusedAlikeAtAdmissionAndInLoop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hyper  Hyper
		want   error   // nil: admitted and trained
		wantLR float64 // reported rate of an admitted spec job
	}{
		{name: "flat fields only", hyper: Hyper{LR: 0.5, Momentum: 0.9}},
		{name: "spec with LR 0 inherits Hyper.LR",
			hyper: Hyper{LR: 0.25, Optimizer: &optim.OptimSpec{Kind: optim.KindAdam}}, wantLR: 0.25},
		{name: "unknown optimiser kind",
			hyper: Hyper{Optimizer: &optim.OptimSpec{Kind: "lion", LR: 0.01}}, want: ErrUnknownOptimizer},
		{name: "unknown schedule kind",
			hyper: Hyper{LR: 0.5, Schedule: &optim.ScheduleSpec{Kind: "poly", Period: 3}}, want: ErrUnknownOptimizer},
		{name: "negative flat hyper-parameter", hyper: Hyper{LR: 0.5, Momentum: -0.9}, want: ErrBadRequest},
		{name: "step_size 0",
			hyper: Hyper{LR: 0.5, Schedule: &optim.ScheduleSpec{Kind: optim.SchedStep, Gamma: 0.5}}, want: ErrBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := textJob(t)
			tc.hyper.Epochs, tc.hyper.BatchSize = 1, 8
			req.Hyper = tc.hyper

			_, admitErr := newScheduler(ServerConfig{}).Submit(req, nil) // never started: admission only
			model, err := BuildModel(req.Spec)
			if err != nil {
				t.Fatal(err)
			}
			resp, loopErr := TrainLoop(context.Background(), model, req, nil, nil)
			if tc.want == nil {
				if admitErr != nil || loopErr != nil {
					t.Fatalf("admission: %v, loop: %v; want both to accept", admitErr, loopErr)
				}
				if got := resp.Metrics[0].LR; got != tc.wantLR {
					t.Fatalf("epoch trained at LR %v, want %v", got, tc.wantLR)
				}
				return
			}
			if !errors.Is(admitErr, tc.want) || !errors.Is(loopErr, tc.want) {
				t.Fatalf("admission: %v, loop: %v; want %v from both", admitErr, loopErr, tc.want)
			}
		})
	}
}

// TestTaxonomyRowsRoundTrip walks the one table the classifiers are read
// from: a wrapped sentinel crosses the wire under its row's code and
// decodes to the same sentinel, and IsTransient gives the row's class
// before and after the trip.
func TestTaxonomyRowsRoundTrip(t *testing.T) {
	codes := map[byte]bool{errCodeGeneric: true}
	for _, row := range taxonomy {
		if codes[row.code] {
			t.Fatalf("wire code %d is used twice (or is the generic code)", row.code)
		}
		codes[row.code] = true
		err := fmt.Errorf("job 7: %w", fmt.Errorf("inner: %w", row.sentinel))
		if got := errCodeOf(err); got != row.code {
			t.Fatalf("%v travels under code %d, want %d", row.sentinel, got, row.code)
		}
		var wire bytes.Buffer
		if werr := writeErrorFrame(&wire, err); werr != nil {
			t.Fatal(werr)
		}
		kind, payload, rerr := readFrame(&wire)
		if rerr != nil || kind != msgError {
			t.Fatalf("error frame read back as kind %d, %v", kind, rerr)
		}
		back := decodeErrorFrame(payload)
		if !errors.Is(back, row.sentinel) || sentinelFor(errCodeOf(back)) != row.sentinel {
			t.Fatalf("%v decoded as %v", row.sentinel, back)
		}
		if IsTransient(err) != row.transient || IsTransient(back) != row.transient {
			t.Fatalf("%v: IsTransient %v before the wire, %v after, row says %v",
				row.sentinel, IsTransient(err), IsTransient(back), row.transient)
		}
	}
}
