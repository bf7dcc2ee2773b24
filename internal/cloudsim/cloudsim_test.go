package cloudsim

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"

	"amalgam/internal/core"
	"amalgam/internal/data"
	"amalgam/internal/models"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

func tinyJob(t *testing.T, augmented bool) (*TrainRequest, *data.ImageDataset, *core.ImageAugKey) {
	t.Helper()
	ds := data.GenerateImages(data.ImageConfig{Name: "t", N: 16, C: 1, H: 12, W: 12, Classes: 2, Seed: 4, Noise: 0.05})
	hyper := Hyper{Epochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0.9}
	if !augmented {
		return &TrainRequest{
			Spec: ModelSpec{
				Kind: "plain-cv", Model: "lenet", InC: 1, OrigH: 12, OrigW: 12, Classes: 2, ModelSeed: 7,
			},
			Hyper:  hyper,
			Images: ds.Images,
			Labels: ds.Labels,
		}, ds, nil
	}
	aug, err := core.AugmentImages(ds, core.ImageAugmentOptions{Amount: 0.5, Noise: core.DefaultImageNoise(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return &TrainRequest{
		Spec: ModelSpec{
			Kind: "augmented-cv", Model: "lenet", InC: 1, OrigH: 12, OrigW: 12, Classes: 2, ModelSeed: 7,
			AugAmount: 0.5, SubNets: 2, AugSeed: 13,
			KeyKeep: aug.Key.Keep, AugH: aug.Key.AugH, AugW: aug.Key.AugW,
		},
		Hyper:  hyper,
		Images: aug.Dataset.Images,
		Labels: aug.Dataset.Labels,
	}, ds, aug.Key
}

func TestRunLocalPlain(t *testing.T) {
	req, _, _ := tinyJob(t, false)
	resp, err := RunLocal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Metrics) != 2 {
		t.Fatalf("want 2 epoch metrics, got %d", len(resp.Metrics))
	}
	if resp.Metrics[1].Loss >= resp.Metrics[0].Loss*1.5 {
		t.Fatalf("loss should not explode: %v", resp.Metrics)
	}
	if len(resp.State) == 0 {
		t.Fatal("no trained state returned")
	}
}

func TestRunLocalValidation(t *testing.T) {
	req, _, _ := tinyJob(t, false)
	req.Hyper.Epochs = 0
	if _, err := RunLocal(req); err == nil {
		t.Fatal("zero epochs should error")
	}
	req2, _, _ := tinyJob(t, false)
	req2.Labels = req2.Labels[:3]
	if _, err := RunLocal(req2); err == nil {
		t.Fatal("label/image mismatch should error")
	}
	req3, _, _ := tinyJob(t, false)
	req3.Spec.Kind = "banana"
	if _, err := RunLocal(req3); err == nil {
		t.Fatal("unknown kind should error")
	}
}

// TestCloudRoundtripMatchesLocalTraining is the full Fig. 1 loop: augment
// locally, ship to the TCP service, train remotely, download, extract —
// and the extracted weights must equal the same training run locally.
func TestCloudRoundtripMatchesLocalTraining(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()

	req, origDS, key := tinyJob(t, true)
	// Client-side initial weights travel with the job so cloud training
	// continues from the user's initialisation.
	model, err := BuildModel(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	req.InitState = nn.StateDict(model)

	resp, err := TrainContextNet(context.Background(), l.Addr().String(), req, StreamHandlers{}, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.State) == 0 || len(resp.Metrics) != req.Hyper.Epochs {
		t.Fatalf("bad response: %d state entries, %d metrics", len(resp.State), len(resp.Metrics))
	}

	// Extract the original model from the returned state.
	fresh := models.NewLeNet5(tensor.NewRNG(7), models.CVConfig{InC: 1, InH: 12, InW: 12, Classes: 2})
	origDict := map[string]*tensor.Tensor{}
	for name, tns := range resp.State {
		if cut, ok := cutOrig(name); ok {
			origDict[cut] = tns
		}
	}
	if err := nn.LoadStateDict(fresh, origDict); err != nil {
		t.Fatal(err)
	}

	// Reference: the identical job run in-process.
	localResp, err := RunLocal(req)
	if err != nil {
		t.Fatal(err)
	}
	for name, tns := range localResp.State {
		if !resp.State[name].Equal(tns) {
			t.Fatalf("cloud and local training diverged at %q", name)
		}
	}
	_ = origDS
	_ = key
}

func cutOrig(name string) (string, bool) {
	const p = "orig."
	if len(name) > len(p) && name[:len(p)] == p {
		return name[len(p):], true
	}
	return "", false
}

func TestServerReportsErrors(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()
	req, _, _ := tinyJob(t, false)
	req.Spec.Model = "unknown-model"
	if _, err := TrainContextNet(context.Background(), l.Addr().String(), req, StreamHandlers{}, NetConfig{}); err == nil {
		t.Fatal("server should propagate build errors")
	}
}

func TestProviderViewAnonymised(t *testing.T) {
	req, _, key := tinyJob(t, true)
	model, err := BuildModel(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	view := CaptureProviderView(req, model)
	if view.H != key.AugH || view.W != key.AugW {
		t.Fatalf("provider sees %dx%d, want augmented %dx%d", view.H, view.W, key.AugH, key.AugW)
	}
	if view.FirstImage == nil {
		t.Fatal("provider should see uploaded samples")
	}
	if len(view.GatherSets) != 3 { // orig + 2 decoys
		t.Fatalf("provider sees %d gather sets, want 3", len(view.GatherSets))
	}
	// The original key must be present somewhere (it is inside the shipped
	// graph) but its position must not be fixed at index 0 for every job —
	// here we at least check all sets have the right cardinality and that
	// they are not all identical.
	for _, g := range view.GatherSets {
		if len(g) != 12*12 {
			t.Fatalf("gather set size %d", len(g))
		}
	}
	allSame := true
	for i := range view.GatherSets[0] {
		if view.GatherSets[0][i] != view.GatherSets[1][i] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("gather sets should differ between sub-networks")
	}
}

// TestBuildLoadedBuildsForLoad: under a client's init state buildLoaded
// draws no weights, and what it hands to training cannot be told from
// BuildModel + LoadStateDict — the same parameter names in the same order,
// the same values, gather sets and dropout-stream cursors, and the same
// trained state after TrainLoop — for all four model kinds. An init state
// missing one tensor is still refused with ErrBadRequest, by buildLoaded and
// so by RunLocal and Scheduler.Submit before anything trains.
func TestBuildLoadedBuildsForLoad(t *testing.T) {
	plain, _, _ := tinyJob(t, false)
	augmented, _, _ := tinyJob(t, true)
	for _, req := range []*TrainRequest{plain, augmented, textJob(t), lmJob(t)} {
		t.Run(req.Spec.Kind, func(t *testing.T) {
			donor, err := BuildModel(req.Spec)
			if err != nil {
				t.Fatal(err)
			}
			init := nn.StateDict(donor)
			for _, v := range init { // not the state a build from the spec's seeds draws
				for i := range v.Data {
					v.Data[i] = v.Data[i]*0.75 + 0.01
				}
			}
			req.InitState = init

			want, err := BuildModel(req.Spec)
			if err == nil {
				err = nn.LoadStateDict(want, init)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := buildLoaded(req)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := buildModel(req.Spec, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range bare.Params() { // a norm's γ = 1 and running variance = 1 are constants
				if v := p.Node.Val; !v.Equal(tensor.New(v.Shape()...)) && !v.Equal(tensor.Ones(v.Shape()...)) {
					t.Fatalf("a build for load drew %s", p.Name)
				}
			}
			same := func(when string) {
				t.Helper()
				gp, wp := got.Params(), want.Params()
				if len(gp) != len(wp) {
					t.Fatalf("%s: %d parameters, want %d", when, len(gp), len(wp))
				}
				for i := range wp {
					if gp[i].Name != wp[i].Name || !gp[i].Node.Val.Equal(wp[i].Node.Val) {
						t.Fatalf("%s: parameter %d is %q, want %q with equal values", when, i, gp[i].Name, wp[i].Name)
					}
				}
				gr, err1 := nn.RNGStates(got)
				wr, err2 := nn.RNGStates(want)
				if err1 != nil || err2 != nil || !reflect.DeepEqual(gr, wr) {
					t.Fatalf("%s: dropout-stream cursors differ (%v, %v)", when, err1, err2)
				}
			}
			same("after the build")
			if am, ok := want.(interface{ GatherSets() [][]int }); ok {
				if !reflect.DeepEqual(got.(interface{ GatherSets() [][]int }).GatherSets(), am.GatherSets()) {
					t.Fatal("gather sets differ from BuildModel's")
				}
			} else if req.Spec.Kind != "plain-cv" {
				t.Fatal("fixture: an augmented model exposes its gather sets")
			}
			for _, m := range []Trainable{got, want} {
				if _, err := TrainLoop(context.Background(), m, req, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			same("after training")

			for name := range init {
				delete(init, name)
				break
			}
			if _, err := buildLoaded(req); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("buildLoaded with a tensor missing from the init state: %v, want ErrBadRequest", err)
			}
			if _, err := RunLocal(req); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("RunLocal: %v, want ErrBadRequest", err)
			}
			if _, err := newScheduler(ServerConfig{}).Submit(req, nil); !errors.Is(err, ErrBadRequest) { // executors never started

				t.Fatalf("Scheduler.Submit: %v, want ErrBadRequest", err)
			}
		})
	}
}
