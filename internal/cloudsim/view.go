package cloudsim

import (
	"amalgam/internal/tensor"
)

// ProviderView captures everything an honest-but-curious provider observes
// about a job: dataset geometry, pixel/token samples, and the sub-network
// gather sets in randomised order with no labels. §6.3's attacks operate on
// this view — never on the client-side key.
type ProviderView struct {
	// JobID and State identify the scheduled job this observation belongs
	// to and its state at the moment Views was called. Queued jobs are
	// present-but-pending: their view is captured at admission (the
	// provider has seen the upload) with State "queued".
	JobID string
	State string

	N, C, H, W int
	// FirstImage is a copy of one training sample as uploaded (augmented
	// for Amalgam jobs) — the denoising attack's input. Nil for text jobs.
	FirstImage *tensor.Tensor
	// FirstSample is the text counterpart: one uploaded (augmented) token
	// sequence.
	FirstSample []int
	// GatherSets are the per-sub-network index sets visible in the shipped
	// graph, shuffled so position carries no information.
	GatherSets [][]int
	// AugAmount is inferable from tensor shapes, so the provider gets it.
	AugAmount float64
}

// CaptureProviderView derives the provider's observation from a request
// and the model built from its spec — the shipped graph, whose gather sets
// the provider can read off it.
func CaptureProviderView(req *TrainRequest, model Trainable) ProviderView {
	v := ProviderView{AugAmount: req.Spec.AugAmount}
	if req.Images != nil {
		v.N, v.C, v.H, v.W = req.Images.Dim(0), req.Images.Dim(1), req.Images.Dim(2), req.Images.Dim(3)
		if v.N > 0 {
			sz := v.C * v.H * v.W
			v.FirstImage = tensor.FromSlice(append([]float32(nil), req.Images.Data[:sz]...), v.C, v.H, v.W)
		}
	} else {
		v.N = len(req.Labels)
		if len(req.Samples) > 0 {
			// LM jobs carry no labels; the provider still sees how many
			// windows were uploaded.
			if v.N == 0 {
				v.N = len(req.Samples)
			}
			v.FirstSample = append([]int(nil), req.Samples[0]...)
		}
	}
	if am, ok := model.(interface{ GatherSets() [][]int }); ok { // an augmented graph
		v.GatherSets = am.GatherSets()
		// Shuffle deterministically from content so the view never encodes
		// construction order.
		rng := tensor.NewRNG(uint64(len(v.GatherSets))*0x9e37 + uint64(v.H+req.Spec.AugLen))
		rng.Shuffle(len(v.GatherSets), func(i, j int) {
			v.GatherSets[i], v.GatherSets[j] = v.GatherSets[j], v.GatherSets[i]
		})
	}
	return v
}
