package amalgam

import "amalgam/internal/cloudsim"

// ShippedRequest exposes to the external tests the request RemoteTrainer
// would put on the wire for job, without dialing anything.
func ShippedRequest(t RemoteTrainer, job TrainableJob, cfg TrainConfig, opts ...TrainOption) (*cloudsim.TrainRequest, error) {
	o, _, err := t.prepare(job, cfg, opts)
	if err != nil {
		return nil, err
	}
	return o.req, nil
}
