package cloudsim // want "errtaxcheck: error-taxonomy table taxonomy is missing"

import "errors"

var ErrOnly = errors.New("cloudsim: only")
