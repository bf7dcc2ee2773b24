// Package cloudsim (overlay) exercises errtaxcheck: every sentinel must be
// a row of the taxonomy table, and every error built inside a function
// must wrap a classified cause.
package cloudsim

import (
	"errors"
	"fmt"
)

var (
	ErrAlpha = errors.New("cloudsim: alpha")
	ErrBeta  = errors.New("cloudsim: beta") // want "errtaxcheck: sentinel ErrBeta is not a row of the taxonomy table"
)

// The table forgot ErrBeta: an error wrapping it would travel as generic
// and never be retried. One report, where the sentinel is declared.
var taxonomy = []struct {
	code      byte
	sentinel  error
	transient bool
}{
	{1, ErrAlpha, true},
}

// Mentioning a sentinel anywhere else does not file it.
func classify(err error) bool {
	return errors.Is(err, ErrAlpha) || errors.Is(err, ErrBeta)
}

// Wrapping the causal error preserves its classification; silent.
func wrapped(err error) error {
	return fmt.Errorf("cloudsim: op failed: %w", err)
}

func bare() error {
	return fmt.Errorf("cloudsim: op failed") // want "errtaxcheck: fmt.Errorf without %w"
}

func construct() error {
	return errors.New("cloudsim: fresh") // want "errtaxcheck: errors.New inside a function"
}

func dynamic(format string) error {
	return fmt.Errorf(format) // want "errtaxcheck: fmt.Errorf with a non-constant format"
}

// Regression: a %w at the end of a long constant format must be seen —
// go/constant's abbreviated String() once truncated it away.
func longWrapped(a, b, c int) error {
	return fmt.Errorf("cloudsim: a very long diagnostic message carrying lots of context %d/%d/%d so the verb sits past the abbreviation horizon: %w",
		a, b, c, ErrAlpha)
}

// A reasoned allow for deliberate generic errors (v1 interop).
func allowedBare() error {
	return fmt.Errorf("cloudsim: deliberately generic") //amalgam:allow errtaxcheck v1 peers carry no classification byte to map
}
