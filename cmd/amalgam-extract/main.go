// Command amalgam-extract runs the NN Model Extractor (§4.3) on a trained
// augmented state dict: it strips the original sub-network's entries and
// writes them as a clean state dict loadable into the user's model
// definition.
//
//	amalgam-extract -in trained_augmented.amd -out original.amd
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"amalgam/internal/serialize"
	"amalgam/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "amalgam-extract:", err)
		os.Exit(1)
	}
}

func run() error {
	in := flag.String("in", "", "trained augmented state dict (.amd)")
	out := flag.String("out", "", "output path for the extracted original state dict")
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		return fmt.Errorf("need -in and -out")
	}
	dict, ck, err := readDict(*in)
	if err != nil {
		return err
	}
	if ck != nil {
		fmt.Printf("input is a training checkpoint at epoch %d (%s)\n", ck.Epoch, ck.Kind)
	}
	extracted := map[string]*tensor.Tensor{}
	var decoyParams, origParams int
	for name, t := range dict {
		if cut, ok := strings.CutPrefix(name, "orig."); ok {
			extracted[cut] = t
			origParams += t.Numel()
		} else {
			decoyParams += t.Numel()
		}
	}
	if len(extracted) == 0 {
		return fmt.Errorf("no original-sub-network entries in %s", *in)
	}
	if err := serialize.SaveAtomic(*out, func(w io.Writer) error {
		return serialize.WriteStateDict(w, extracted)
	}); err != nil {
		return err
	}
	fmt.Printf("extracted %d tensors (%d params); discarded %d decoy params\n", len(extracted), origParams, decoyParams)
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// readDict loads either a plain state dict (.amd) or a training
// checkpoint (.amc, as written by WithCheckpoint / a cancelled run) —
// the formats are distinguished by magic, so extraction from a mid-job
// snapshot needs no extra flag. Only a wrong-magic probe falls through to
// the state-dict reader; a corrupt checkpoint surfaces its own error
// instead of a misleading state-dict one. ck is nil for plain dicts.
func readDict(path string) (dict map[string]*tensor.Tensor, ck *serialize.TrainCheckpoint, err error) {
	ck, err = serialize.LoadTrainCheckpoint(path)
	if err == nil {
		return ck.State, ck, nil
	}
	if !errors.Is(err, serialize.ErrWrongFormat) {
		return nil, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	dict, err = serialize.ReadStateDict(f)
	return dict, nil, err
}
