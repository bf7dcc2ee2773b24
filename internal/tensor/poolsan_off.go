//go:build !amalgam_poolsan

package tensor

// The pool sanitizer's hooks in the default build: nothing, inlined away
// (see poolsan.go).

func sanGet(t *Tensor) *Tensor  { return t }
func sanPut([]*Tensor, *Tensor) {}
