//go:build amalgam_poolsan

package tensor

import (
	"fmt"
	"strings"
	"testing"
)

// TestDoublePutPanics: under the sanitizer, a Put of a buffer its bucket
// already holds panics instead of queueing one buffer for two Gets.
func TestDoublePutPanics(t *testing.T) {
	x := Get(100)
	Put(x)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "double Put") {
			t.Fatalf("a second Put of one buffer recovered %v, want a double Put panic", r)
		}
		a, b := Get(100), Get(100)
		if a == b {
			t.Fatal("the refused Put still queued the buffer twice")
		}
		Put(a)
		Put(b)
	}()
	Put(x)
}
