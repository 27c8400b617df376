package kernels

import "testing"

// PoisonFreed turns the poisoned release on for the rest of t (see
// poisonFreed): the external tests of this package drive whole engines —
// core, multigpu, serve — that import it.
func PoisonFreed(t *testing.T) {
	poisonFreed = true
	t.Cleanup(func() { poisonFreed = false })
}
