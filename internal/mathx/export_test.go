package mathx

import "testing"

// UsePortable runs every kernel on its portable Go path until the calling
// test ends. The LSTM test in paths_test.go (package mathx_test) uses it to
// hold predict's whole pass equal on both paths.
func UsePortable(t testing.TB) {
	old := useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = old })
}

// onBothPaths runs f as a subtest on the AVX2 path, where the CPU has it,
// and on the portable path.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	if useAVX2 {
		t.Run("avx2", f)
	} else {
		t.Log("no AVX2+FMA on this CPU or GOARCH: the portable path alone runs")
	}
	t.Run("portable", func(t *testing.T) {
		UsePortable(t)
		f(t)
	})
}
