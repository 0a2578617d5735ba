package core_test

import (
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/core"
)

// BenchmarkMineRules measures the rules for one head at the served
// shape: the model of benchfix.ModelWorkload(30, 20000), whose build
// left the table's TID index built, so each of the head's association
// tables is counted by popcount.
func BenchmarkMineRules(b *testing.B) {
	b.Run("k3", func(b *testing.B) {
		m := benchfix.ModelWorkload(30, 20000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.MineRules(m, 0, core.MineOptions{MaxRules: 5}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
