package page

import "testing"

func BenchmarkFindChild(b *testing.B) {
	p := New(1, 1)
	n := 0
	for {
		e := Entry{Pred: make([]byte, 16), Child: PageID(100 + n)}
		if _, err := p.InsertEntry(e); err != nil {
			break
		}
		n++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.FindChild(PageID(100+n-1)) != n-1 {
			b.Fatal("not found")
		}
	}
	b.ReportMetric(float64(n), "slots")
}
