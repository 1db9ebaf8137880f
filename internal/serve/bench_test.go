package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServeHTTP drives the daemon's http.Handler through httptest
// on one worker, one request at a time: the serving tier's own cost per
// request, with no network. shared serves on a long-lived machine,
// clone on a clone of the template that is reset after every request.
func BenchmarkServeHTTP(b *testing.B) {
	for _, mode := range []struct {
		name  string
		clone bool
	}{{"shared", false}, {"clone", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := New(Config{Workers: 1, ClonePerRequest: mode.clone})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close(context.Background())
			req := httptest.NewRequest(http.MethodGet, "/serve?model=libcgi-prot", nil)
			serve := func() {
				rec := httptest.NewRecorder()
				s.hs.Handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
				}
			}
			// Warm the machines past their cold first requests and the
			// trace tier's hotness threshold.
			for i := 0; i < 200; i++ {
				serve()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
