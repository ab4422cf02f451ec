package service

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestCloseWithSilentConnection: a client that connected but never sent
// a request does not hold Close up, and a request in flight at Close
// still gets its response.
func TestCloseWithSilentConnection(t *testing.T) {
	svc, err := New(Options{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	srv, err := Serve("127.0.0.1:0", svc, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/slow" {
				close(entered)
				<-release
				io.WriteString(w, "done")
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	waitFor(t, "the silent connection to be accepted", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.fresh) == 1
	})

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/slow")
		if err != nil {
			got <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- string(b)
	}()
	<-entered

	start := time.Now()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v with a silent connection open", d)
	}
	if body := <-got; body != "done" {
		t.Fatalf("in-flight request got %q, want done", body)
	}
}
