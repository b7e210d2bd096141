package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestLastEventID pins how the Last-Event-ID header parses: the number of
// events the client already has, trimmed of surrounding space, and 0 for
// anything that is not a non-negative decimal integer.
func TestLastEventID(t *testing.T) {
	for _, c := range []struct {
		header string
		want   int
	}{
		{"", 0},
		{"abc", 0},
		{"-1", 0},
		{" 3 ", 3},
		{"1e3", 0},
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/sweeps/job-1/events", nil)
		if c.header != "" {
			r.Header.Set("Last-Event-ID", c.header)
		}
		if got := lastEventID(r); got != c.want {
			t.Errorf("lastEventID(%q) = %d, want %d", c.header, got, c.want)
		}
	}
}

// TestSSEPastTheEndID: resuming a finished job with a Last-Event-ID past
// its last event sends only the retry hint and closes the stream, in both
// the in-memory and the durable server.
func TestSSEPastTheEndID(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"memory", func(t *testing.T) Config { return Config{} }},
		{"durable", func(t *testing.T) Config { return Config{JournalDir: t.TempDir(), Workers: 1} }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, ts := newTestServer(t, mode.cfg(t))
			_, sr, _ := postSweep(t, ts, smallSubmit())
			waitStatus(t, ts, sr.ID, StatusDone)

			req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+sr.ID+"/events", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Last-Event-ID", "100") // the job logged 4 events
			client := &http.Client{Timeout: 30 * time.Second}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("stream did not close: %v", err)
			}
			if want := fmt.Sprintf("retry: %d\n\n", sseRetryMillis); string(body) != want {
				t.Fatalf("stream = %q, want only %q", body, want)
			}
		})
	}
}
