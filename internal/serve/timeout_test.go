package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestJobTimeout: a sweep that outlives JobTimeout must finish failed —
// not canceled — with a timeout reason, bump the timed-out metric, and
// leave the server healthy for the next job.
func TestJobTimeout(t *testing.T) {
	// The limit must separate the two jobs under -race too: longSubmit's
	// 50M slots can never finish within it, and smallSubmit, which takes
	// milliseconds, always does.
	_, ts := newTestServer(t, Config{JobTimeout: 2 * time.Second})
	_, sr, _ := postSweep(t, ts, longSubmit(1))
	if sr.Cached {
		t.Fatal("long sweep answered from cache")
	}
	d := waitStatus(t, ts, sr.ID, StatusFailed)
	if !strings.Contains(d.Error, "timeout") {
		t.Fatalf("failure reason %q does not mention the timeout", d.Error)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "sweepd_jobs_timed_out_total 1") {
		t.Errorf("metrics missing the timed-out counter:\n%s", body)
	}

	// The worker survives: a quick sweep after the timeout still finishes.
	_, sr2, _ := postSweep(t, ts, smallSubmit())
	if !sr2.Cached {
		waitStatus(t, ts, sr2.ID, StatusDone)
	}
}

// TestNoTimeoutByDefault: the zero config never arms a timer — a normal
// sweep completes untouched.
func TestNoTimeoutByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, sr, _ := postSweep(t, ts, smallSubmit())
	if !sr.Cached {
		waitStatus(t, ts, sr.ID, StatusDone)
	}
}
