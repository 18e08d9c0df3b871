package serve

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotterybus/internal/obs"
)

// TestOverloadLotteryShares floods the server past queue capacity from
// two clients holding 2:1 lottery tickets and checks the robustness
// contract end to end: the server never crashes or 500s, every refusal
// is a 429 with Retry-After, the queue stays bounded, and completed
// throughput splits by the ticket ratio — the paper's proportional-
// bandwidth claim, measured on the API instead of the bus.
func TestOverloadLotteryShares(t *testing.T) {
	const (
		perClient = 2000 // 4000 total submissions, well past capacity
		flooders  = 8    // concurrent submitters per client
	)
	s, ts := newTestServer(t, Options{
		QueueCap:     64,
		PerClientCap: 32,
		Jobs:         4,
		Tickets:      map[string]uint64{"alice": 2, "bob": 1},
	})
	// Stub the job body: scheduling behavior is under test, not the
	// simulator. Each job costs a fixed slice of wall clock, sized so
	// the flood outruns the service rate and the queue saturates.
	s.execHook = func(ctx context.Context, job *Job) error {
		select {
		case <-time.After(5 * time.Millisecond):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	var accepted, shed [2]atomic.Int64
	var badStatus atomic.Int64
	var missingRetryAfter atomic.Int64
	clients := []string{"alice", "bob"}
	var wg sync.WaitGroup
	for ci, client := range clients {
		body := submitBody(client, 1)
		per := perClient / flooders
		for f := 0; f < flooders; f++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
					if err != nil {
						badStatus.Add(1)
						continue
					}
					switch resp.StatusCode {
					case http.StatusAccepted:
						accepted[ci].Add(1)
					case http.StatusTooManyRequests:
						shed[ci].Add(1)
						if resp.Header.Get("Retry-After") == "" {
							missingRetryAfter.Add(1)
						}
					default:
						badStatus.Add(1)
					}
					resp.Body.Close()
				}
			}(ci)
		}
		_ = ci
	}
	wg.Wait()

	if n := badStatus.Load(); n != 0 {
		t.Fatalf("%d responses were neither 202 nor 429", n)
	}
	if n := missingRetryAfter.Load(); n != 0 {
		t.Fatalf("%d of the 429s lacked a Retry-After header", n)
	}
	totalShed := shed[0].Load() + shed[1].Load()
	if totalShed == 0 {
		t.Fatal("flood never saturated the queue; overload path untested")
	}
	if _, maxDepth, _ := s.adm.depth(); maxDepth > 64 {
		t.Fatalf("queue high-water %d exceeded capacity 64", maxDepth)
	}

	// Let the accepted backlog drain, then compare completed work.
	deadline := obs.Now().Add(10 * time.Second)
	for {
		if q, _, _ := s.adm.depth(); q == 0 {
			break
		}
		if obs.Now().After(deadline) {
			t.Fatal("backlog did not drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// depth()==0 can race the last dispatched jobs; settle briefly.
	time.Sleep(50 * time.Millisecond)

	doneA := s.m.completed("alice").Value()
	doneB := s.m.completed("bob").Value()
	if doneA+doneB != accepted[0].Load()+accepted[1].Load() {
		t.Fatalf("completed %d+%d != accepted %d+%d (lost or duplicated jobs)",
			doneA, doneB, accepted[0].Load(), accepted[1].Load())
	}
	share := float64(doneA) / float64(doneA+doneB)
	want := 2.0 / 3.0
	if share < want*0.9 || share > want*1.1 {
		t.Fatalf("alice completion share %.3f outside 2/3 ±10%% (alice %d, bob %d, shed %d)",
			share, doneA, doneB, totalShed)
	}
	t.Logf("accepted alice=%d bob=%d shed=%d share=%.3f", doneA, doneB, totalShed, share)
}

// TestRetryAfterScalesWithBacklog checks the backpressure hint is a
// live estimate, not a constant.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	s, err := New(Options{QueueCap: 200, PerClientCap: 200, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	for i := 0; i < 120; i++ {
		if err := s.adm.enqueue(testJob("c"), false); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.retryAfter(); got != 60 {
		t.Fatalf("retryAfter with 120 queued over 2 workers = %d, want 60 (clamped)", got)
	}
	s2, err := New(Options{QueueCap: 200, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Abort()
	if got := s2.retryAfter(); got != 1 {
		t.Fatalf("retryAfter with empty queue = %d, want 1", got)
	}
}
