package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/stream"
	"repro/internal/whois"
)

// TestIngestAckVisibleOnNextRequest pins what a 200 on /ingest means: the
// batch is in the open day for every request that follows it, on any
// connection. Each ack is followed at once by GET /stats on a second
// connection, whose dayRecords must count every acked record; after the last
// ack, POST /day closes a day holding all of them.
func TestIngestAckVisibleOnNextRequest(t *testing.T) {
	d := testDaemon(t, daemonOpts{})
	base := "http://" + d.httpLn.Addr().String()
	ingestC := &http.Client{Transport: &http.Transport{}}
	statsC := &http.Client{Transport: &http.Transport{}}
	defer ingestC.CloseIdleConnections()
	defer statsC.CloseIdleConnections()
	post := func(path, body string) {
		t.Helper()
		resp, err := ingestC.Post(base+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d", path, resp.StatusCode)
		}
	}

	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	const sizes = 40
	bodies := make([]string, sizes)
	for n := range bodies {
		bodies[n] = proxyTSV(t, testRecords(day, n+1))
	}
	post("/day", `{"date":"2014-03-01"}`)
	acked := 0
	for i := 0; i < 300; i++ {
		n := 1 + i%sizes
		post("/ingest", bodies[n-1])
		acked += n
		resp, err := statsC.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			DayRecords int `json:"dayRecords"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.DayRecords != acked {
			t.Fatalf("request %d: /stats dayRecords %d right after the ack, want the %d acked", i, st.DayRecords, acked)
		}
	}
	post("/day", `{"date":"2014-03-02"}`)
	rep, ok := d.eng.DayReport("2014-03-01")
	if !ok {
		t.Fatal("POST /day closed no day")
	}
	if rep.Stats.Records != acked {
		t.Fatalf("closed day holds %d records, want the %d acked", rep.Stats.Records, acked)
	}
}

// BenchmarkHTTPIngest times POST /ingest through the daemon's real mux and
// engine, served by httptest over loopback: bodies of 1 and 2,000 records,
// sent by 1 or 8 keep-alive clients that each wait for their ack before
// sending again. One op is one request; ns/record divides by its records.
func BenchmarkHTTPIngest(b *testing.B) {
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, recs := range []int{1, 2000} {
		for _, clients := range []int{1, 8} {
			b.Run(fmt.Sprintf("recs=%d/clients=%d", recs, clients), func(b *testing.B) {
				pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
				e := stream.New(stream.Config{Shards: 2, TrainingDays: 1 << 30}, pipe)
				defer e.Close()
				ts := httptest.NewServer(newServer(e, "", 0, nil).mux())
				defer ts.Close()
				if err := e.BeginDay(day, nil); err != nil {
					b.Fatal(err)
				}
				body := benchTSV(b, day, recs)
				tr := &http.Transport{MaxIdleConnsPerHost: clients}
				defer tr.CloseIdleConnections()
				client := &http.Client{Transport: tr}
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							resp, err := client.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(body))
							if err != nil {
								b.Error(err)
								return
							}
							_, _ = io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
							if resp.StatusCode != http.StatusOK {
								b.Errorf("POST /ingest = %d", resp.StatusCode)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*recs), "ns/record")
			})
		}
	}
}

// benchTSV encodes n records spread over 13 hosts and 97 domains, so a
// body exercises reduce, routing to both shards and the shards' apply.
func benchTSV(b *testing.B, day time.Time, n int) string {
	var sb strings.Builder
	w := logs.NewProxyWriter(&sb)
	for i := 0; i < n; i++ {
		err := w.Write(logs.ProxyRecord{
			Time:   day.Add(time.Duration(i) * time.Second),
			Host:   fmt.Sprintf("host-%d", i%13),
			SrcIP:  netip.MustParseAddr("10.0.0.1"),
			Domain: fmt.Sprintf("site-%d.example.org", i%97),
			URL:    fmt.Sprintf("http://site-%d.example.org/p/%d", i%97, i%31),
			Method: "GET", Status: 200,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	return sb.String()
}
