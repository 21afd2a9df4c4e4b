package stream

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/whois"
)

// fuzzCheckpointBytes produces a real v2 checkpoint (open day with resolved
// visits and lease-less markers, one completed day) for the fuzzer to
// mutate from.
func fuzzCheckpointBytes(tb testing.TB) []byte {
	e := trainOnlyEngine(Config{Shards: 2, QueueDepth: 64})
	defer e.Close()
	d1, d2 := testDay(), testDay().AddDate(0, 0, 1)
	if err := e.BeginDay(d1, nil); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := ingest1(e, rec(d1, "h1", "alpha.test", time.Duration(i)*time.Minute)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.BeginDay(d2, nil); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := ingest1(e, rec(d2, "h2", "beta.test", time.Duration(i)*time.Minute)); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// parentClosingCheckpoint is a checkpoint the PR 21 build wrote while a
// day-close was stalled in flight (its fuzzCheckpointBytesClosing: day
// 2014-02-03 closing, 2014-02-04 open): the header names the closing day and
// a classified-snapshot section follows the dailies. This build refuses it.
const (
	parentClosingCheckpoint = "testdata/closing-day-pr21.ckpt"
	closingRefusal          = "stream: checkpoint was taken while day 2014-02-03's close was in flight (closing-day sections were last readable at PR 24; restore with a build up to PR 24, let the close finish, and re-checkpoint)"
)

func readParentClosingCheckpoint(tb testing.TB) []byte {
	data, err := os.ReadFile(parentClosingCheckpoint)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fuzzV2 assembles a hand-crafted v2 checkpoint from an open-day meta line
// and a builder section, over empty history/calibration/dailies sections.
func fuzzV2(openMeta, builder string) []byte {
	return fuzzV2Hist(`{"version":1,"days":0,"domains":0,"uas":0}`, openMeta, builder)
}

// fuzzV2Hist is fuzzV2 over a caller-supplied history section.
func fuzzV2Hist(history, openMeta, builder string) []byte {
	return []byte(`{"version":2,"day":"2014-02-03T00:00:00Z","seq":3,"dailies":0,"pipeline":{},"trainingDays":1073741824}` + "\n" +
		history + "\n" +
		`{"calDays":0,"trained":false}` + "\n" +
		openMeta + "\n" + builder + "\n")
}

// The smallest well-formed host activity, open-day meta line and builder
// section, for hand-crafted sections; parentLivePair is one record, verbatim,
// of the livePairs section builds up to PR 15 wrote after the marker domains.
const (
	okHost         = `{"h":"h1","t":["2014-02-03T00:00:00Z"],"uas":[""]}`
	okMeta         = `{"markerDomains":0,"unresolved":0}`
	emptyBuilder   = `{"version":1,"visits":0,"domains":0,"uaPairs":0}`
	parentLivePair = `{"h":"h1","d":"a.test","s":{"last":"2014-02-03T00:04:00Z","bins":[{"Hub":60,"Count":4}],"total":4,"conns":5}}`
)

// hostileBuilders lists builder sections (all over fuzzV2's empty history)
// that abuse the optional per-domain "known" count, list a domain's hosts out
// of order or twice (they are appended to its sorted host list), or break the
// host UA set's invariants — sorted, distinct, every UA backed by a (host, UA)
// pair record — each with the refusal Restore must answer. FuzzCheckpointDecode
// seeds its corpus with them as inputs it must refuse, and
// TestRestoreRejectsCorruptCheckpoint pins the messages.
var hostileBuilders = []struct{ name, builder, want string }{
	{"negativeKnown", `{"version":1,"visits":0,"domains":1,"uaPairs":0}` + "\n" +
		`{"d":"a.test","hosts":[],"known":-1}`, "negative known-visit count"},
	{"knownOutsideHistory", `{"version":1,"visits":2,"domains":1,"uaPairs":0}` + "\n" +
		`{"d":"a.test","hosts":[],"known":2}`, "absent from the checkpointed history"},
	{"knownOffVisitTotal", `{"version":1,"visits":1,"domains":1,"uaPairs":0}` + "\n" +
		`{"d":"a.test","hosts":[` + okHost + `],"known":2}`, "visit total 3 does not match header 1"},
	{"unsortedHosts", `{"version":1,"visits":2,"domains":1,"uaPairs":0}` + "\n" +
		`{"d":"a.test","hosts":[{"h":"h2","t":["2014-02-03T00:00:00Z"],"uas":[""]},` + okHost + `]}`,
		`builder domain "a.test": host "h1" out of order or repeated (after "h2")`},
	{"duplicateHost", `{"version":1,"visits":2,"domains":1,"uaPairs":0}` + "\n" +
		`{"d":"a.test","hosts":[` + okHost + `,` + okHost + `]}`,
		`builder domain "a.test": host "h1" out of order or repeated (after "h1")`},
	{"unsortedUAs", `{"version":1,"visits":1,"domains":1,"uaPairs":2}` + "\n" +
		`{"d":"a.test","hosts":[{"h":"h1","t":["2014-02-03T00:00:00Z"],"uas":["ua-b","ua-a"]}]}` + "\n" +
		`{"h":"h1","ua":"ua-a"}` + "\n" + `{"h":"h1","ua":"ua-b"}`,
		`builder domain "a.test": host "h1": uas not sorted and distinct ("ua-b" before "ua-a")`},
	{"duplicateUA", `{"version":1,"visits":1,"domains":1,"uaPairs":1}` + "\n" +
		`{"d":"a.test","hosts":[{"h":"h1","t":["2014-02-03T00:00:00Z"],"uas":["ua-a","ua-a"]}]}` + "\n" +
		`{"h":"h1","ua":"ua-a"}`,
		`builder domain "a.test": host "h1": uas not sorted and distinct ("ua-a" before "ua-a")`},
	{"uaWithoutPair", `{"version":1,"visits":1,"domains":1,"uaPairs":1}` + "\n" +
		`{"d":"a.test","hosts":[{"h":"h1","t":["2014-02-03T00:00:00Z"],"uas":["","ua-a","ua-b"]}]}` + "\n" +
		`{"h":"h1","ua":"ua-a"}`,
		`builder domain "a.test": host "h1" uses UA "ua-b" but the section has no (host, UA) pair record`},
}

// FuzzCheckpointDecode holds the restore path to its refusal contract:
// corrupt, truncated, adversarial or no-longer-read (the version-1 seeds,
// and any header naming a closing day — the parent build's mid-close file
// and its truncations among them) checkpoints must come back as errors —
// never a panic (the PR 2 regression was a make() panic on a negative
// header count) and never a huge speculative allocation.
// Inputs that do decode must yield a working engine, which the target
// shuts down; Close errors are tolerated, a restored closing-day header is
// not.
func FuzzCheckpointDecode(f *testing.F) {
	valid := fuzzCheckpointBytes(f)
	f.Add(valid)
	closing := readParentClosingCheckpoint(f)
	f.Add(closing)
	// Truncations at awkward places: mid-header, between sections, mid-item.
	for _, seed := range [][]byte{valid, closing} {
		for _, cut := range []int{0, 1, 10, len(seed) / 4, len(seed) / 2, len(seed) - 3} {
			if cut >= 0 && cut < len(seed) {
				f.Add(seed[:cut])
			}
		}
	}
	// Hostile headers: negative counts, absurd counts, wrong version,
	// unparsable day, bad lease address.
	for _, h := range []string{
		`{"version":1,"dailies":-4,"items":-9}`,
		`{"version":1,"items":2147483647}`,
		`{"version":99}`,
		`{"version":1,"day":"not-a-time"}`,
		`{"version":1,"leases":{"999.999.0.1":"h"}}`,
		`{"version":1}`,
		`{"version":2}`,
		`{"version":2,"closing":"2014-02-03"}`,
		`{"version":1,"closing":"2014-02-03"}`,
		`{"version":2,"day":"2014-02-03T00:00:00Z"}`,
	} {
		f.Add([]byte(h + "\n"))
	}
	// Hostile v2 sections: negative open-day counts, negative builder
	// counts, duplicate builder domains, seqs beyond the header watermark.
	for _, body := range [][2]string{
		{`{"markerDomains":-1,"unresolved":-2}`, `{"version":1,"visits":0,"domains":0,"uaPairs":0}`},
		{okMeta, `{"version":1,"visits":-1,"domains":-1,"uaPairs":-1}`},
		{okMeta, `{"version":1,"visits":2,"domains":2,"uaPairs":0}` + "\n" +
			`{"d":"a.test","hosts":[` + okHost + `]}` + "\n" +
			`{"d":"a.test","hosts":[` + okHost + `]}`},
		{okMeta, `{"version":1,"visits":1,"domains":1,"uaPairs":0}` + "\n" +
			`{"d":"a.test","ipSeq":999,"ip":"93.184.216.34","hosts":[` + okHost + `]}`},
		{okMeta, `{"version":1,"visits":1,"domains":1,"uaPairs":0}` + "\n" +
			`{"d":"a.test","paths":{"/x":888},"hosts":[` + okHost + `]}`},
	} {
		f.Add(fuzzV2(body[0], body[1]))
	}
	mustRefuse := map[string]bool{}
	for _, hb := range hostileBuilders {
		seed := fuzzV2(okMeta, hb.builder)
		f.Add(seed)
		mustRefuse[string(seed)] = true
	}
	// Parent-format livePairs sections, hostile ones included: negative
	// count, truncated records, a duplicate pair, analyzer states violating
	// the old histogram invariants. The count must still be validated and a
	// short section refused; the records themselves are read past, and
	// nothing may be constructed from them.
	for _, lp := range []struct {
		count string
		pairs []string
	}{
		{"-1", nil},
		{"2147483647", nil},
		{"2", []string{parentLivePair}}, // one record short
		{"2", []string{parentLivePair, parentLivePair}},
		{"1", []string{`{"h":"h1","d":"a.test","s":{"total":5,"conns":1}}`}},
		{"1", []string{`{"h":"h1","d":"a.test","s":{"last":"2014-02-03T01:00:00Z","bins":[{"hub":60,"count":1}],"total":2,"conns":3}}`}},
		{"1", []string{`{"h":"h1","d":"a.test","s":{"conns":-3,"total":-4}}`}},
		{"1", []string{`{"h":"h1","d":"a.test","s":{"bins":[{"hub":-1,"count":0}]}}`}},
	} {
		body := emptyBuilder
		for _, p := range lp.pairs {
			body += "\n" + p
		}
		f.Add(fuzzV2(`{"markerDomains":0,"unresolved":0,"livePairs":`+lp.count+`}`, body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Restore(bytes.NewReader(data), Config{Shards: 1, QueueDepth: 8},
			RestoreDeps{Whois: whois.NewRegistry()})
		if err != nil {
			return // refused cleanly
		}
		e.Close()
		if mustRefuse[string(data)] {
			t.Fatal("restored a hostile builder section")
		}
		var hdr checkpointHeader
		if line, _, _ := bytes.Cut(data, []byte("\n")); json.Unmarshal(line, &hdr) == nil && hdr.Closing != "" {
			t.Fatalf("restored a checkpoint whose header names closing day %q", hdr.Closing)
		}
	})
}
