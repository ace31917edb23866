package cluster

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadTrace throws arbitrary bytes at the trace parser. The
// contract under fuzzing: ReadTrace returns an error for malformed
// input — it never panics — and any trace it does accept survives a
// Write/Read round trip whose second serialization is byte-identical
// to the first (the parser normalizes: sorted arrivals, positional
// IDs, validated workflows).
func FuzzReadTrace(f *testing.F) {
	addTraceSeeds(f)
	f.Fuzz(func(t *testing.T, doc string) {
		tr, err := ReadTrace(strings.NewReader(doc))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteTrace(&first, tr); err != nil {
			t.Fatalf("accepted trace does not re-serialize: %v", err)
		}
		tr2, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("serialized trace does not re-parse: %v", err)
		}
		var second bytes.Buffer
		if err := WriteTrace(&second, tr2); err != nil {
			t.Fatalf("re-parsed trace does not re-serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Error("trace round trip is not byte-idempotent")
		}
	})
}

// addTraceSeeds adds the inline seeds of the trace parser's fuzz
// targets.
func addTraceSeeds(f *testing.F) {
	f.Add(`{"jobs": []}`)
	f.Add(`{"jobs": [{"arrival_seconds": 0, "workflow": null}]}`)
	f.Add(`{"jobs": [{"arrival_seconds": -1, "workflow": {}}]}`)
	f.Add(`{"jobs"`)
	valid, err := SuiteTrace(1, 10)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
}

// FuzzStreamTrace is a differential target: StreamTrace against
// ReadTrace, seeded with FuzzReadTrace's inline seeds and committed
// corpus. A document the stream cannot decode ReadTrace must reject
// too, and on arrival-sorted input the stream — validated as the
// engine validates it — accepts exactly when ReadTrace does, with the
// same jobs.
func FuzzStreamTrace(f *testing.F) {
	addTraceSeeds(f)
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReadTrace", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpus {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.SplitN(string(b), "\n", 3)
		doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if lines[0] != "go test fuzz v1" || err != nil {
			f.Fatalf("%s: not a one-string corpus entry", path)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		want, rerr := ReadTrace(strings.NewReader(doc))
		raw, err := collect(StreamTrace(strings.NewReader(doc)))
		if err != nil {
			if rerr == nil {
				t.Fatalf("StreamTrace rejects a document ReadTrace accepts: %v", err)
			}
			return
		}
		for i := 1; i < len(raw); i++ {
			if raw[i].ArrivalSeconds < raw[i-1].ArrivalSeconds {
				return // only ReadTrace sorts
			}
		}
		got, err := collect(&checkedSource{src: StreamTrace(strings.NewReader(doc)), cores: math.MaxInt})
		if accepted := err == nil && len(got) > 0; accepted != (rerr == nil) {
			t.Fatalf("on sorted input StreamTrace accepts=%v (%v), ReadTrace %v", accepted, err, rerr)
		}
		if rerr == nil && !reflect.DeepEqual(got, want.Jobs) {
			t.Fatal("StreamTrace and ReadTrace decode different jobs")
		}
	})
}

// FuzzReadOutages does the same for the outage-schedule parser behind
// wfsched -fault-schedule.
func FuzzReadOutages(f *testing.F) {
	f.Add(`{"outages": [{"node": 0, "down_seconds": 30, "up_seconds": 90}]}`)
	f.Add(`{"outages": []}`)
	f.Add(`{"outages": [{"node": -1, "down_seconds": 1e999, "up_seconds": null}]}`)
	f.Add(`[`)
	f.Fuzz(func(t *testing.T, doc string) {
		outages, err := ReadOutages(strings.NewReader(doc))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteOutages(&first, outages); err != nil {
			t.Fatalf("accepted schedule does not re-serialize: %v", err)
		}
		out2, err := ReadOutages(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("serialized schedule does not re-parse: %v", err)
		}
		var second bytes.Buffer
		if err := WriteOutages(&second, out2); err != nil {
			t.Fatalf("re-parsed schedule does not re-serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Error("outage schedule round trip is not byte-idempotent")
		}
	})
}
