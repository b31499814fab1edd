package webui

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"a4nn/internal/commons"
	"a4nn/internal/lineage"
)

func testStore(t *testing.T) *commons.Store {
	t.Helper()
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*lineage.Record{
		{ID: "m1", Genome: "1010001|0000000|1111111", NodesPerPhase: 4, Beam: "low",
			FinalFitness: 92.5, FLOPs: 4.2e8, Terminated: true, TerminationEpoch: 2,
			Epochs: []lineage.EpochEntry{
				{Epoch: 1, ValAccuracy: 70, SimSeconds: 5},
				{Epoch: 2, ValAccuracy: 88, Prediction: 92.5, HasPrediction: true, SimSeconds: 5},
			}},
		{ID: "m2", Genome: "0000000|0000000|0000000", NodesPerPhase: 4, Beam: "high",
			FinalFitness: 99.1, FLOPs: 3.1e8,
			Epochs: []lineage.EpochEntry{{Epoch: 1, ValAccuracy: 99.1, SimSeconds: 4}}},
	} {
		r.CreatedAt = time.Now()
		if err := store.PutRecord(r); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	return store
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := New(testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

func TestNewNilStore(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil store must fail")
	}
}

func TestRecordsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	code, body := get(t, ts.URL+"/api/records")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var ids []string
	if err := json.Unmarshal([]byte(body), &ids); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "m1" {
		t.Fatalf("ids %v", ids)
	}
}

func TestRecordEndpoint(t *testing.T) {
	ts := newTestServer(t)
	code, body := get(t, ts.URL+"/api/records/m1")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var rec lineage.Record
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.FinalFitness != 92.5 || len(rec.Epochs) != 2 {
		t.Fatalf("record %+v", rec)
	}
	code, _ = get(t, ts.URL+"/api/records/nope")
	if code != 404 {
		t.Fatalf("missing record status %d", code)
	}
}

// TestRecordIDTraversal: the mux unescapes %2F inside {id}, so a record
// id can spell a path out of the store. Both record routes must answer
// 404 without reading the record-shaped file planted beside the store.
func TestRecordIDTraversal(t *testing.T) {
	root := t.TempDir()
	store, err := commons.Open(filepath.Join(root, "srv", "store"))
	if err != nil {
		t.Fatal(err)
	}
	planted, err := commons.Open(filepath.Join(root, "planted"))
	if err != nil {
		t.Fatal(err)
	}
	secret := &lineage.Record{ID: "leaked-secret", Genome: "1010001|0000000|1111111", NodesPerPhase: 4,
		Epochs: []lineage.EpochEntry{{Epoch: 1, ValAccuracy: 70}}}
	if err := planted.PutRecord(secret); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(planted.Root(), "records", "leaked-secret.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "srv", "secret.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for _, path := range []string{"/api/records/..%2F..%2Fsecret", "/api/records/..%2F..%2Fsecret/dot"} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusNotFound || strings.Contains(body, "leaked-secret") || strings.Contains(body, "digraph") {
			t.Errorf("GET %s = %d, want 404 without the planted record:\n%s", path, code, body)
		}
	}
}

func TestDOTEndpoint(t *testing.T) {
	ts := newTestServer(t)
	code, body := get(t, ts.URL+"/api/records/m1/dot")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "digraph") {
		t.Fatalf("dot body:\n%s", body)
	}
}

// TestDOTEndpointWrappedNodeCount: a record whose nodes_per_phase makes
// the genome's bit count wrap to its length is refused, not rendered.
func TestDOTEndpointWrappedNodeCount(t *testing.T) {
	store := testStore(t)
	if err := store.PutRecord(&lineage.Record{ID: "wrap", Genome: "00000",
		NodesPerPhase: 2790935979167403064, CreatedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	code, body := get(t, ts.URL+"/api/records/wrap/dot")
	if code != http.StatusInternalServerError || strings.Contains(body, "digraph") {
		t.Fatalf("GET /api/records/wrap/dot = %d:\n%s", code, body)
	}
}

func TestSummaryEndpoint(t *testing.T) {
	ts := newTestServer(t)
	code, body := get(t, ts.URL+"/api/summary?beam=low")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var sum commons.Summary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Records != 1 || sum.TerminatedEarly != 1 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestParetoEndpoint(t *testing.T) {
	ts := newTestServer(t)
	code, body := get(t, ts.URL+"/api/pareto")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "m2") {
		t.Fatalf("pareto body:\n%s", body)
	}
}

func TestIndexPage(t *testing.T) {
	ts := newTestServer(t)
	code, body := get(t, ts.URL+"/")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"A4NN data commons", "m1", "m2", "/api/records"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index missing %q", want)
		}
	}
	// Unknown paths 404.
	code, _ = get(t, ts.URL+"/nope")
	if code != 404 {
		t.Fatalf("unknown path status %d", code)
	}
}
