package obs

import (
	"context"
	"testing"
)

func TestSpanParentChildOrdering(t *testing.T) {
	tr := NewTracer(16)
	ctx := WithTracer(context.Background(), tr)

	gctx, gen := StartSpan(ctx, SpanGeneration)
	tctx, task := StartSpan(gctx, SpanTask)
	_, epoch := StartSpan(tctx, SpanEpoch)
	epoch.SetInt("epoch", 1)
	epoch.End()
	task.End()
	task.End() // double End is a no-op
	gen.End()

	spans, dropped := tr.Snapshot()
	if dropped != 0 || len(spans) != 3 {
		t.Fatalf("got %d spans (%d dropped), want 3 and 0", len(spans), dropped)
	}
	// Spans book in end order: innermost first.
	if spans[0].Name != SpanEpoch || spans[1].Name != SpanTask || spans[2].Name != SpanGeneration {
		t.Fatalf("span order %q %q %q", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("epoch parent %d, want task ID %d", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Parent != spans[2].ID {
		t.Fatalf("task parent %d, want generation ID %d", spans[1].Parent, spans[2].ID)
	}
	if spans[2].Parent != 0 {
		t.Fatalf("root span has parent %d", spans[2].Parent)
	}
	if spans[0].Attrs["epoch"] != "1" {
		t.Fatalf("epoch attrs %+v", spans[0].Attrs)
	}
}

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 10; i++ {
		_, s := StartSpan(ctx, "x")
		s.End()
	}
	spans, dropped := tr.Snapshot()
	if len(spans) != 4 || dropped != 6 {
		t.Fatalf("got %d spans, %d dropped; want 4 and 6", len(spans), dropped)
	}
	// The ring keeps the newest spans, oldest first.
	for i, s := range spans {
		if want := uint64(7 + i); s.ID != want {
			t.Fatalf("span %d has ID %d, want %d", i, s.ID, want)
		}
	}
}

func TestSpanAttrTypes(t *testing.T) {
	tr := NewTracer(4)
	_, s := StartSpan(WithTracer(context.Background(), tr), "x")
	s.SetInt("i", -7)
	s.SetAttr("s", "v")
	s.End()
	spans, _ := tr.Snapshot()
	if rec := spans[0]; len(rec.Attrs) != 2 || rec.Attrs["i"] != "-7" || rec.Attrs["s"] != "v" {
		t.Fatalf("attrs %+v", rec.Attrs)
	}
}

// TestDisabledTracingIsFree pins the overhead contract: instrumented
// code running without a tracer in its context must not allocate.
func TestDisabledTracingIsFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sctx, s := StartSpan(ctx, "epoch")
		s.SetInt("epoch", 12345) // ≥ 100: strconv.Itoa allocates past its small-int table
		s.SetAttr("error", "deadline")
		s.End()
		if sctx != ctx {
			t.Fatal("disabled StartSpan must return ctx unchanged")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %v per span, want 0", allocs)
	}
}

// BenchmarkDisabledObs measures the full disabled-instrumentation path
// the hot loops pay: a would-be span plus a handful of nil instrument
// updates. The contract is 0 allocs/op (asserted by
// TestDisabledTracingIsFree and TestNilRegistryAndInstrumentsAreNoops).
func BenchmarkDisabledObs(b *testing.B) {
	ctx := context.Background()
	var r *Registry
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "epoch")
		s.SetInt("epoch", i)
		s.End()
		c.Inc()
		g.Set(1)
		h.Observe(1)
	}
}
