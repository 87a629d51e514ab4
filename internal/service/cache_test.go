package service

import (
	"bytes"
	"context"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/results"
)

func openTestCache(t *testing.T, dir string) *results.Cache {
	t.Helper()
	cache, err := results.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

func newCachedService(t *testing.T, dir string) *Service {
	t.Helper()
	s := New(Options{QueueCap: 32, Workers: 2, Tick: time.Millisecond, Cache: openTestCache(t, dir)})
	s.Start()
	return s
}

func submitAndFetch(t *testing.T, s *Service, srvURL string, req SubmitRequest) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := &Client{Base: srvURL}
	resp, _, ok, err := cl.Submit(ctx, req)
	if err != nil || !ok {
		t.Fatalf("submit: ok=%v err=%v", ok, err)
	}
	data, err := fetchScheduleBytes(ctx, srvURL, resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheWarmResubmission: a warm resubmission is served from the
// persistent cache with zero re-evaluation — statusz cache hits equal
// the resubmission count, the evaluation counter stays flat, and the
// response bytes are identical to the cold run's.
func TestCacheWarmResubmission(t *testing.T) {
	s := newCachedService(t, t.TempDir())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := fftReq(3)
	cold := submitAndFetch(t, s, srv.URL, req)
	if st := s.Status(); st.Evaluations != 1 || st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("after cold run: %+v", st)
	}
	// Sequential resubmissions (each completes before the next submits)
	// cannot coalesce, so every one is its own cache lookup.
	const resubmissions = 5
	for i := 0; i < resubmissions; i++ {
		warm := submitAndFetch(t, s, srv.URL, req)
		if !bytes.Equal(warm, cold) {
			t.Fatalf("warm resubmission %d bytes differ from cold run", i+1)
		}
	}
	st := s.Status()
	if st.CacheHits != resubmissions {
		t.Errorf("cache hits %d, want %d (one per resubmission)", st.CacheHits, resubmissions)
	}
	if st.Evaluations != 1 {
		t.Errorf("evaluations %d, want 1 (warm resubmissions must not re-evaluate)", st.Evaluations)
	}
	if st.Completed != resubmissions+1 || st.Failed != 0 {
		t.Errorf("counters: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSurvivesRestart: a second service instance over the same cache
// directory serves the first instance's reports without evaluating.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := fftReq(7)

	s1 := newCachedService(t, dir)
	srv1 := httptest.NewServer(s1.Handler())
	cold := submitAndFetch(t, s1, srv1.URL, req)
	srv1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newCachedService(t, dir)
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	warm := submitAndFetch(t, s2, srv2.URL, req)
	if !bytes.Equal(warm, cold) {
		t.Error("post-restart bytes differ from the first instance's")
	}
	if st := s2.Status(); st.Evaluations != 0 || st.CacheHits != 1 {
		t.Errorf("restarted instance: evaluations %d, hits %d; want 0, 1", st.Evaluations, st.CacheHits)
	}
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// corruptBlobs overwrites every service-report blob entry with data.
func corruptBlobs(t *testing.T, dir string, data []byte) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(path, "blob-"+reportBlobNS) && strings.HasSuffix(path, ".json") {
			n++
			return os.WriteFile(path, data, 0o644)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCacheCorruptEntryFallsBack: a corrupted cache entry never fails the
// job — the service re-evaluates (a miss), overwrites the entry, and the
// response bytes match a clean evaluation. Both corruption shapes are
// covered: invalid JSON, and well-formed JSON whose payload belongs to a
// different submission (the integrity guard).
func TestCacheCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	req := fftReq(11)

	s1 := newCachedService(t, dir)
	srv1 := httptest.NewServer(s1.Handler())
	cold := submitAndFetch(t, s1, srv1.URL, req)
	srv1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// The submission's real content key, computed exactly as Submit does,
	// so the "right key, wrong report" case defeats the envelope check
	// and must be caught by lookupCached's integrity guard.
	tg, err := buildGraph(req)
	if err != nil {
		t.Fatal(err)
	}
	realKey := results.CellKey{Graph: results.Fingerprint(tg), PEs: 8, Variant: "lts"}

	for _, c := range []struct {
		name    string
		corrupt func(t *testing.T)
	}{
		{"invalid JSON", func(t *testing.T) {
			if n := corruptBlobs(t, dir, []byte("{corrupt")); n == 0 {
				t.Fatal("no blob entries found to corrupt")
			}
		}},
		// A foreign envelope under this submission's address: the stored
		// key disagrees, so GetBlob itself reports a miss.
		{"foreign envelope", func(t *testing.T) {
			if n := corruptBlobs(t, dir, []byte(`{"namespace":"`+reportBlobNS+`","key":{"graph":"x","pes":8,"variant":"lts"},"data":{"nodes":1}}`)); n == 0 {
				t.Fatal("no blob entries found to corrupt")
			}
		}},
		// A well-formed entry under the right key whose report belongs to
		// a different submission (wrong node/PE shape): only the service's
		// integrity guard can catch this one.
		{"right key wrong report", func(t *testing.T) {
			cache := openTestCache(t, dir)
			if err := cache.PutBlob(reportBlobNS, realKey,
				[]byte(`{"nodes":1,"pes":1,"variant":"lts","pe":[0]}`)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.corrupt(t)
			s := newCachedService(t, dir)
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			got := submitAndFetch(t, s, srv.URL, req)
			if !bytes.Equal(got, cold) {
				t.Error("fallback evaluation bytes differ from clean run")
			}
			st := s.Status()
			if st.Failed != 0 || st.Evaluations != 1 || st.CacheMisses != 1 || st.CacheHits != 0 {
				t.Errorf("corrupt-entry run: %+v", st)
			}
			if err := s.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDrainCountersPerSubmission is the regression test for the Close
// drain path: coalesced submissions must be counted once per submitter
// in completed/drained, never once per evaluation, and the books must
// balance (open back to zero).
func TestDrainCountersPerSubmission(t *testing.T) {
	s := New(Options{QueueCap: 32, Workers: 2})
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(fftReq(7)); err != nil { // identical: coalesce
			t.Fatal(err)
		}
	}
	for _, seed := range []int64{8, 9} { // distinct
		if _, err := s.Submit(fftReq(seed)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Completed != 8 {
		t.Errorf("completed %d, want 8 (per submission)", st.Completed)
	}
	if st.Drained != 8 {
		t.Errorf("drained %d, want 8 (per submission)", st.Drained)
	}
	if st.Coalesced != 5 || st.Evaluations != 3 {
		t.Errorf("coalesced %d evaluations %d, want 5 and 3", st.Coalesced, st.Evaluations)
	}
	if st.Open != 0 || st.Queued != 0 || st.Running != 0 {
		t.Errorf("books not balanced after drain: %+v", st)
	}
	// Per-tenant accounting agrees with the global books.
	if len(st.Tenants) != 1 || st.Tenants[0].Name != DefaultTenant || st.Tenants[0].Completed != 8 || st.Tenants[0].Open != 0 {
		t.Errorf("tenant rows: %+v", st.Tenants)
	}
}

// TestCachePutErrorsCounted: a report the cache cannot store is counted
// in statusz's cache_put_errors, and the job still completes with its
// report; a resubmission, finding no entry, evaluates again.
func TestCachePutErrorsCounted(t *testing.T) {
	cache := openTestCache(t, t.TempDir())
	if err := os.Chmod(cache.Dir(), 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(cache.Dir(), 0o755) })
	if probe, err := os.CreateTemp(cache.Dir(), "probe-"); err == nil {
		// Permission bits do not bind this process (it runs as root), so
		// block the blob namespace with a file: its directory cannot be
		// created, and every write fails as on a read-only directory.
		probe.Close()
		os.Remove(probe.Name())
		if err := os.WriteFile(filepath.Join(cache.Dir(), "blob-"+reportBlobNS), nil, 0o444); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Options{QueueCap: 32, Workers: 2, Tick: time.Millisecond, Cache: cache})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, req := range []SubmitRequest{fftReq(3), fftReq(4), fftReq(3)} {
		if data := submitAndFetch(t, s, srv.URL, req); len(data) == 0 {
			t.Fatal("empty schedule")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hz, err := (&Client{Base: srv.URL}).Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hz.CachePutErrors != 3 || hz.Evaluations != 3 || hz.CacheMisses != 3 {
		t.Errorf("cache_put_errors %d, evaluations %d, misses %d; want 3 each", hz.CachePutErrors, hz.Evaluations, hz.CacheMisses)
	}
	if hz.Completed != 3 || hz.Failed != 0 {
		t.Errorf("completed %d, failed %d; want 3, 0", hz.Completed, hz.Failed)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
