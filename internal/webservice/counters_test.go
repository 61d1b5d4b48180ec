package webservice

import (
	"net/http"
	"testing"

	"repro/internal/journal"
)

// goldenRequest runs the journaled monolithic 48-galaxy request that
// TestPlanArtifactsGolden pins, with mut applied to its configuration.
func goldenRequest(t *testing.T, mut func(*Config)) *harness {
	t.Helper()
	dir := t.TempDir()
	h := newHarness(t, 48, func(c *Config) {
		c.JournalDir = dir
		if mut != nil {
			mut(c)
		}
	})
	h.svc.cfg.HTTPClient = &http.Client{Transport: handlerTransport{h.archive.Handler()}}
	h.archSrv.URL = "http://archive.test"
	if _, _, err := h.svc.Compute(h.inputTable(t), "COMA"); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestGoldenRequestBytesHashed pins the integrity passes of the golden request
// as an exact count: every byte the data plane hashes, the checksum of record
// of each stored file and each verified read. The figure was taken on the
// commit before digests were compared raw (ffb7a0d), with the same counter
// patched in, so a change that skips or merges a verification of any image
// shows up here.
func TestGoldenRequestBytesHashed(t *testing.T) {
	const want = 2300400
	h := goldenRequest(t, nil)
	if got := h.ftp.BytesHashed(); got != want {
		t.Errorf("golden request hashed %d bytes, want %d", got, want)
	}
}

// TestJournalSyncsPerRecord pins the journal's durability baseline on the
// golden request: one fsync per appended record, nothing batched.
func TestJournalSyncsPerRecord(t *testing.T) {
	var w *journal.Writer
	goldenRequest(t, func(c *Config) {
		c.WrapJournal = func(_, _ string, sink journal.Sink) journal.Sink {
			w = sink.(*journal.Writer)
			return sink
		}
	})
	if w == nil || w.Appended() == 0 {
		t.Fatal("the request journaled nothing")
	}
	if w.Syncs() != w.Appended() {
		t.Errorf("%d fsyncs for %d journal records, want one each", w.Syncs(), w.Appended())
	}
}
