package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wf.journal")
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Kind: KindBegin, Detail: "cluster=COMA seed=5"},
		{Kind: KindSubmitted, Node: "m-a", Attempt: 1, At: time.Second},
		{Kind: KindCompleted, Node: "m-a", Site: "usc", Attempt: 1, At: 3 * time.Second},
		{Kind: KindRetried, Node: "m-b", Attempt: 1, Err: "flaky"},
		{Kind: KindEnd, Detail: "out.vot sha=abc"},
	}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(want) {
		t.Errorf("Count = %d, want %d", w.Count(), len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, truncated, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("clean journal reported truncated")
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Seq != i {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
		w := want[i]
		if r.Kind != w.Kind || r.Node != w.Node || r.Site != w.Site ||
			r.Attempt != w.Attempt || r.At != w.At || r.Err != w.Err || r.Detail != w.Detail {
			t.Errorf("record %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestReplayTornTail(t *testing.T) {
	path := tmpJournal(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(Record{Kind: KindSubmitted, Node: "n"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0123abcd {"seq":5,"kind":"comp`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, truncated, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Error("torn tail not reported")
	}
	if len(recs) != 5 {
		t.Errorf("replayed %d records, want the 5 intact ones", len(recs))
	}
}

func TestReplayCorruptMiddleStopsThere(t *testing.T) {
	path := tmpJournal(t)
	w, _ := Create(path)
	for i := 0; i < 4; i++ {
		if err := w.Append(Record{Kind: KindSubmitted, Node: "n"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Flip a byte inside the third record's payload.
	lines[2] = strings.Replace(lines[2], `"kind"`, `"kinX"`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(recs) != 2 {
		t.Errorf("replay past corruption: %d records, truncated=%t (want 2, true)", len(recs), truncated)
	}
}

func TestOpenAppendContinuesSequence(t *testing.T) {
	path := tmpJournal(t)
	w, _ := Create(path)
	_ = w.Append(Record{Kind: KindBegin})
	_ = w.Append(Record{Kind: KindSubmitted, Node: "a"})
	w.Close()

	w2, recs, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("OpenAppend replayed %d records, want 2", len(recs))
	}
	if err := w2.Append(Record{Kind: KindCompleted, Node: "a"}); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	all, truncated, err := Replay(path)
	if err != nil || truncated {
		t.Fatalf("replay: %v truncated=%t", err, truncated)
	}
	if len(all) != 3 || all[2].Seq != 2 || all[2].Kind != KindCompleted {
		t.Errorf("appended journal = %+v", all)
	}
}

func TestCompletedNodes(t *testing.T) {
	recs := []Record{
		{Kind: KindBegin},
		{Kind: KindSubmitted, Node: "a"},
		{Kind: KindCompleted, Node: "a"},
		{Kind: KindSubmitted, Node: "b"},
		{Kind: KindRetried, Node: "b"},
		{Kind: KindRestored, Node: "c"},
		{Kind: KindFailed, Node: "d"},
	}
	done := CompletedNodes(recs)
	if !done["a"] || !done["c"] {
		t.Errorf("done = %v, want a and c", done)
	}
	if done["b"] || done["d"] {
		t.Errorf("b (retried) and d (failed) must not be done: %v", done)
	}
}

func TestEnded(t *testing.T) {
	if _, ok := Ended([]Record{{Kind: KindBegin}}); ok {
		t.Error("unfinished journal reported ended")
	}
	end, ok := Ended([]Record{{Kind: KindBegin}, {Kind: KindEnd, Detail: "x"}})
	if !ok || end.Detail != "x" {
		t.Errorf("Ended = %+v, %t", end, ok)
	}
}

func TestCrashSink(t *testing.T) {
	path := tmpJournal(t)
	w, _ := Create(path)
	defer w.Close()
	crash := &CrashSink{Sink: w, After: 3}
	var err error
	n := 0
	for i := 0; i < 10; i++ {
		if err = crash.Append(Record{Kind: KindSubmitted, Node: "n"}); err != nil {
			break
		}
		n++
	}
	if err != ErrCrash {
		t.Fatalf("err = %v, want ErrCrash", err)
	}
	if n != 3 || crash.Appended() != 3 {
		t.Errorf("appended %d (sink says %d), want 3", n, crash.Appended())
	}
	recs, _, _ := Replay(path)
	if len(recs) != 3 {
		t.Errorf("journal holds %d records, want exactly the 3 pre-crash ones", len(recs))
	}
}

func TestNilWriterIsNoop(t *testing.T) {
	var w *Writer
	if err := w.Append(Record{Kind: KindBegin}); err != nil {
		t.Errorf("nil writer Append = %v", err)
	}
	if w.Count() != 0 {
		t.Error("nil writer Count != 0")
	}
	if err := w.Close(); err != nil {
		t.Errorf("nil writer Close = %v", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	w, _ := Create(tmpJournal(t))
	w.Close()
	if err := w.Append(Record{}); err != ErrClosed {
		t.Errorf("append after close = %v, want ErrClosed", err)
	}
}

func TestReplayMissingFile(t *testing.T) {
	if _, _, err := Replay(filepath.Join(t.TempDir(), "absent.journal")); err == nil {
		t.Error("missing journal must error")
	}
}

func TestScopedWriterStampsRecords(t *testing.T) {
	path := tmpJournal(t)
	w, err := CreateScoped(path, "alice/COMA")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: KindBegin}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: KindCompleted, Node: "n1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := Replay(path)
	if err != nil || truncated {
		t.Fatalf("replay: %v truncated=%v", err, truncated)
	}
	for _, r := range recs {
		if r.Scope != "alice/COMA" {
			t.Fatalf("record %d scope = %q, want alice/COMA", r.Seq, r.Scope)
		}
	}
}

func TestOpenAppendScopedAcceptsOwnScope(t *testing.T) {
	path := tmpJournal(t)
	w, _ := CreateScoped(path, "alice/COMA")
	w.Append(Record{Kind: KindBegin})
	w.Close()

	w2, recs, err := OpenAppendScoped(path, "alice/COMA")
	if err != nil {
		t.Fatalf("reopen same scope: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
	if err := w2.Append(Record{Kind: KindEnd}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
}

func TestOpenAppendScopedRejectsForeignScope(t *testing.T) {
	// Resuming one workflow's journal under another workflow's identity is
	// cross-workflow bleed and must fail loudly, not silently merge.
	path := tmpJournal(t)
	w, _ := CreateScoped(path, "alice/COMA")
	w.Append(Record{Kind: KindBegin})
	w.Close()

	_, _, err := OpenAppendScoped(path, "bob/COMA")
	if err == nil || !strings.Contains(err.Error(), "scope mismatch") {
		t.Fatalf("foreign scope reopen = %v, want ErrScope", err)
	}
}

// FuzzJournalReplay: any truncation of a journal a Writer wrote, and any
// single-bit flip of it (alone or then truncated), replays to a prefix of the
// records appended — never a record that was not appended, never a panic.
// The journal is a short scoped run: begin, submissions, a retry, a
// completion, a restore, an abort and the end marker.
func FuzzJournalReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wf.journal")
	w, err := CreateScoped(path, "alice/COMA")
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Record{
		{Kind: KindBegin, Detail: "cluster=COMA seed=5 nodes=6"},
		{Kind: KindRestored, Node: "m-G0"},
		{Kind: KindSubmitted, Node: "m-G1", Attempt: 1},
		{Kind: KindRetried, Node: "m-G1", Site: "usc", Attempt: 1, At: 4 * time.Second, Err: "transient \"fault\"\n≈"},
		{Kind: KindSubmitted, Node: "m-G1", Attempt: 2, At: 4 * time.Second},
		{Kind: KindCompleted, Node: "m-G1", Site: "wisc", Attempt: 2, At: 8 * time.Second},
		{Kind: KindAborted, At: 8 * time.Second, Err: "context canceled"},
		{Kind: KindEnd, Detail: "output=COMA.vot"},
	} {
		if err := w.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	want, truncated, err := Replay(path)
	if err != nil || truncated || len(want) != 8 {
		f.Fatalf("clean replay: %d records, truncated=%t, err=%v", len(want), truncated, err)
	}
	isPrefix := func(t *testing.T, what string, b []byte) {
		t.Helper()
		got, _, err := ReplayFrom(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: replay error %v", what, err)
		}
		if len(got) > len(want) {
			t.Fatalf("%s: replayed %d records, only %d were appended", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d = %+v, appended %+v", what, i, got[i], want[i])
			}
		}
	}

	f.Add(uint(0), uint(0))
	f.Add(uint(len(data)/2), uint(8*len(data)/3))
	f.Add(uint(len(data)-1), uint(8*len(data)-1))
	f.Add(uint(len(data)), uint(8*3+5)) // a bit of the first CRC's hex
	f.Fuzz(func(t *testing.T, cut, bit uint) {
		cut %= uint(len(data)) + 1
		isPrefix(t, "truncated", data[:cut])
		flipped := bytes.Clone(data)
		bit %= uint(8 * len(data))
		flipped[bit/8] ^= 1 << (bit % 8)
		isPrefix(t, "bit-flipped", flipped)
		isPrefix(t, "bit-flipped, truncated", flipped[:cut])
	})
}

func TestOpenAppendScopedAcceptsLegacyUnscoped(t *testing.T) {
	// Journals written before scoping existed carry no scope; they must
	// remain resumable under any identity.
	path := tmpJournal(t)
	w, _ := Create(path)
	w.Append(Record{Kind: KindBegin})
	w.Close()

	w2, recs, err := OpenAppendScoped(path, "alice/COMA")
	if err != nil {
		t.Fatalf("legacy reopen: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
	w2.Append(Record{Kind: KindEnd})
	w2.Close()
	recs, _, _ = Replay(path)
	if recs[1].Scope != "alice/COMA" {
		t.Fatalf("appended record scope = %q, want alice/COMA", recs[1].Scope)
	}
}
