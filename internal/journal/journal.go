// Package journal is the crash-recovery substrate of the workflow stack: an
// append-only, fsync-ordered event log (write-ahead log) that DAGMan writes
// at every node state transition, in the spirit of Condor DAGMan's log files
// and rescue DAGs. A killed or crashed workflow run leaves behind a journal
// whose replay reconstructs exactly which nodes completed, so a resubmission
// re-executes only the unfinished work.
//
// The on-disk format is one record per line:
//
//	<crc32-hex> <json-record>\n
//
// Each record carries a sequence number, and every Append is followed by an
// fsync, so the journal on disk is always a prefix of the logical event
// stream: a crash can at worst leave one torn final line, which Replay
// detects via the CRC and discards. Records never mutate — recovery is a
// pure replay.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"time"
)

// Record kinds. The workflow-level markers (begin/end/aborted) bracket the
// node-level transitions DAGMan writes.
const (
	KindBegin     = "begin"     // workflow accepted; Detail carries metadata
	KindSubmitted = "submitted" // node released to the scheduler
	KindCompleted = "completed" // node finished successfully
	KindRetried   = "retried"   // node failed an attempt and was resubmitted
	KindFailed    = "failed"    // node failed permanently (retries exhausted)
	KindRestored  = "restored"  // node recovered as done from a prior journal
	KindAborted   = "aborted"   // run stopped cleanly before completion
	KindPreempted = "preempted" // run checkpoint-stopped: slot revoked for a higher class
	KindEnd       = "end"       // workflow completed; Detail carries the result
)

// Record is one journaled event.
type Record struct {
	Seq int `json:"seq"`
	// Scope names the workflow the record belongs to (tenant/cluster on a
	// multi-tenant fabric). Every record a scoped Writer appends is stamped
	// with it, and OpenAppendScoped refuses to resume over records from a
	// different scope — the guard against cross-workflow journal bleed when
	// many workflows share one journal directory. Empty on journals written
	// before scoping existed; such records replay under any scope.
	Scope   string        `json:"wf,omitempty"`
	Kind    string        `json:"kind"`
	Node    string        `json:"node,omitempty"`
	Site    string        `json:"site,omitempty"`
	Attempt int           `json:"attempt,omitempty"`
	At      time.Duration `json:"at,omitempty"` // model time of the transition
	Err     string        `json:"err,omitempty"`
	Detail  string        `json:"detail,omitempty"` // free-form: seed, checksum, LFN
}

// Sink receives journal records. dagman journals through this interface so
// tests can interpose crash injection or counting without touching the disk
// format.
type Sink interface {
	Append(Record) error
}

// Errors returned by the package.
var (
	ErrClosed = errors.New("journal: writer closed")
	// ErrCrash is returned by CrashSink once its budget is exhausted — the
	// simulated kill -9 of a kill-and-resume campaign.
	ErrCrash = errors.New("journal: simulated crash")
)

// Writer appends records to a journal file, fsyncing after every record so
// the state transition is durable before the executor acts on it.
type Writer struct {
	f      *os.File
	w      *bufio.Writer
	next   int
	closed bool
	// appended and syncs count the records this writer appended and the
	// fsyncs it issued (Appended, Syncs).
	appended, syncs int
	// scope, when non-empty, is stamped onto every appended record (see
	// Record.Scope). Set by CreateScoped/OpenAppendScoped.
	scope string
}

// Create truncates (or creates) the journal at path and returns a writer
// whose next sequence number is 0.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, w: bufio.NewWriter(f)}, nil
}

// CreateScoped is Create with a workflow scope: every appended record is
// stamped with scope, namespacing the journal to one workflow of one
// tenant even when many workflows write under a shared journal directory.
func CreateScoped(path, scope string) (*Writer, error) {
	w, err := Create(path)
	if err != nil {
		return nil, err
	}
	w.scope = scope
	return w, nil
}

// ErrScope reports a resume over another workflow's journal — the
// cross-workflow bleed a scoped journal exists to prevent.
var ErrScope = errors.New("journal: workflow scope mismatch")

// OpenAppendScoped is OpenAppend with a workflow scope: the replayed
// records are verified to belong to scope (records with no scope, written
// before scoping existed, are accepted), and the returned writer stamps
// scope onto everything it appends.
func OpenAppendScoped(path, scope string) (*Writer, []Record, error) {
	w, recs, err := OpenAppend(path)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range recs {
		if r.Scope != "" && r.Scope != scope {
			_ = w.Close()
			return nil, nil, fmt.Errorf("%w: journal %s belongs to workflow %q, resuming %q",
				ErrScope, path, r.Scope, scope)
		}
	}
	w.scope = scope
	return w, recs, nil
}

// OpenAppend opens an existing journal for appending, replaying it first to
// find the next sequence number. The replayed records are returned so the
// caller does not read the file twice.
func OpenAppend(path string) (*Writer, []Record, error) {
	recs, _, err := Replay(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	next := 0
	if n := len(recs); n > 0 {
		next = recs[n-1].Seq + 1
	}
	return &Writer{f: f, w: bufio.NewWriter(f), next: next}, recs, nil
}

// Append assigns the record its sequence number, writes it, and fsyncs. The
// caller must not act on the state transition until Append returns nil —
// that ordering is what makes replay-to-resume sound.
func (w *Writer) Append(rec Record) error {
	if w == nil {
		return nil // disabled journal: zero-cost no-op, like a nil fault injector
	}
	if w.closed {
		return ErrClosed
	}
	rec.Seq = w.next
	if w.scope != "" {
		rec.Scope = w.scope
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	if _, err := w.w.WriteString(line); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs++
	w.next++
	w.appended++
	return nil
}

// Appended returns how many records this writer has appended itself; unlike
// Count it leaves out records replayed by OpenAppend.
func (w *Writer) Appended() int {
	if w == nil {
		return 0
	}
	return w.appended
}

// Syncs returns how many fsyncs this writer has issued: one per appended
// record.
func (w *Writer) Syncs() int {
	if w == nil {
		return 0
	}
	return w.syncs
}

// Count returns how many records this writer has appended (plus any replayed
// by OpenAppend).
func (w *Writer) Count() int {
	if w == nil {
		return 0
	}
	return w.next
}

// Close flushes and closes the underlying file. Append after Close fails.
func (w *Writer) Close() error {
	if w == nil || w.closed {
		return nil
	}
	w.closed = true
	flushErr := w.w.Flush()
	closeErr := w.f.Close()
	return errors.Join(flushErr, closeErr)
}

// Replay reads every intact record from the journal at path. A torn or
// corrupt line ends the replay at that point: truncated reports whether
// trailing bytes were discarded (the signature of a crash mid-Append).
// Records after a bad line are never trusted — the fsync ordering guarantees
// the good prefix is the complete history.
func Replay(path string) (recs []Record, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, err
		}
		return nil, false, err
	}
	//nvolint:ignore errclose read-only replay handle; there are no buffered writes a failed close could lose
	defer f.Close()
	return ReplayFrom(f)
}

// ReplayFrom is Replay over an arbitrary reader.
func ReplayFrom(r io.Reader) (recs []Record, truncated bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	wantSeq := 0
	for sc.Scan() {
		line := sc.Text()
		crcHex, payload, ok := strings.Cut(line, " ")
		if !ok || len(crcHex) != 8 {
			return recs, true, nil
		}
		var crc uint32
		if _, err := fmt.Sscanf(crcHex, "%08x", &crc); err != nil {
			return recs, true, nil
		}
		if crc32.ChecksumIEEE([]byte(payload)) != crc {
			return recs, true, nil
		}
		var rec Record
		if err := json.Unmarshal([]byte(payload), &rec); err != nil {
			return recs, true, nil
		}
		if rec.Seq != wantSeq {
			return recs, true, nil
		}
		wantSeq++
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		// An over-long garbage tail is torn-write damage, not a caller error.
		if errors.Is(err, bufio.ErrTooLong) {
			return recs, true, nil
		}
		return recs, truncated, err
	}
	return recs, truncated, nil
}

// CompletedNodes extracts the set of nodes the journal records as done —
// the nodes a resumed execution must not re-run.
func CompletedNodes(recs []Record) map[string]bool {
	done := map[string]bool{}
	for _, r := range recs {
		switch r.Kind {
		case KindCompleted, KindRestored:
			done[r.Node] = true
		}
	}
	return done
}

// Ended reports whether the journal records a completed workflow, returning
// the end record when present.
func Ended(recs []Record) (Record, bool) {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == KindEnd {
			return recs[i], true
		}
	}
	return Record{}, false
}

// CrashSink wraps a sink and fails with ErrCrash after After successful
// appends — the deterministic kill point of a kill-and-resume campaign.
// After <= 0 never crashes.
type CrashSink struct {
	Sink  Sink
	After int
	n     int
}

// Append forwards to the wrapped sink until the crash point, then refuses
// every further record. The record at the crash point itself is NOT written:
// the process died before the fsync, and recovery must treat the transition
// as never having happened.
func (c *CrashSink) Append(rec Record) error {
	if c.After > 0 && c.n >= c.After {
		return ErrCrash
	}
	if err := c.Sink.Append(rec); err != nil {
		return err
	}
	c.n++
	return nil
}

// Appended returns how many records made it through before the crash.
func (c *CrashSink) Appended() int { return c.n }
