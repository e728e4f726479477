package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrClosed is returned by Append on a closed journal.
var ErrClosed = errors.New("durable: journal closed")

// Journal is an append-only JSONL log: one JSON value per line, each append
// synced before it returns. A nil *Journal is an in-memory journal whose
// Append and Close do nothing. Append and Close must not run concurrently;
// owners call them under their own locks.
type Journal struct {
	f file // nil once closed
	// torn records that a failed append may have left a partial line, so
	// the next append starts on a fresh line and replays intact.
	torn bool
}

// OpenJournal replays the journal at path, then opens it for appending,
// creating the file and its directory if absent. Each complete line is
// handed to apply; a line apply rejects is skipped and reported in the
// returned warnings as "path:line: err". Bytes after the last newline are a
// torn tail — an append that crashed before its sync returned, so it was
// never acknowledged — and are truncated with one warning before any new
// line is appended onto them.
func OpenJournal(path string, apply func(line []byte) error) (*Journal, []string, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	end := bytes.LastIndexByte(data, '\n') + 1
	var warnings []string
	lines := bytes.Split(data[:end], []byte("\n"))
	for i, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if err := apply(line); err != nil {
			warnings = append(warnings, fmt.Sprintf("%s:%d: %v", path, i+1, err))
		}
	}
	if end < len(data) {
		warnings = append(warnings, fmt.Sprintf("%s:%d: torn tail of %d bytes truncated", path, len(lines), len(data)-end))
		if err := os.Truncate(path, int64(end)); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: f}, warnings, nil
}

// Append marshals v as one line, writes it in a single call and syncs it.
// It returns ErrClosed after Close.
func (j *Journal) Append(v any) error {
	if j == nil {
		return nil
	}
	if j.f == nil {
		return ErrClosed
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line := append(data, '\n')
	if j.torn {
		line = append([]byte{'\n'}, line...)
	}
	if _, err := j.f.Write(line); err != nil {
		j.torn = true
		return err
	}
	j.torn = false
	return j.f.Sync()
}

// Close releases the append handle. Closing twice is a no-op.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
