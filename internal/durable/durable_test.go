package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var errInjected = errors.New("injected fault")

// faultFS is the real filesystem with one step made to fail.
type faultFS struct {
	osFS
	step string // "create", "write", "sync", "close", "rename" or "syncdir"
}

type faultFile struct {
	*os.File
	step string
}

func (fs faultFS) CreateTemp(dir, pattern string) (file, error) {
	if fs.step == "create" {
		return nil, errInjected
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return faultFile{f, fs.step}, nil
}

func (fs faultFS) Rename(oldpath, newpath string) error {
	if fs.step == "rename" {
		return errInjected
	}
	return fs.osFS.Rename(oldpath, newpath)
}

func (fs faultFS) SyncDir(dir string) error {
	if fs.step == "syncdir" {
		return errInjected
	}
	return fs.osFS.SyncDir(dir)
}

func (f faultFile) Write(p []byte) (int, error) {
	if f.step == "write" {
		// A short write: some bytes land before the failure.
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.File.Write(p)
}

func (f faultFile) Sync() error {
	if f.step == "sync" {
		return errInjected
	}
	return f.File.Sync()
}

func (f faultFile) Close() error {
	err := f.File.Close()
	if f.step == "close" {
		return errInjected
	}
	return err
}

// dirNames lists the directory's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteFileFaults fails each step of an atomic replace in turn: the
// error must reach the caller, no temp file may be left behind, and the old
// target bytes must survive every failure before the rename.
func TestWriteFileFaults(t *testing.T) {
	for _, step := range []string{"create", "write", "sync", "close", "rename", "syncdir"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "artifact.json")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			err := writeFile(faultFS{step: step}, path, []byte("new contents"))
			if !errors.Is(err, errInjected) {
				t.Fatalf("writeFile = %v, want the injected fault", err)
			}
			if names := dirNames(t, dir); len(names) != 1 || names[0] != "artifact.json" {
				t.Errorf("directory holds %v after a failed write, want only artifact.json", names)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := "old"
			if step == "syncdir" {
				// The rename took effect; only its durability is unknown.
				want = "new contents"
			}
			if string(got) != want {
				t.Errorf("target holds %q, want %q", got, want)
			}
		})
	}
}

func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seq")
	for _, data := range []string{"1", "22"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != data {
			t.Fatalf("file holds %q, want %q", got, data)
		}
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only the target", names)
	}
}

// TestStageCommitDiscard covers the split form: a staged file is invisible
// under its final name until Commit, Discard removes it, and Discard after
// Commit leaves the published file alone.
func TestStageCommitDiscard(t *testing.T) {
	dir := t.TempDir()
	write := func(w io.Writer) error { _, err := w.Write([]byte("payload")); return err }

	s, err := Stage(dir, "x.tmp*", write)
	if err != nil {
		t.Fatal(err)
	}
	s.Discard()
	s.Discard()
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("directory holds %v after Discard, want nothing", names)
	}

	s, err = Stage(dir, "x.tmp*", write)
	if err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "x.csr")
	if err := s.Commit(final); err != nil {
		t.Fatal(err)
	}
	s.Discard()
	if got, err := os.ReadFile(final); err != nil || string(got) != "payload" {
		t.Fatalf("committed file = %q, %v", got, err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v after Commit, want only x.csr", names)
	}

	// A failing writer is the caller's error, returned unchanged.
	errWrite := errors.New("encoder failed")
	if _, err := Stage(dir, "y.tmp*", func(io.Writer) error { return errWrite }); err != errWrite {
		t.Fatalf("Stage = %v, want the writer's error", err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v after a failed Stage, want only x.csr", names)
	}
}

// record is the journal line type of the tests.
type record struct {
	N int `json:"n"`
}

func applyRecords(got *[]int) func([]byte) error {
	return func(line []byte) error {
		if !bytes.HasPrefix(line, []byte(`{"n":`)) {
			return errors.New("not a record")
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		*got = append(*got, r.N)
		return nil
	}
}

func TestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "log.jsonl")
	var got []int
	j, warnings, err := OpenJournal(path, applyRecords(&got))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || len(warnings) != 0 {
		t.Fatalf("fresh journal replayed %v with warnings %v", got, warnings)
	}
	for n := 1; n <= 2; n++ {
		if err := j.Append(record{n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if err := j.Append(record{3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	// A bad line mid-file, a blank line, then a torn tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("garbage\n\n{\"n\":4}\n{\"n\":")
	f.Close()

	got = nil
	j, warnings, err = OpenJournal(path, applyRecords(&got))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 4}; !slices.Equal(got, want) {
		t.Errorf("replayed %v, want %v", got, want)
	}
	if len(warnings) != 2 ||
		!strings.HasPrefix(warnings[0], path+":3: not a record") ||
		!strings.HasPrefix(warnings[1], path+":6: torn tail") {
		t.Fatalf("warnings = %q, want the bad line 3 and the torn tail on line 6", warnings)
	}
	// The append after a torn tail lands on its own line.
	if err := j.Append(record{5}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	got = nil
	j, warnings, err = OpenJournal(path, applyRecords(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if want := []int{1, 2, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("replayed %v after truncation, want %v", got, want)
	}
	if len(warnings) != 1 {
		t.Errorf("warnings = %q, want only the mid-file bad line", warnings)
	}
}

// TestJournalAppendAfterFailedWrite: a failed write may leave a partial
// line; the next append must still replay.
func TestJournalAppendAfterFailedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	j, _, err := OpenJournal(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	real := j.f.(*os.File)
	j.f = faultFile{real, "write"}
	if err := j.Append(record{1}); !errors.Is(err, errInjected) {
		t.Fatalf("Append = %v, want the injected fault", err)
	}
	j.f = real
	if err := j.Append(record{2}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	var got []int
	j, warnings, err := OpenJournal(path, applyRecords(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !slices.Equal(got, []int{2}) || len(warnings) != 1 {
		t.Fatalf("replayed %v with warnings %q, want [2] and one warning for the partial line", got, warnings)
	}
}

func TestNilJournalIsInMemory(t *testing.T) {
	var j *Journal
	if err := j.Append(record{1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
