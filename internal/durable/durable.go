// Package durable is the one persistence path under every artifact the
// service stores: a staged atomic write for whole files (temp file, fsync,
// rename, directory fsync) and an append-only JSONL Journal for logs that
// must account for every record they acknowledged.
//
// A file written here is either absent, its previous version, or complete:
// the contents are synced before the rename publishes them, and the
// directory is synced after it so the new name itself survives power loss.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// Staged is a fully written and synced temp file waiting to be published
// under its final name.
type Staged struct {
	fs   fileSystem
	name string // temp path; empty once committed or discarded
}

// Stage creates a temp file in dir (named by pattern, as for os.CreateTemp),
// fills it with write, then syncs and closes it. On any failure the temp
// file is removed and the error returned. Staging does all the expensive
// I/O, so a caller can stage outside its locks and Commit under them.
func Stage(dir, pattern string, write func(io.Writer) error) (*Staged, error) {
	return stage(osFS{}, dir, pattern, write)
}

func stage(fs fileSystem, dir, pattern string, write func(io.Writer) error) (*Staged, error) {
	f, err := fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	s := &Staged{fs: fs, name: f.Name()}
	if err != nil {
		s.Discard()
		return nil, err
	}
	return s, nil
}

// Commit atomically publishes the staged file as path (which must be in the
// staging directory) and syncs the directory. A failed rename discards the
// temp file and leaves any existing path untouched. A failed directory sync
// is returned after the rename took effect: path then holds the new bytes,
// but the rename may not survive a crash.
func (s *Staged) Commit(path string) error {
	if err := s.fs.Rename(s.name, path); err != nil {
		s.Discard()
		return err
	}
	s.name = ""
	return s.fs.SyncDir(filepath.Dir(path))
}

// Discard removes the staged temp file. It is a no-op after Commit or a
// previous Discard, so it is safe to defer.
func (s *Staged) Discard() {
	if s.name != "" {
		s.fs.Remove(s.name)
		s.name = ""
	}
}

// WriteFile atomically replaces path with data: Stage into a hidden temp
// file beside path, then Commit.
func WriteFile(path string, data []byte) error {
	return writeFile(osFS{}, path, data)
}

func writeFile(fs fileSystem, path string, data []byte) error {
	s, err := stage(fs, filepath.Dir(path), "."+filepath.Base(path)+".tmp*", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	return s.Commit(path)
}

// file is the handle an atomic write or a journal writes through.
type file interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// fileSystem is every operation an atomic write performs, so tests can fail
// each step in turn.
type fileSystem interface {
	CreateTemp(dir, pattern string) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (file, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
