package main

import (
	"io/fs"

	"adept2/internal/vfs"
)

// noSyncFS is the real filesystem with fsync turned into a no-op. The
// program still encodes, buffers, batches and writes every record and
// snapshot through it, but no call waits for the device: on a shared
// virtual disk the fsync latency drifts by a factor of two or more
// within minutes, which no figure of the program's own work survives.
type noSyncFS struct{ vfs.FS }

func (f noSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ vfs.File }

func (noSyncFile) Sync() error { return nil }
