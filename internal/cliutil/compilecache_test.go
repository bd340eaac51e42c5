package cliutil

import (
	"path/filepath"
	"testing"
)

func TestOpenCompileCacheModes(t *testing.T) {
	if c, off, err := OpenCompileCache(""); err != nil || off || c == nil {
		t.Fatalf("default mode: cache=%v off=%v err=%v", c, off, err)
	}
	if c, off, err := OpenCompileCache("on"); err != nil || off || c == nil {
		t.Fatalf("on: cache=%v off=%v err=%v", c, off, err)
	}
	if c, off, err := OpenCompileCache("off"); err != nil || !off || c != nil {
		t.Fatalf("off: cache=%v off=%v err=%v", c, off, err)
	}
	// Any other value, a path included, is an unknown mode.
	dir := t.TempDir()
	for _, mode := range []string{dir, filepath.Join(dir, "artifacts.jsonl"), "ON"} {
		if c, _, err := OpenCompileCache(mode); err == nil || c != nil {
			t.Fatalf("mode %q accepted: cache=%v err=%v", mode, c, err)
		}
	}
}
