package faasmem

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneRNGConstructor keeps lazyrand.New the simulator's only RNG
// constructor: no non-test Go file under internal/ or cmd/, other than
// internal/simtime/lazyrand itself, may build an eagerly seeded math/rand
// source.
func TestOneRNGConstructor(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if filepath.ToSlash(path) == "internal/simtime/lazyrand" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if strings.Contains(string(src), "rand.NewSource(") {
				t.Errorf("%s calls rand.NewSource; use lazyrand.New", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
