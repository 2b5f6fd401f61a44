package faasmem

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// eachSource calls check with the path and contents of every non-test Go
// file under internal/ and cmd/, except in the directories skip names (and
// their subdirectories).
func eachSource(t *testing.T, skip []string, check func(path, src string)) {
	t.Helper()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if slices.Contains(skip, filepath.ToSlash(path)) {
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
			check(path, string(src))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneRNGConstructor keeps lazyrand.New the simulator's only RNG
// constructor: no non-test Go file under internal/ or cmd/, other than
// internal/simtime/lazyrand itself, may build an eagerly seeded math/rand
// source.
func TestOneRNGConstructor(t *testing.T) {
	eachSource(t, []string{"internal/simtime/lazyrand"}, func(path, src string) {
		if strings.Contains(src, "rand.NewSource(") {
			t.Errorf("%s calls rand.NewSource; use lazyrand.New", path)
		}
	})
}

// registrar matches a call that registers a metric on a registry.
var registrar = regexp.MustCompile(`\.(Counter|Gauge|Histogram)\(`)

// TestOneMetricRegistrar keeps the simulator's metric families in one place:
// only internal/telemetry registers them, on the hub its emit methods update.
// The gateway keeps its own service counters.
func TestOneMetricRegistrar(t *testing.T) {
	eachSource(t, []string{"internal/telemetry", "internal/gateway"}, func(path, src string) {
		if loc := registrar.FindStringIndex(src); loc != nil {
			line := 1 + strings.Count(src[:loc[0]], "\n")
			t.Errorf("%s:%d registers a metric; emit it through a telemetry.Hub method", path, line)
		}
	})
}
