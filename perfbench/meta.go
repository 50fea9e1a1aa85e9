package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// meta identifies a run, so that a noisy one can be told apart:
// steal_share is the share of host CPU time the hypervisor stole while
// the run was going.
type meta struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	StealShare   float64 `json:"steal_share"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
}

func runMeta(cfg config, steal, total float64) meta {
	return meta{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds.Seconds(),
		Trace:        cfg.trace,
		StealShare:   ratio(steal, total),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceSHA256: sourceDigest("."),
	}
}

// commit is the VCS revision the binary was built from, "unknown" when
// it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping hidden directories. It identifies the code a run
// measured even where no VCS revision is available.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
