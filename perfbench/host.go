package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint identifies the host and the code a result was measured on.
// Results are comparable only when the host fields agree.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit and Dirty come from git when the tree is a git checkout and
	// read "unknown" otherwise; Source hashes the Go sources either way.
	Commit string `json:"commit"`
	Dirty  string `json:"dirty"`
	Source string `json:"source_sha256"`
}

func hostFingerprint(root string) fingerprint {
	f := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
		Source:     sourceDigest(root),
	}
	// Only a checkout's own .git counts: git would otherwise report an
	// enclosing repository's commit.
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return f
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		f.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			f.Dirty = "false"
			if len(strings.TrimSpace(string(st))) > 0 {
				f.Dirty = "true"
			}
		}
	}
	return f
}

// hostDiffs lists the host fields on which two fingerprints differ; a
// non-empty list makes their results not comparable.
func hostDiffs(a, b fingerprint) []string {
	var d []string
	if a.CPU != b.CPU {
		d = append(d, "cpu")
	}
	if a.NProc != b.NProc {
		d = append(d, "nproc")
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		d = append(d, "gomaxprocs")
	}
	if a.GoVersion != b.GoVersion {
		d = append(d, "go_version")
	}
	return d
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root in
// lexical order, skipping dot-directories (VCS metadata, build output).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
