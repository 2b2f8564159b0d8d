package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown"
// elsewhere.
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

// commit resolves .git/HEAD when the benchmark runs in a git checkout;
// exported trees have no .git, and the source digest identifies them.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
	if err != nil {
		return "unresolved " + ref
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes every Go source and module file under the working
// directory (the repository root), so two results can be matched to the
// code they measured even without git.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

var hostSpeedSink uint64

// hostSpeed times a fixed single-threaded integer loop, best of five, in
// ms. A run prints it before set-up and after the measured loop: a shared
// host's speed drifts over minutes, without steal time to show it, and two
// results taken at different host speeds should not be compared silently.
func hostSpeed() float64 {
	best := math.Inf(1)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		x := uint64(i)
		for j := 0; j < 1<<22; j++ {
			x += 0x9e3779b97f4a7c15
			x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		}
		hostSpeedSink += x
		best = min(best, ms(time.Since(t0).Seconds()))
	}
	return best
}
