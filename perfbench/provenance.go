package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func nproc() int { return runtime.NumCPU() }

// provenance stamps a run with what produced it: the source (git commit and
// dirty flag when the tree is a git checkout, and always a digest of the
// Go sources), the toolchain, the machine, and the workload seed.
func provenance(r *run) map[string]any {
	p := map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"seconds":       r.seconds,
		"traced":        r.traced,
		"go_version":    runtime.Version(),
		"nproc":         nproc(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"llc_bytes":     llcBytes(),
		"mem_total_mb":  memTotalMB(),
		"source_sha256": sourceDigest("."),
		"commit":        "unknown (not a git checkout)",
	}
	// Only a checkout with its own .git: git would otherwise report the
	// repository of some enclosing directory.
	if _, err := os.Stat(".git"); err != nil {
		return p
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p["commit"] = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			p["dirty"] = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return p
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

// llcBytes is the size of the highest-level cache of CPU 0 (0 if unknown).
func llcBytes() int64 {
	var best int64
	bestLevel := 0
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, _ := strconv.ParseInt(s, 10, 64)
		if level > bestLevel {
			bestLevel, best = level, n*mult
		}
	}
	return best
}

func memTotalMB() float64 {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return 0
	}
	return float64(si.Totalram) * float64(si.Unit) / (1 << 20)
}

// sourceDigest hashes every go.mod and .go file under root (build outputs
// excluded), so a record names its source even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
