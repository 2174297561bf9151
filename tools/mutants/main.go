// Command mutants runs the mutant catalogue (DESIGN.md, "How a test earns
// its place"): each testdata/mutants/*.diff is a patch headed by
// "Package:" and "Run:", the -run pattern that must fail on it. One at a
// time, the tracked files are copied to a temporary directory, the patch
// is applied, and the package's tests are built and run under a timeout.
// Each pattern also runs once unpatched, so a failure the patch did not
// cause is no kill. Verdicts: killed, survived, stale (the patch does not
// apply), broken (no build, or the pattern fails unpatched). It exits 1
// unless all are killed. Run from the root: go run ./tools/mutants
package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

const timeout = 2 * time.Minute

func main() {
	patches, _ := filepath.Glob("testdata/mutants/*.diff")
	ls, err := exec.Command("git", "ls-files", "-z").Output()
	if err != nil || len(patches) == 0 {
		fmt.Fprintf(os.Stderr, "mutants: no testdata/mutants/*.diff, or no git tree here (%v)\n", err)
		os.Exit(2)
	}
	files := strings.Split(strings.TrimRight(string(ls), "\x00"), "\x00")
	unpatched := map[string]string{} // package and pattern: the verdict on the unpatched tree
	killed := 0
	for _, p := range patches {
		start := time.Now()
		pkg, pattern, err := header(p)
		verdict, detail := "broken", fmt.Sprint(err)
		if key := pkg + " " + pattern; err == nil {
			if _, ok := unpatched[key]; !ok {
				v, d := try(files, "", pkg, pattern)
				unpatched[key] = v + ": " + d
			}
			if verdict, detail = try(files, p, pkg, pattern); verdict == "killed" && !strings.HasPrefix(unpatched[key], "survived") {
				verdict, detail = "broken", "unpatched, "+unpatched[key]
			}
		}
		if verdict == "killed" {
			killed++
		}
		fmt.Printf("%-8s %-38s %5.1fs  %s\n", verdict, filepath.Base(p), time.Since(start).Seconds(), detail)
	}
	fmt.Printf("%d mutants: %d killed\n", len(patches), killed)
	if killed != len(patches) {
		os.Exit(1)
	}
}

// try copies the tracked tree, applies patch unless it is "", and runs
// pattern in pkg. It returns a verdict and a line saying why.
func try(files []string, patch, pkg, pattern string) (verdict, detail string) {
	tmp, err := os.MkdirTemp("", "mutant-")
	if err != nil {
		return "broken", err.Error()
	}
	defer os.RemoveAll(tmp)
	for _, f := range files {
		if err := copyFile(f, filepath.Join(tmp, f)); err != nil {
			return "broken", err.Error()
		}
	}
	if patch != "" {
		abs, _ := filepath.Abs(patch) // git apply runs in the copy
		if out, err := run(tmp, timeout, "git", "apply", abs); err != nil {
			return "stale", firstLine(out)
		}
	}
	bin := filepath.Join(tmp, "mutant.test")
	if out, err := run(tmp, 10*time.Minute, "go", "test", "-trimpath", "-c", "-o", bin, pkg); err != nil {
		return "broken", firstLine(out)
	}
	// -test.timeout ends a hang with a panic; the process deadline is the backstop.
	out, err := run(filepath.Join(tmp, pkg), timeout+30*time.Second, bin,
		"-test.run", pattern, "-test.count", "1", "-test.timeout", timeout.String())
	if err != nil {
		return "killed", pattern + ": " + firstLine(out)
	}
	return "survived", pattern + ": " + firstLine(out)
}

// header reads the Package and Run lines before the patch.
func header(patch string) (pkg, pattern string, err error) {
	data, err := os.ReadFile(patch)
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, "diff --git") {
			break
		}
		key, val, _ := strings.Cut(l, ":")
		switch val = strings.TrimSpace(val); key {
		case "Package":
			pkg = val
		case "Run":
			pattern = val
		}
	}
	if err == nil && (pkg == "" || pattern == "") {
		err = fmt.Errorf("%s: header lacks Package or Run", patch)
	}
	return pkg, pattern, err
}

// run runs a command in dir under a deadline. GIT_CEILING_DIRECTORIES
// keeps git apply from taking a repository above the copy for its own.
func run(dir string, limit time.Duration, name string, args ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(dir))
	return cmd.CombinedOutput()
}

// copyFile copies src to dst with its mode; a tracked file deleted in
// the working tree is skipped.
func copyFile(src, dst string) error {
	info, err := os.Stat(src)
	if err != nil {
		return nil
	}
	data, err := os.ReadFile(src)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(dst), 0o755)
	}
	if err == nil {
		err = os.WriteFile(dst, data, info.Mode().Perm())
	}
	return err
}

// firstLine returns the first line of out that names a failed test, a
// panic or a pattern that matched no test, else its last line.
func firstLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if l = strings.TrimSpace(l); strings.HasPrefix(l, "--- FAIL") || strings.HasPrefix(l, "panic:") || strings.Contains(l, "no tests to run") {
			return l
		}
	}
	return lines[len(lines)-1]
}
