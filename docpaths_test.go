package mobisink

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedPath matches a repository path cited in prose or code: it starts
// at a top-level directory that holds code, docs or results, and is not
// the tail of a longer path or of a Go import path.
var citedPath = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:internal|cmd|examples|docs|results|testdata|perfbench)/[\w./{},*-]*)`)

// taskList matches a Markdown task-list item, "- [ ] ..." or "- [x] ...".
var taskList = regexp.MustCompile(`(?m)^\s*[-*] \[[ xX]\] `)

// TestDocPathsExist checks that every repository path a Markdown file
// cites exists. A {a,b} group expands to one path per alternative, and a
// * must match at least one file. CHANGES.md records deleted files, and
// ROADMAP.md and any file with a task list plan new ones, so they are not
// checked; nor is anything under a hidden directory, such as perfbench's
// build tree.
func TestDocPathsExist(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch path {
		case "CHANGES.md", "ROADMAP.md":
			return nil
		}
		if filepath.Ext(path) != ".md" {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if taskList.Match(text) {
			return nil
		}
		for _, line := range strings.Split(string(text), "\n") {
			for _, m := range citedPath.FindAllStringSubmatch(line, -1) {
				cited := strings.TrimRight(m[1], ".,")
				cited = strings.TrimSuffix(cited, "/...")
				for _, p := range expandBraces(cited) {
					if !exists(p) {
						t.Errorf("%s cites %s, which does not exist", path, p)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exists reports whether p names at least one file or directory, or is
// a package directory followed by one of its identifiers, as in
// internal/wire.Sink.
func exists(p string) bool {
	if matches, _ := filepath.Glob(p); len(matches) > 0 {
		return true
	}
	if i := strings.LastIndexByte(p, '.'); i > strings.LastIndexByte(p, '/') {
		fi, err := os.Stat(p[:i])
		return err == nil && fi.IsDir()
	}
	return false
}

// expandBraces expands the first {a,b,...} group of p, recursively.
func expandBraces(p string) []string {
	i := strings.IndexByte(p, '{')
	j := strings.IndexByte(p, '}')
	if i < 0 || j < i {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, expandBraces(p[:i]+alt+p[j+1:])...)
	}
	return out
}
