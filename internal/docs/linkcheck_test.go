package docs

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocLinks is the CI doc-link checker: every relative markdown
// link, every backtick-quoted repo path, and every repo path in a
// fenced code block in README.md, DESIGN.md, and docs/*.md must
// resolve to a real file or directory. Writing docs
// that name moved or deleted files is how a docs tree rots; this test
// makes the rot a red build instead of a reader's dead end.
func TestDocLinks(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}

	files := []string{"README.md", "DESIGN.md"}
	docGlob, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docGlob) == 0 {
		t.Fatal("no docs/*.md files found")
	}
	for _, p := range docGlob {
		rel, err := filepath.Rel(root, p)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, rel)
	}

	for _, rel := range files {
		rel := rel
		t.Run(rel, func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(filepath.Join(root, rel))
			if err != nil {
				t.Fatal(err)
			}
			checkMarkdownLinks(t, root, rel, string(data))
			checkBacktickPaths(t, root, string(data))
			for _, p := range staleFencedPaths(root, string(data)) {
				t.Errorf("path %q in a code block does not resolve", p)
			}
		})
	}
}

// mdLink matches [text](target); targets with schemes or pure anchors
// are skipped by the caller.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func checkMarkdownLinks(t *testing.T, root, rel, body string) {
	t.Helper()
	dir := filepath.Dir(rel)
	for _, m := range mdLink.FindAllStringSubmatch(body, -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		target, _, _ = strings.Cut(target, "#")
		if target == "" {
			continue // pure in-document anchor
		}
		resolved := filepath.Join(root, dir, target)
		if _, err := os.Stat(resolved); err != nil {
			t.Errorf("link %q does not resolve (from %s): %v", m[1], rel, err)
		}
	}
}

// backtickPath matches `...` spans that look like repo paths: at least
// one slash, made only of path-safe characters, rooted in a known
// top-level directory or ending in a doc/script extension. Spans with
// placeholders (<date>, *, $) or flag syntax are not paths and are
// ignored.
var backtickSpan = regexp.MustCompile("`([^`\n]+)`")

var pathLike = regexp.MustCompile(`^[A-Za-z0-9_./-]+$`)

// topLevel names the directories whose paths docs are expected to
// reference; a backticked `foo/bar` outside these is likely prose
// (e.g. `a/b` rate notation) and is left alone.
var topLevel = map[string]bool{
	"cmd": true, "docs": true, "examples": true, "internal": true,
	"scenarios": true, "scripts": true,
}

func checkBacktickPaths(t *testing.T, root, body string) {
	t.Helper()
	for _, m := range backtickSpan.FindAllStringSubmatch(body, -1) {
		span := m[1]
		if !strings.Contains(span, "/") || !pathLike.MatchString(span) {
			continue
		}
		first, _, _ := strings.Cut(span, "/")
		isDoc := strings.HasSuffix(span, ".md") || strings.HasSuffix(span, ".sh") ||
			strings.HasSuffix(span, ".txt") || strings.HasSuffix(span, ".ini")
		if !topLevel[first] && !isDoc {
			continue
		}
		// `internal/secchan/suites` style package paths and file paths
		// both resolve with a plain stat; `internal/sim.RNG` style Go
		// symbol references resolve via their package directory.
		if _, err := os.Stat(filepath.Join(root, span)); err != nil {
			if pkg, _, ok := strings.Cut(span, "."); ok {
				if _, pkgErr := os.Stat(filepath.Join(root, pkg)); pkgErr == nil {
					continue
				}
			}
			t.Errorf("backticked path %q does not resolve: %v", span, err)
		}
	}
}

// fencedPath matches a code-block token that names a repo path: path
// characters with at least one slash, optionally a glob.
var fencedPath = regexp.MustCompile(`^[A-Za-z0-9_./*-]+/[A-Za-z0-9_./*-]+$`)

// staleFencedPaths returns the repo paths named in the body's fenced
// code blocks (commands such as `go run ./cmd/avsecd` or
// `scripts/fleet_smoke.sh`) that do not resolve. Only paths rooted in a
// topLevel directory count; a glob must match at least one file, and a
// Go package pattern's `/...` suffix is dropped before the lookup.
func staleFencedPaths(root, body string) []string {
	var stale []string
	inFence := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			continue
		}
		for _, tok := range strings.Fields(line) {
			if i := strings.LastIndexByte(tok, '='); i >= 0 {
				tok = tok[i+1:] // -flag=value
			}
			tok = strings.Trim(tok, `"',;:()`)
			tok = strings.TrimSuffix(strings.TrimPrefix(tok, "./"), "/...")
			if !fencedPath.MatchString(tok) {
				continue
			}
			if first, _, _ := strings.Cut(tok, "/"); !topLevel[first] {
				continue
			}
			if matches, _ := filepath.Glob(filepath.Join(root, tok)); len(matches) == 0 {
				stale = append(stale, tok)
			}
		}
	}
	return stale
}

// TestStaleFencedPaths checks the code-block scan on a synthetic
// README: live commands, scripts, globs and package patterns pass, and
// a command or script that does not exist is reported.
func TestStaleFencedPaths(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	body := "Run `go run ./cmd/nosuchtool` in prose: not a code block.\n" +
		"```sh\n" +
		"go run ./cmd/avsecd -addr 127.0.0.1:0 &\n" +
		"go test ./internal/... && bash scripts/*.sh\n" +
		"avsec campaign -scenarios=internal/ext/demo/scenario > /tmp/out.txt\n" +
		"go run ./cmd/uwbrange\n" +
		"scripts/missing_smoke.sh\n" +
		"```\n"
	got := staleFencedPaths(root, body)
	want := []string{"cmd/uwbrange", "scripts/missing_smoke.sh"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("stale paths = %q, want %q", got, want)
	}
}
