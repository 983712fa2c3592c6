// Package citest checks the command lines the CI workflow runs against
// the commands' own flag sets, so a flag value a command would reject
// fails `go test` instead of silently disabling a CI step and the gates
// behind it.
package citest

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// workflowFile is the CI workflow file, relative to the module root.
const workflowFile = ".github/workflows/ci.yml"

// goRun matches one `go run ./cmd/<name> args...` command.
var goRun = regexp.MustCompile(`\bgo run \./cmd/([\w-]+)\b(.*)`)

// shellOps end a command's argument list.
var shellOps = map[string]bool{">": true, ">>": true, "2>": true, "<": true, "|": true, "&&": true, "||": true, ";": true}

// invocations returns the argument list of every `go run ./cmd/<name>`
// command in workflow text, up to the first shell operator. Backslash
// continuations are joined first. Quoting and expansion are not
// supported: an argument containing a quote or `$` is an error, so the
// check can never pass on a line it did not really parse.
func invocations(workflow, name string) ([][]string, error) {
	text := strings.ReplaceAll(workflow, "\\\n", " ")
	var out [][]string
	for _, line := range strings.Split(text, "\n") {
		m := goRun.FindStringSubmatch(line)
		if m == nil || m[1] != name {
			continue
		}
		var args []string
		for _, tok := range strings.Fields(m[2]) {
			if shellOps[tok] {
				break
			}
			if strings.ContainsAny(tok, "'\"$`") {
				return nil, errors.New("unsupported shell syntax in: " + strings.TrimSpace(line))
			}
			args = append(args, tok)
		}
		out = append(out, args)
	}
	return out, nil
}

// parse parses args on fs the way the command would, reporting errors
// instead of exiting, and rejects leftover positional arguments (a
// flag typo usually shows up as one).
func parse(fs *flag.FlagSet, args []string) error {
	fs.Init(fs.Name(), flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return errors.New("unexpected positional arguments " + strings.Join(fs.Args(), " "))
	}
	return nil
}

// CheckWorkflow parses every CI invocation of cmd/<name> against a
// fresh flag set from newFlags. Run it from the command's package test.
func CheckWorkflow(t *testing.T, name string, newFlags func() *flag.FlagSet) {
	t.Helper()
	text, err := os.ReadFile(filepath.Join(moduleRoot(t), workflowFile))
	if err != nil {
		t.Fatal(err)
	}
	calls, err := invocations(string(text), name)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range calls {
		if err := parse(newFlags(), args); err != nil {
			t.Errorf("%s: go run ./cmd/%s %s: %v", workflowFile, name, strings.Join(args, " "), err)
		}
	}
	t.Logf("checked %d CI invocations of cmd/%s", len(calls), name)
}

// moduleRoot walks up from the working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the working directory")
		}
		dir = parent
	}
}
