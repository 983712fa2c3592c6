package citest

import (
	"flag"
	"reflect"
	"testing"
)

const sample = `
      - name: smoke
        run: |
          go run ./cmd/tool -n 2 -gate 2s > out.json
          go run ./cmd/other -x
          go run ./cmd/tool -n 3 \
            -gate 1m | tee log
`

func TestInvocations(t *testing.T) {
	got, err := invocations(sample, "tool")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"-n", "2", "-gate", "2s"}, {"-n", "3", "-gate", "1m"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("invocations = %q, want %q", got, want)
	}
	if _, err := invocations(`go run ./cmd/tool -name "a b"`, "tool"); err == nil {
		t.Fatal("quoted argument accepted")
	}
}

func TestParseRejectsBadValues(t *testing.T) {
	newFlags := func() *flag.FlagSet {
		fs := flag.NewFlagSet("tool", flag.ExitOnError)
		fs.Duration("gate-p99", 0, "")
		fs.Bool("json", false, "")
		return fs
	}
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-gate-p99", "2s"}, true},
		{[]string{"-gate-p99", "2000"}, false}, // a bare number is not a duration
		{[]string{"-gate-p100", "2s"}, false},
		{[]string{"-json", "out.json"}, false}, // a bool flag takes no operand
	} {
		if err := parse(newFlags(), tc.args); (err == nil) != tc.ok {
			t.Errorf("parse(%q) = %v, want ok=%v", tc.args, err, tc.ok)
		}
	}
}
