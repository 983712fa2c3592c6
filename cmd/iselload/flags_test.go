package main

import (
	"flag"
	"testing"

	"iselgen/internal/citest"
)

func TestCIWorkflowFlagsParse(t *testing.T) {
	citest.CheckWorkflow(t, "iselload", func() *flag.FlagSet { fs, _ := newFlags(); return fs })
}
