package main

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"sharedicache/internal/clitest"
)

func TestUsageGolden(t *testing.T) { clitest.Usage(t, registerFlags) }

// TestInterruptedRunWritesOutputs: a cancelled sweep still writes every
// requested exit-time file, each complete.
func TestInterruptedRunWritesOutputs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	args := append([]string{"-bench", "FT", "-cpc", "8", "-size", "16", "-buses", "1", "-n", "20000"}, clitest.OutputArgs(dir)...)
	err := run(ctx, args, &bytes.Buffer{}, &bytes.Buffer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	clitest.CheckOutputs(t, dir)
}
