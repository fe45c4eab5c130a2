package main

import (
	"testing"

	"sharedicache/internal/clitest"
)

func TestUsageGolden(t *testing.T) {
	clitest.Usage(t, registerFlags)
	clitest.BadFlag(t, "tracegen", run)
}
