package main

import (
	"strings"
	"testing"
)

func TestCPUModel(t *testing.T) {
	const cpuinfo = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\nflags\t\t: fpu\n\nprocessor\t: 1\nmodel name\t: other\n"
	if got, want := cpuModel(strings.NewReader(cpuinfo)), "Intel(R) Xeon(R) Processor"; got != want {
		t.Errorf("cpuModel = %q, want %q", got, want)
	}
	if got := cpuModel(strings.NewReader("processor\t: 0\nCPU part\t: 0xd0c\n")); got != "" {
		t.Errorf("cpuModel without a model name = %q, want \"\"", got)
	}
}

func TestHostString(t *testing.T) {
	var none *Host
	if got := none.String(); got != "unrecorded" {
		t.Errorf("nil host = %q", got)
	}
	h := &Host{GOMAXPROCS: 2, NumCPU: 4, CPUModel: "X", GoVersion: "go1.24.0"}
	if got, want := h.String(), "X, 4 CPUs, GOMAXPROCS=2, go1.24.0"; got != want {
		t.Errorf("host = %q, want %q", got, want)
	}
}
