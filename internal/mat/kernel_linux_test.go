//go:build amd64 && !purego

package mat

import (
	"os"
	"strings"
	"testing"
)

// TestCPUCheckMatchesCPUInfo: the CPUID and XCR0 checks agree with the
// flags the kernel reports in /proc/cpuinfo (which it lists only for state
// the OS saves), so a broken check cannot fall back to a narrower family
// unnoticed.
func TestCPUCheckMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(info), "\n") {
		name, list, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	if got, want := cpuHasAVX2(), flags["avx2"]; got != want {
		t.Errorf("cpuHasAVX2() = %v, /proc/cpuinfo avx2 flag %v", got, want)
	}
	if got, want := cpuHasAVX512(), flags["avx2"] && flags["avx512f"]; got != want {
		t.Errorf("cpuHasAVX512() = %v, /proc/cpuinfo avx2 and avx512f flags %v", got, want)
	}
	t.Logf("kernel family: %s", best)
}
