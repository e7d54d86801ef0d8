package cert

import (
	"fmt"

	"github.com/resccl/resccl/internal/analyze"
)

// CodeGap fires when the certified optimality gap exceeds the
// configured threshold. The budget lints live in internal/analyze
// (analyze.BudgetLints): they are fully static and ride every compile's
// vet stage, which must not link the simulator.
const CodeGap = "cert-gap"

// GapLint checks a certificate against a gap threshold (percent) and
// returns a SevWarn diagnostic when exceeded, or nil. A non-positive
// threshold disables the check.
func GapLint(c *Certificate, maxGapPct float64) []analyze.Diag {
	if c == nil || maxGapPct <= 0 || c.GapPct <= maxGapPct {
		return nil
	}
	return []analyze.Diag{{Code: CodeGap, Severity: analyze.SevWarn,
		Message: fmt.Sprintf(
			"optimality gap %.2f%% exceeds the %.2f%% threshold (completion %.3fµs vs α–β lower bound %.3fµs)",
			c.GapPct, maxGapPct, c.CompletionUS, c.LowerBoundUS)}}
}
