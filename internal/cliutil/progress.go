package cliutil

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"guidedta/internal/mc"
)

// ProgressObserver returns an observer rendering a live one-line status to
// w (conventionally stderr) from each progress snapshot, rewriting the
// line in place with \r and finishing it with a newline on the final
// snapshot. Only OnSnapshot is set, so per-state events stay free.
func ProgressObserver(w io.Writer, tool string) *mc.FuncObserver {
	var mu sync.Mutex
	prevLen := 0
	return &mc.FuncObserver{
		OnSnapshot: func(s mc.Snapshot) {
			mu.Lock()
			defer mu.Unlock()
			line := fmt.Sprintf("[%s] %6.1fs  explored %s (%s/s)  waiting %s  stored %s  mem %s",
				tool, s.Elapsed.Seconds(),
				countString(int64(s.StatesExplored)), countString(int64(s.StatesPerSec)),
				countString(int64(s.Waiting)), countString(int64(s.StatesStored)),
				byteString(s.MemBytes))
			if s.Steals > 0 {
				line += fmt.Sprintf("  steals %s", countString(s.Steals))
			}
			pad := prevLen - len(line)
			prevLen = len(line)
			if pad > 0 {
				line += strings.Repeat(" ", pad)
			}
			if s.Final {
				fmt.Fprintf(w, "\r%s\n", line)
				prevLen = 0
				return
			}
			fmt.Fprintf(w, "\r%s", line)
		},
	}
}

// countString humanizes a count: 1234 -> "1234", 56789 -> "56.8k",
// 1234567 -> "1.23M".
func countString(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// byteString humanizes a byte count at MB/GB granularity.
func byteString(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	default:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	}
}
