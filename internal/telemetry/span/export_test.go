package span

import "github.com/faasmem/faasmem/internal/simtime"

// End is the span's end time.
func (s Span) End() simtime.Time { return s.Start + simtime.Time(s.Dur) }
