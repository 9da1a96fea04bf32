package gpu

import "repro/internal/sim"

// Metrics is a point-in-time snapshot of device utilization since device
// creation.
type Metrics struct {
	Elapsed       sim.Time // cycles covered by this snapshot
	IssueUtil     float64  // fraction of issue slots busy, device-wide
	AvgOccupancy  float64  // mean resident warps / total warp capacity
	AvgReadyWarps float64  // mean warps contending for issue, device-wide
	ResidentWarps int      // instantaneous resident warps
}

// Metrics gathers a utilization snapshot across all SMMs.
func (d *Device) Metrics() Metrics {
	now := d.Eng.Now()
	elapsed := now - d.createdAt
	m := Metrics{Elapsed: elapsed}
	if elapsed <= 0 {
		return m
	}
	var busy, queue, warpInt float64
	for _, s := range d.SMMs {
		b, q := s.issue.Integrals()
		s.settleWarps()
		busy += b
		queue += q
		warpInt += s.warpIntegral
		m.ResidentWarps += s.residentWarps
	}
	totalIssue := d.Cfg.IssueWidth * elapsed * float64(d.Cfg.NumSMMs)
	m.IssueUtil = busy / totalIssue
	m.AvgReadyWarps = queue / (elapsed * float64(d.Cfg.NumSMMs))
	m.AvgOccupancy = warpInt / (elapsed * float64(d.Cfg.TotalWarps()))
	return m
}
