package control

// Uncore speculation is a natural extension the paper leaves on the
// table: its system scales only the core rails while "the uncore
// components, such as the L3 cache and memory controllers" stay at
// nominal (§IV-A4). The L3 is ECC-protected SRAM like the L2s, so the
// same mechanism applies — calibrate the L3's weakest line, give it a
// monitor, and run the floor/ceiling loop on the uncore rail.

// UncoreDomainID is the Action.Domain value used for uncore decisions,
// and the domain id that Assignment, ActiveMonitor, LastErrorRate and
// FailedSafe take for the uncore.
const UncoreDomainID = -1

// AttachUncore enables uncore speculation: sweep the shared L3 for its
// weakest line, de-configure it, and drive the uncore rail from its
// correctable-error rate alongside the core domains. Call after New (or
// NewFirmwareApproximation) and before the control loop starts; calling
// it again recalibrates the uncore, as CalibrateDomain does a domain.
func (s *System) AttachUncore() (Assignment, error) {
	return s.calibrate(s.rail(UncoreDomainID))
}
