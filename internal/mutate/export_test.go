package mutate

import "repro/internal/graph"

// SetDigest replaces l's overlay digest (Overlay.Fingerprint), so a test
// outside the package can count the digests the serving layer asks for.
// Set it before the log is shared.
func SetDigest(l *Log, digest func(*graph.Overlay) uint64) { l.digest = digest }
