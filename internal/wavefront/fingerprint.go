package wavefront

import "doconsider/internal/fphash"

// Fingerprint returns a 64-bit hash of the dependence structure: the
// iteration count and the exact CSR adjacency (Ptr and Idx). Two Deps
// with equal fingerprints describe (up to hash collision) the same
// dependence DAG, so they admit the same wavefronts and schedules — the
// property plan caches key on. Values flowing through the loop bodies do
// not enter the hash; plans are structural.
// The hash is never 0.
func (d *Deps) Fingerprint() uint64 {
	h := uint64(fphash.Offset)
	h = fphash.Mix(h, uint64(d.N))
	h = fphash.Words(h, d.Ptr)
	h = fphash.Words(h, d.Idx)
	return max(fphash.Final(h), 1)
}
