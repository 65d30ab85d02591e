package server

import (
	"context"
	"errors"
	"testing"
)

// TestFactorByFpResidency pins the one by-fingerprint factor read both
// wires, the drift base lookup and the shard warm path share: a hit
// refreshes the factor's LRU position (so recently solved factors
// survive registration pressure), an evicted fingerprint misses with
// errUnknownFactor, the solve direction a factor was registered for is
// part of its identity, and a hit allocates nothing.
func TestFactorByFpResidency(t *testing.T) {
	s, err := New(Config{Procs: 1, FactorCacheCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	a, b, c := testFactor(3), testFactor(4), testFactor(5)
	ra, fpA := s.registerFactor(a, true)
	_, fpB := s.registerFactor(b, true)
	if ra != a || fpA == 0 || fpB == 0 || fpA == fpB {
		t.Fatalf("registration returned (%p, %x) and %x, want the resident factor and two distinct fingerprints", ra, fpA, fpB)
	}
	// Re-registering an equal matrix returns the resident copy, so
	// identical requests coalesce on one value array.
	if again, fp := s.registerFactor(a.Clone(), true); again != a || fp != fpA {
		t.Errorf("re-registration returned (%p, %x), want the resident (%p, %x)", again, fp, a, fpA)
	}

	// B is now least recently used; a by-fp read of it must refresh that.
	if got, err := s.factorByFp(fpB, true); err != nil || got != b {
		t.Fatalf("factorByFp(B) = %p, %v, want the resident factor", got, err)
	}
	if _, fpC := s.registerFactor(c, true); fpC == 0 {
		t.Fatal("third registration returned no fingerprint")
	}
	if _, err := s.factorByFp(fpA, true); !errors.Is(err, errUnknownFactor) {
		t.Errorf("factorByFp(A) after eviction: %v, want errUnknownFactor", err)
	}
	if got, err := s.factorByFp(fpB, true); err != nil || got != b {
		t.Errorf("factorByFp(B) = %p, %v: the refreshed factor should have survived the eviction", got, err)
	}

	if _, err := s.factorByFp(fpB, false); err == nil || errors.Is(err, errUnknownFactor) {
		t.Errorf("factorByFp with the opposite direction: %v, want a direction-mismatch error", err)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.factorByFp(fpB, true); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("factorByFp hit = %v allocs/op, want 0", allocs)
	}
}

// TestFactorCollisionNeverCached pins the fingerprint-collision rule: a
// matrix whose content fingerprint is already taken by a different
// resident factor is solved from the caller's copy and handed the zero
// fingerprint, which no lookup ever resolves.
func TestFactorCollisionNeverCached(t *testing.T) {
	s, err := New(Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	a, squatter := testFactor(3), testFactor(4)
	// Plant a different matrix under a's fingerprint, as a 64-bit
	// collision would.
	h, err := s.factors.Get(a.ContentFingerprint(), func() (cachedFactor, error) {
		return cachedFactor{l: squatter, lower: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if got, fp := s.registerFactor(a, true); got != a || fp != 0 {
		t.Fatalf("colliding registration returned (%p, %x), want the caller's copy and fingerprint 0", got, fp)
	}
	if _, err := s.factorByFp(0, true); !errors.Is(err, errUnknownFactor) {
		t.Errorf("factorByFp(0): %v, want errUnknownFactor — fingerprint 0 is never cached", err)
	}
}
