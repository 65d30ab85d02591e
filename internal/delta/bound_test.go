package delta

import "testing"

// TestRepairBound pins RepairBound against the repair-vs-rebuild prices it
// replaced (20 ns a row and 8 ns an edge for an inspection, 15 ns a row
// plus 250 ns a cone row for a repair). For each shape the table records
// the old break-even cone and whether the old model attempted a repair of
// k edited rows, k in {1, 2, 16, cone, cone+1}; the new rule attempts one
// exactly when k <= RepairBound(n, edges).
//
// Every shape of the problem suite lands strictly between two integers,
// where both agree. At an exact boundary ((5n+8·edges) divisible by 250)
// they do not: the old model computed the cone in floating point and
// demanded a strictly cheaper repair, so it declined k = (5n+8·edges)/250
// on some shapes and accepted it on others, and on some its cone came out
// one short. RepairBound is exact and repairs that k. Those rows are
// listed with boundary set and the disagreement asserted.
func TestRepairBound(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, edges int
		cone     int     // old break-even cone
		repair   [5]bool // old decision at k = 1, 2, 16, cone, cone+1
		atQuot   bool    // old decision at k = (5n+8·edges)/250, boundary rows only
		boundary bool
	}{
		{"5-PT", 3969, 7812, 329, [5]bool{true, true, true, true, false}, false, false},
		{"9-PT", 3969, 15500, 575, [5]bool{true, true, true, true, false}, false, false},
		{"7-PT", 8000, 22800, 889, [5]bool{true, true, true, true, false}, false, false},
		{"SPE1", 1000, 2700, 106, [5]bool{true, true, true, true, false}, false, false},
		{"SPE2", 1080, 18684, 619, [5]bool{true, true, true, true, false}, false, false},
		{"SPE3", 5005, 14032, 549, [5]bool{true, true, true, true, false}, false, false},
		{"SPE4", 1104, 2827, 112, [5]bool{true, true, true, true, false}, false, false},
		{"SPE5", 3312, 28755, 986, [5]bool{true, true, true, true, false}, false, false},
		{"65mesh (5-PT 65²)", 4225, 8320, 350, [5]bool{true, true, true, true, false}, false, false},
		{"65-4-1.5", 4225, 11419, 449, [5]bool{true, true, true, true, false}, false, false},
		{"65-4-3", 4225, 14712, 555, [5]bool{true, true, true, true, false}, false, false},
		{"L5-PT", 40000, 79600, 3347, [5]bool{true, true, true, true, false}, false, false},
		{"L7-PT", 27000, 78300, 3045, [5]bool{true, true, true, true, false}, false, false},
		{"L9-PT", 16129, 63756, 2362, [5]bool{true, true, true, true, false}, false, false},
		// Exact boundaries: the old decision at the quotient was declined
		// (10/25, 50/0, 182/105, 196/315) or accepted (18/20) depending on
		// rounding; 182/105 and 196/315 also computed a cone one short.
		{"boundary 10/25", 10, 25, 1, [5]bool{false, false, false, false, false}, false, true},
		{"boundary 18/20", 18, 20, 1, [5]bool{true, false, false, true, false}, true, true},
		{"boundary 50/0", 50, 0, 1, [5]bool{false, false, false, false, false}, false, true},
		{"boundary 182/105", 182, 105, 6, [5]bool{true, true, false, true, false}, false, true},
		{"boundary 196/315", 196, 315, 13, [5]bool{true, true, false, true, false}, false, true},
	} {
		bound := RepairBound(tc.n, tc.edges)
		quot := (5*tc.n + 8*tc.edges) / 250
		if bound != quot {
			t.Fatalf("%s: RepairBound = %d, want (5n+8·edges)/250 = %d", tc.name, bound, quot)
		}
		if !tc.boundary && bound != tc.cone {
			t.Errorf("%s: RepairBound = %d, old cone %d", tc.name, bound, tc.cone)
		}
		if tc.boundary && (5*tc.n+8*tc.edges)%250 != 0 {
			t.Fatalf("%s: not an exact boundary", tc.name)
		}
		for i, k := range []int{1, 2, 16, tc.cone, tc.cone + 1} {
			want := tc.repair[i]
			if tc.boundary && k == quot {
				// The reported off-by-one: the old answer here was
				// tc.atQuot; RepairBound repairs.
				if want != tc.atQuot {
					t.Fatalf("%s: table disagrees with itself at k = %d", tc.name, k)
				}
				want = true
			}
			if got := k <= bound; got != want {
				t.Errorf("%s: repair of %d rows = %v, want %v", tc.name, k, got, want)
			}
		}
	}
}
