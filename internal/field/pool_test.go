package field

import "testing"

// TestGetVecLengthAndClass: GetVec returns exactly n elements, over a
// capacity of the next power of two up to MaxPooledVec and of exactly n
// beyond it; PutVec takes vectors of any capacity back without panicking.
func TestGetVecLengthAndClass(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 600, 1000, 1024, 1025, MaxPooledVec, MaxPooledVec + 1} {
		v := GetVec(n)
		if len(v) != n {
			t.Fatalf("GetVec(%d) has length %d", n, len(v))
		}
		want := n
		if n > 0 && n <= MaxPooledVec {
			want = 1
			for want < n {
				want <<= 1
			}
		}
		if cap(v) < want || (n > MaxPooledVec && cap(v) != n) {
			t.Fatalf("GetVec(%d) has capacity %d, want %d", n, cap(v), want)
		}
		PutVec(v)
	}
	PutVec(nil)
	PutVec(make([]Elem, 3, 700)) // a vector from elsewhere joins the class it covers
	if v := GetVec(512); len(v) != 512 || cap(v) < 512 {
		t.Fatalf("GetVec(512) after a foreign put: len %d cap %d", len(v), cap(v))
	}
}
