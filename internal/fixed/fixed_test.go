package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromIntRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 139, -97, 1 << 30, -(1 << 30), MaxInt, MinInt}
	for _, v := range cases {
		q := FromInt(v)
		if got := q.Floor(); got != v {
			t.Errorf("FromInt(%d).Floor() = %d", v, got)
		}
	}
}

func TestFromIntSaturates(t *testing.T) {
	if got := FromInt(MaxInt + 10).Floor(); got != MaxInt {
		t.Errorf("positive saturation: got %d want %d", got, MaxInt)
	}
	if got := FromInt(MinInt - 10).Floor(); got != MinInt {
		t.Errorf("negative saturation: got %d want %d", got, MinInt)
	}
}

func TestFromFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
		tol  float64
	}{
		{0, 0, 0},
		{1, 1, 0},
		{-1, -1, 0},
		{0.5, 0.5, 0},
		{0.01, 0.01, 1e-6},
		{-97.25, -97.25, 0},
		{3.14159, 3.14159, 1e-6},
	}
	for _, c := range cases {
		got := FromFloat(c.in).Float()
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("FromFloat(%v).Float() = %v want %v", c.in, got, c.want)
		}
	}
}

func TestFromFloatNaN(t *testing.T) {
	if got := FromFloat(math.NaN()); got != 0 {
		t.Errorf("FromFloat(NaN) = %v want 0", got)
	}
}

func TestFromFloatInf(t *testing.T) {
	if got := FromFloat(math.Inf(1)); got != Q(math.MaxInt64) {
		t.Errorf("FromFloat(+Inf) = %v", got)
	}
	if got := FromFloat(math.Inf(-1)); got != Q(math.MinInt64) {
		t.Errorf("FromFloat(-Inf) = %v", got)
	}
}

func TestFloor(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{1.9, 1},
		{1.0, 1},
		{0.42, 0},
		{-0.5, -1},
		{-1.0, -1},
		{-1.1, -2},
		{42.0, 42},
	}
	for _, c := range cases {
		if got := FromFloat(c.in).Floor(); got != c.want {
			t.Errorf("Floor(%v) = %d want %d", c.in, got, c.want)
		}
	}
}

func TestRound(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{1.4, 1},
		{1.5, 2},
		{-1.4, -1},
		{-1.5, -2},
		{0, 0},
	}
	for _, c := range cases {
		if got := FromFloat(c.in).Round(); got != c.want {
			t.Errorf("Round(%v) = %d want %d", c.in, got, c.want)
		}
	}
}

func TestMulBasic(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{2, 3, 6},
		{0.5, 8, 4},
		{-2, 3, -6},
		{-2, -3, 6},
		{0.01, 139, 1.39},
		{1, 139, 139},
	}
	for _, c := range cases {
		got := FromFloat(c.a).Mul(FromFloat(c.b)).Float()
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("%v*%v = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMulAddPaperExample(t *testing.T) {
	// Paper Fig. 4: root model y = 0.01x - 1 with x = 139 selects child 0.
	y := MulAdd(FromFloat(0.01), FromInt(139), FromFloat(-1))
	if got := y.Floor(); got != 0 {
		t.Errorf("root model selected child %d, want 0", got)
	}
	// Leaf model y = 1x - 97 with x = 139 yields position 42 (0x2a-ish in
	// the paper's table; the PTE lives at PA 0x8b = base + 42*8... the
	// figure uses PA directly, here we check the linear arithmetic).
	y = MulAdd(FromInt(1), FromInt(139), FromInt(-97))
	if got := y.Floor(); got != 42 {
		t.Errorf("leaf model output %d, want 42", got)
	}
}

func TestMulLargeValues(t *testing.T) {
	// VPNs can be up to 2^36 for a 48-bit VA with 4KB pages; slopes near 1.
	vpn := int64(1) << 36
	y := MulAdd(FromInt(1), FromInt(vpn), FromInt(-5))
	if got := y.Floor(); got != vpn-5 {
		t.Errorf("large VPN eval: got %d want %d", got, vpn-5)
	}
}

func TestAddSaturation(t *testing.T) {
	big := Q(math.MaxInt64 - 5)
	if got := big.Add(Q(100)); got != Q(math.MaxInt64) {
		t.Errorf("positive add should saturate, got %v", int64(got))
	}
	small := Q(math.MinInt64 + 5)
	if got := small.Add(Q(-100)); got != Q(math.MinInt64) {
		t.Errorf("negative add should saturate, got %v", int64(got))
	}
}

func TestMulSaturation(t *testing.T) {
	big := FromInt(MaxInt)
	if got := big.Mul(big); got != Q(math.MaxInt64) {
		t.Errorf("positive mul should saturate, got %v", int64(got))
	}
	if got := big.Mul(FromInt(MinInt)); got != Q(math.MinInt64) {
		t.Errorf("mixed-sign mul should saturate, got %v", int64(got))
	}
}

func TestQuickMulMatchesFloat(t *testing.T) {
	// Property: for values within a moderate range, fixed-point multiply
	// matches float multiply within quantization error.
	f := func(a, b int32) bool {
		// Keep products inside the Q44.20 integer range.
		x := float64(a) / 65536
		y := float64(b) / 65536
		got := FromFloat(x).Mul(FromFloat(y)).Float()
		want := x * y
		return math.Abs(got-want) <= math.Abs(want)*1e-5+1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFloorRound(t *testing.T) {
	// Exact property over all of int64: Floor(q) is the largest n with
	// n*Scale <= q, so 0 <= q - Floor(q)<<FracBits < Scale.
	exact := func(v int64) bool {
		rem := v - Q(v).Floor()<<FracBits
		return 0 <= rem && rem < Scale
	}
	// Float form, Floor(q) <= q.Float() < Floor(q)+1, for |q| < 2^53, where
	// Float is exact (beyond that float64's 53-bit mantissa rounds q).
	floatForm := func(q Q) bool {
		fl := float64(q.Floor())
		return fl <= q.Float() && q.Float() < fl+1
	}
	for _, v := range []int64{0, 1, -1, Scale - 1, -Scale, 1<<53 - 1, -(1<<53 - 1), math.MaxInt64, math.MinInt64} {
		if !exact(v) {
			t.Errorf("exact floor property fails at %d", v)
		}
		if v > -(1<<53) && v < 1<<53 && !floatForm(Q(v)) {
			t.Errorf("float floor property fails at %d", v)
		}
	}
	if err := quick.Check(exact, nil); err != nil {
		t.Error(err)
	}
	// v>>11 maps any int64 draw onto [-2^52, 2^52).
	if err := quick.Check(func(v int64) bool { return floatForm(Q(v >> 11)) }, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddCommutes(t *testing.T) {
	f := func(a, b int64) bool {
		return Q(a).Add(Q(b)) == Q(b).Add(Q(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModelSizeMatchesPaper(t *testing.T) {
	if Bytes != 8 {
		t.Errorf("each parameter must be 8 bytes (paper §4.5), got %d", Bytes)
	}
	if ModelBytes != 16 {
		t.Errorf("each node must be 16 bytes (paper §4.5), got %d", ModelBytes)
	}
}
