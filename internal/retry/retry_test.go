package retry

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestExp(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name          string
		base          time.Duration
		attempt       int
		max, expected time.Duration
	}{
		{"attempt 0 is base", 50 * ms, 0, 2000 * ms, 50 * ms},
		{"doubles per attempt", 50 * ms, 3, 2000 * ms, 400 * ms},
		{"lands exactly on the cap", 50 * ms, 5, 1600 * ms, 1600 * ms},
		{"caps", 50 * ms, 6, 2000 * ms, 2000 * ms},
		{"negative attempt counts as 0", 50 * ms, -7, 2000 * ms, 50 * ms},
		{"base above the cap is capped", 5000 * ms, 0, 2000 * ms, 2000 * ms},
		{"shift that overflows into the sign bit caps", 50 * ms, 40, 2000 * ms, 2000 * ms},
		{"shift that wraps to zero caps", 1 << 62, 2, 2000 * ms, 2000 * ms},
		{"attempt past the word size caps", 50 * ms, 63, 2000 * ms, 2000 * ms},
		{"huge attempt caps", 50 * ms, math.MaxInt, 2000 * ms, 2000 * ms},
		{"zero base means no delay", 0, 5, 2000 * ms, 0},
		{"negative base means no delay", -ms, 5, 2000 * ms, 0},
	}
	for _, tc := range cases {
		if got := Exp(tc.base, tc.attempt, tc.max); got != tc.expected {
			t.Errorf("%s: Exp(%v, %d, %v) = %v, want %v", tc.name, tc.base, tc.attempt, tc.max, got, tc.expected)
		}
	}
}

// TestBackoffDelayBounds: every delay lies in [0.5, 1.5) x the capped
// exponential step, the jitter actually spreads (it is not a constant), and
// a seeded source reproduces its schedule.
func TestBackoffDelayBounds(t *testing.T) {
	b := Backoff{Base: 20 * time.Millisecond, Max: 300 * time.Millisecond, Rand: rand.New(rand.NewSource(7))}
	for attempt := -1; attempt < 12; attempt++ {
		step := Exp(b.Base, attempt, b.Max)
		lo, hi := step/2, step+step/2
		seen := map[time.Duration]bool{}
		for i := 0; i < 200; i++ {
			d := b.Delay(attempt)
			if d < lo || d >= hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, lo, hi)
			}
			seen[d] = true
		}
		if len(seen) < 50 {
			t.Errorf("attempt %d: 200 draws produced only %d distinct delays", attempt, len(seen))
		}
	}
	again := Backoff{Base: b.Base, Max: b.Max, Rand: rand.New(rand.NewSource(7))}
	replay := Backoff{Base: b.Base, Max: b.Max, Rand: rand.New(rand.NewSource(7))}
	for attempt := 0; attempt < 8; attempt++ {
		if x, y := again.Delay(attempt), replay.Delay(attempt); x != y {
			t.Fatalf("attempt %d: same seed gave %v then %v", attempt, x, y)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d = 100 * time.Millisecond
	for i := 0; i < 500; i++ {
		if up := JitterUp(rng, d, 0.25); up < d || up > d+d/4 {
			t.Fatalf("JitterUp = %v outside [%v, %v]", up, d, d+d/4)
		}
		if around := JitterAround(rng, d, 0.5); around < d/2 || around >= d+d/2 {
			t.Fatalf("JitterAround = %v outside [%v, %v)", around, d/2, d+d/2)
		}
	}
	// Degenerate spans leave the delay alone instead of panicking in Int63n;
	// the nil source falls back to the global one.
	if got := JitterUp(rng, 0, 0.5); got != 0 {
		t.Errorf("JitterUp of no delay = %v", got)
	}
	if got := JitterAround(rng, d, 0); got != d {
		t.Errorf("JitterAround with no spread = %v, want %v", got, d)
	}
	if got := JitterUp(rng, 1, 0.1); got != 1 {
		t.Errorf("JitterUp with a sub-nanosecond span = %v, want 1ns", got)
	}
	if up := JitterUp(nil, d, 0.25); up < d || up > d+d/4 {
		t.Errorf("JitterUp(nil) = %v outside bounds", up)
	}
	if around := JitterAround(nil, d, 0.5); around < d/2 || around >= d+d/2 {
		t.Errorf("JitterAround(nil) = %v outside bounds", around)
	}
}
