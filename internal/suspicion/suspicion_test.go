package suspicion

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"lifeguard/internal/sim"
	"lifeguard/internal/timeutil"
)

// newSim returns a scheduler-driven clock starting at virtual zero.
func newSim() (*sim.Scheduler, *sim.Clock) {
	sched := sim.NewScheduler(time.Unix(0, 0))
	return sched, sim.NewClock(sched)
}

func TestTimeoutFormula(t *testing.T) {
	min, max := 10*time.Second, 60*time.Second
	cases := []struct {
		k, c int
		want time.Duration
	}{
		// C=0 → Max; C=K → Min (log decay in between).
		{3, 0, 60 * time.Second},
		{3, 3, 10 * time.Second},
		{0, 0, 10 * time.Second},  // K=0: fixed SWIM timeout
		{0, 5, 10 * time.Second},  //
		{3, 10, 10 * time.Second}, // beyond K clamps at Min
	}
	for _, c := range cases {
		if got := Timeout(c.k, c.c, min, max); got != c.want {
			t.Errorf("Timeout(k=%d, c=%d) = %v, want %v", c.k, c.c, got, c.want)
		}
	}

	// Intermediate confirmations decay logarithmically: each successive
	// confirmation reduces the timeout by less (paper §IV-B).
	t1 := Timeout(3, 1, min, max)
	t2 := Timeout(3, 2, min, max)
	drop1 := max - t1
	drop2 := t1 - t2
	if !(t1 > t2 && t2 > min) {
		t.Errorf("decay not monotone: t1=%v t2=%v", t1, t2)
	}
	if drop2 >= drop1 {
		t.Errorf("decay not diminishing: drop1=%v drop2=%v", drop1, drop2)
	}
}

func TestTimeoutMinGEMaxIsFixed(t *testing.T) {
	if got := Timeout(3, 0, 10*time.Second, 10*time.Second); got != 10*time.Second {
		t.Errorf("min==max: %v", got)
	}
	if got := Timeout(3, 0, 10*time.Second, 5*time.Second); got != 10*time.Second {
		t.Errorf("min>max treated as fixed: %v", got)
	}
}

func TestFiresAtMaxWithoutConfirmations(t *testing.T) {
	sched, clock := newSim()
	fired := -1
	New(clock, "accuser", 3, 10*time.Second, 60*time.Second, func(c int) { fired = c })

	sched.RunFor(59 * time.Second)
	if fired != -1 {
		t.Fatal("fired before Max")
	}
	sched.RunFor(2 * time.Second)
	if fired != 0 {
		t.Fatalf("fired=%d, want 0 confirmations at expiry", fired)
	}
}

func TestConfirmationsShrinkTimeout(t *testing.T) {
	sched, clock := newSim()
	fired := -1
	s := New(clock, "a", 3, 10*time.Second, 60*time.Second, func(c int) { fired = c })

	sched.RunFor(time.Second)
	if !s.Confirm("b") || !s.Confirm("c") || !s.Confirm("d") {
		t.Fatal("fresh confirmations rejected")
	}
	// With C = K = 3 the timeout is Min = 10s from the start.
	sched.RunFor(8 * time.Second) // t = 9s
	if fired != -1 {
		t.Fatal("fired before Min")
	}
	sched.RunFor(2 * time.Second) // t = 11s
	if fired != 3 {
		t.Fatalf("fired=%d, want 3", fired)
	}
}

func TestConfirmDedupByAccuser(t *testing.T) {
	sched, clock := newSim()
	s := New(clock, "a", 3, 10*time.Second, 60*time.Second, func(int) {})
	defer s.Stop()
	sched.RunFor(time.Second)

	counted := 0
	// A fresh accuser, the same accuser again, and the original accuser.
	for _, from := range []string{"b", "b", "a"} {
		if s.Confirm(from) {
			counted++
		}
	}
	if counted != 1 {
		t.Errorf("%d confirmations counted, want 1 (duplicates and the original accuser do not count)", counted)
	}
}

// TestConfirmBeyondKIsBounded pins the accuser list at K+1 names: past
// K a distinct accuser changes nothing (the timeout is already at min),
// so it must not be recorded either — a peer that keeps inventing
// accusers would otherwise grow one suspicion without limit, and every
// later suspect message would scan the growth under the node lock.
func TestConfirmBeyondKIsBounded(t *testing.T) {
	const k = 2
	sched, clock := newSim()
	s := New(clock, "a", k, 10*time.Second, 60*time.Second, func(int) {})
	defer s.Stop()
	sched.RunFor(time.Second)

	counted := 0
	for _, from := range []string{"b", "c"} {
		if s.Confirm(from) {
			counted++
		}
	}
	for i := 0; i < 1000; i++ {
		if s.Confirm(fmt.Sprintf("accuser-%d", i)) {
			t.Fatalf("confirmation %d beyond K reported as counted", i)
		}
	}
	if counted != k {
		t.Errorf("%d confirmations counted, want K = %d", counted, k)
	}
	if got := len(s.confirmations); got > k+1 {
		t.Errorf("accuser list holds %d names, want at most K+1 = %d", got, k+1)
	}
}

func TestLateConfirmationFiresImmediately(t *testing.T) {
	// If confirmations arrive after the reduced deadline has already
	// passed (a member draining a backlog at wake), the timeout fires
	// right away — but asynchronously, never inside Confirm.
	sched, clock := newSim()
	fired := -1
	s := New(clock, "a", 3, 5*time.Second, 60*time.Second, func(c int) { fired = c })

	sched.RunFor(20 * time.Second) // already past Min, well short of Max
	inConfirm := true
	s.Confirm("b")
	s.Confirm("c")
	s.Confirm("d") // C = K → deadline = start+5s, long past
	inConfirm = false
	_ = inConfirm
	if fired != -1 {
		t.Fatal("fired synchronously inside Confirm (deadlock hazard)")
	}
	sched.RunFor(time.Millisecond)
	if fired != 3 {
		t.Fatalf("fired=%d, want 3 right after late confirmation", fired)
	}
}

func TestStopPreventsFiring(t *testing.T) {
	sched, clock := newSim()
	fired := false
	s := New(clock, "a", 0, time.Second, time.Second, func(int) { fired = true })
	if !s.Stop() {
		t.Fatal("Stop reported already-fired")
	}
	if s.Stop() {
		t.Error("second Stop reported success")
	}
	sched.RunFor(5 * time.Second)
	if fired {
		t.Error("fired after Stop")
	}
	if s.Confirm("b") {
		t.Error("Confirm accepted after Stop")
	}
}

func TestFiresExactlyOnce(t *testing.T) {
	sched, clock := newSim()
	fires := 0
	s := New(clock, "a", 3, time.Second, 2*time.Second, func(int) { fires++ })
	sched.RunFor(time.Second + time.Millisecond)
	// Confirmations after firing must not re-arm.
	s.Confirm("b")
	s.Confirm("c")
	sched.RunFor(10 * time.Second)
	if fires != 1 {
		t.Fatalf("fired %d times, want 1", fires)
	}
	if s.Stop() {
		t.Error("Stop after firing reported success")
	}
}

// captureClock is a hand-driven clock: AfterFunc records the callback
// instead of scheduling it, so a test can deliver it whenever it likes,
// as many times as it likes, the way a real-clock timer whose callback
// is already on its way can race a Stop or a Reset.
type captureClock struct{ fn func() }

func (c *captureClock) Now() time.Time { return time.Unix(0, 0) }

func (c *captureClock) AfterFunc(_ time.Duration, f func()) timeutil.Timer {
	c.fn = f
	return captureTimer{}
}

type captureTimer struct{}

func (captureTimer) Stop() bool               { return true }
func (captureTimer) Reset(time.Duration) bool { return true }

// TestLateExpiryIsANoOp delivers the expiry callback itself: once more
// after the suspicion has fired, and once after Stop. The timeout
// function must run exactly once in the first case and never in the
// second, whatever the timer does.
func TestLateExpiryIsANoOp(t *testing.T) {
	var clock captureClock
	fires := 0
	New(&clock, "a", 3, time.Second, 2*time.Second, func(int) { fires++ })
	clock.fn()
	clock.fn()
	if fires != 1 {
		t.Fatalf("expiry delivered twice ran the timeout %d times, want 1", fires)
	}

	fires = 0
	s := New(&clock, "a", 3, time.Second, 2*time.Second, func(int) { fires++ })
	s.Stop()
	clock.fn()
	if fires != 0 {
		t.Fatalf("expiry delivered after Stop ran the timeout %d times, want 0", fires)
	}
}

func TestQuickTimeoutBoundedAndMonotone(t *testing.T) {
	f := func(k8, c8 uint8, minSec, spread uint16) bool {
		k := int(k8 % 10)
		c := int(c8 % 16)
		min := time.Duration(minSec%300+1) * time.Second
		max := min + time.Duration(spread)*time.Second
		got := Timeout(k, c, min, max)
		if got < min || got > max {
			return false
		}
		// Monotone non-increasing in C.
		if c > 0 && Timeout(k, c-1, min, max) < got {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickPaperTimeoutTable(t *testing.T) {
	// Spot-check the paper's configuration: n=128, α=5, β=6, K=3 →
	// Min ≈ 10.53 s, Max ≈ 63.2 s, and C=1 cuts the gap by log(2)/log(4)
	// = 50%.
	min := time.Duration(5 * 2.1072099696 * float64(time.Second))
	max := 6 * min
	half := Timeout(3, 1, min, max)
	wantHalf := max - (max-min)/2
	if d := half - wantHalf; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("C=1 timeout %v, want %v (±1ms)", half, wantHalf)
	}
}

func TestManyIndependentSuspicions(t *testing.T) {
	// A table of suspicions like a node under churn would hold: all fire
	// in deterministic order on the virtual clock.
	sched, clock := newSim()
	var fired []string
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("m%d", i)
		d := time.Duration(i+1) * time.Second
		New(clock, "a", 0, d, d, func(int) { fired = append(fired, name) })
	}
	sched.RunFor(time.Minute)
	if len(fired) != 10 {
		t.Fatalf("fired %d, want 10", len(fired))
	}
	for i, name := range fired {
		if want := fmt.Sprintf("m%d", i); name != want {
			t.Errorf("fire order[%d] = %s, want %s", i, name, want)
		}
	}
}

func BenchmarkConfirm(b *testing.B) {
	sched, clock := newSim()
	s := New(clock, "a", 1<<30, time.Hour, 2*time.Hour, func(int) {})
	defer s.Stop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Confirm(fmt.Sprintf("m%d", i))
	}
	_ = sched
}
