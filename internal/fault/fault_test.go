package fault

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSitesRegistry(t *testing.T) {
	sites := Sites()
	if len(sites) != 7 {
		t.Fatalf("expected 7 registered sites, got %v", sites)
	}
	for _, s := range sites {
		if !ValidSite(s) {
			t.Fatalf("registered site %q not valid", s)
		}
	}
	for i := 1; i < len(sites); i++ {
		if sites[i-1] >= sites[i] {
			t.Fatalf("sites not sorted: %v", sites)
		}
	}
	if ValidSite("nope") {
		t.Fatal("unknown site accepted")
	}
}

func TestNewPlanValidates(t *testing.T) {
	cases := []Injection{
		{Site: "bogus", Nth: 1, Class: Transient},
		{Site: SiteSim, Nth: 0, Class: Transient},
		{Site: SiteSim, Nth: 1, Class: Class(99)},
	}
	for i, inj := range cases {
		if _, err := NewPlan(inj); err == nil {
			t.Fatalf("case %d: invalid injection accepted", i)
		}
	}
	if _, err := NewPlan(Injection{Site: SiteSim, Nth: 3, Class: Permanent}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustPlan did not panic on invalid injection")
		}
	}()
	MustPlan(Injection{Site: "bogus", Nth: 1, Class: Transient})
}

func TestPlanSchedule(t *testing.T) {
	p := MustPlan(
		Injection{Site: SiteSim, Nth: 3, Class: Transient},
		Injection{Site: SitePower, Nth: 2, Count: 2, Class: Permanent},
	)
	// sim fails exactly on its 3rd hit.
	for i := 1; i <= 5; i++ {
		err := p.Hit(SiteSim)
		if (i == 3) != (err != nil) {
			t.Fatalf("sim hit %d: err=%v", i, err)
		}
		if i == 3 {
			var fe *Error
			if !errors.As(err, &fe) || fe.Site != SiteSim || fe.Hit != 3 || fe.Class != Transient {
				t.Fatalf("wrong fault error: %#v", err)
			}
			if !strings.Contains(err.Error(), "transient") || !strings.Contains(err.Error(), "sim") {
				t.Fatalf("uninformative error: %v", err)
			}
		}
	}
	// power fails on hits 2 and 3 (Count 2).
	var powerErrs int
	for i := 1; i <= 4; i++ {
		if err := p.Hit(SitePower); err != nil {
			powerErrs++
			if !errors.Is(err, err) || Classify(err) != Permanent {
				t.Fatalf("power hit %d misclassified: %v", i, err)
			}
		}
	}
	if powerErrs != 2 {
		t.Fatalf("expected 2 power failures, got %d", powerErrs)
	}
	if p.Hits(SiteSim) != 5 || p.Hits(SitePower) != 4 || p.Hits(SiteDEG) != 0 {
		t.Fatalf("hit counters wrong: sim=%d power=%d deg=%d",
			p.Hits(SiteSim), p.Hits(SitePower), p.Hits(SiteDEG))
	}
}

func TestPlanDelayStalls(t *testing.T) {
	p := MustPlan(Injection{Site: SiteTrace, Nth: 1, Class: Transient, Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := p.Hit(SiteTrace); err == nil {
		t.Fatal("expected injected failure")
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay not served: %v", d)
	}
}

func TestNilPlanInert(t *testing.T) {
	var p *Plan
	if err := p.Hit(SiteSim); err != nil {
		t.Fatal("nil plan injected")
	}
	if p.Hits(SiteSim) != 0 {
		t.Fatal("nil plan counted")
	}
	if got := p.String(); !strings.Contains(got, "no plan") {
		t.Fatalf("nil plan string: %q", got)
	}
}

func TestPlanConcurrentHits(t *testing.T) {
	p := MustPlan(Injection{Site: SiteSim, Nth: 50, Class: Transient})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := p.Hit(SiteSim); err != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if p.Hits(SiteSim) != 200 {
		t.Fatalf("lost hits: %d", p.Hits(SiteSim))
	}
	if fired != 1 {
		t.Fatalf("injection fired %d times", fired)
	}
}

func TestClassify(t *testing.T) {
	if Classify(&Error{Site: SiteSim, Hit: 1, Class: Transient}) != Transient {
		t.Fatal("transient misclassified")
	}
	if Classify(&Error{Site: SiteSim, Hit: 1, Class: Kill}) != Kill {
		t.Fatal("kill misclassified")
	}
	wrapped := fmt.Errorf("outer: %w", &Error{Site: SiteDEG, Hit: 2, Class: Transient})
	if !IsTransient(wrapped) {
		t.Fatal("wrapped transient not recognised")
	}
	te := &TimeoutError{Site: SiteSim, After: time.Second}
	if !IsTransient(fmt.Errorf("wrap: %w", te)) {
		t.Fatal("timeout not transient")
	}
	if !strings.Contains(te.Error(), "timed out") {
		t.Fatalf("timeout error text: %v", te)
	}
	if Classify(errors.New("segfault")) != Permanent {
		t.Fatal("real error not permanent")
	}
	if IsTransient(nil) || IsKill(nil) {
		t.Fatal("nil error classified")
	}
	if !IsKill(&Error{Site: SiteSim, Hit: 1, Class: Kill}) {
		t.Fatal("kill not recognised")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{Transient: "transient", Permanent: "permanent", Kill: "kill"} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q", c, c.String())
		}
	}
	if got := Class(42).String(); !strings.Contains(got, "42") {
		t.Fatalf("unknown class string: %q", got)
	}
}

func TestPlanString(t *testing.T) {
	if got := MustPlan().String(); !strings.Contains(got, "empty") {
		t.Fatalf("empty plan string: %q", got)
	}
	p := MustPlan(Injection{Site: SiteSim, Nth: 3, Count: 2, Class: Kill})
	if got := p.String(); !strings.Contains(got, "kill@sim[3+2]") {
		t.Fatalf("plan string: %q", got)
	}
}

func TestRandomPlanSeededAndTransient(t *testing.T) {
	a := RandomPlan(7, nil, 5, 10)
	b := RandomPlan(7, nil, 5, 10)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\n%s", a, b)
	}
	if c := RandomPlan(8, []string{SiteSim}, 5, 10); c.String() == a.String() {
		t.Fatal("different seeds produced identical plans")
	}
	for _, i := range a.inj {
		if i.Class != Transient {
			t.Fatalf("random plan injected non-transient: %+v", i)
		}
		if i.Nth < 1 || i.Nth > 10 {
			t.Fatalf("hit index out of range: %+v", i)
		}
	}
	// Degenerate arguments still build a valid plan.
	if p := RandomPlan(1, nil, 2, 0); len(p.inj) != 2 {
		t.Fatal("maxNth clamp failed")
	}
}

func TestRetryBackoff(t *testing.T) {
	r := Retry{Max: 4, Base: 10 * time.Millisecond, Cap: 35 * time.Millisecond}
	want := []time.Duration{10, 20, 35, 35}
	for k := 1; k <= 4; k++ {
		if got := r.Backoff(k); got != want[k-1]*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", k, got, want[k-1]*time.Millisecond)
		}
	}
	if r.Backoff(5) >= 0 || r.Backoff(0) >= 0 {
		t.Fatal("out-of-range attempt did not give up")
	}
	var zero Retry
	if zero.Backoff(1) >= 0 {
		t.Fatal("zero policy retried")
	}
	// No cap: pure doubling.
	nc := Retry{Max: 3, Base: time.Millisecond}
	if nc.Backoff(3) != 4*time.Millisecond {
		t.Fatalf("uncapped backoff(3) = %v", nc.Backoff(3))
	}
	if DefaultRetry.Max <= 0 || DefaultRetry.Backoff(1) <= 0 {
		t.Fatal("DefaultRetry not usable")
	}
}
