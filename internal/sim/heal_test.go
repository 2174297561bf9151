package sim

import (
	"testing"
	"time"
)

// TestRunHeal runs a scaled-down self-healing experiment end to end.
func TestRunHeal(t *testing.T) {
	cfg := HealConfig{Entries: 60, Ops: 80, PageSize: 16, Pace: time.Millisecond, Seed: 1}
	res, err := RunHeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TripAfter > cfg.Ops {
		t.Errorf("breaker opened after %d operations, want within %d", res.TripAfter, cfg.Ops)
	}
	if res.Probes == 0 {
		t.Error("no probe round ran while the breaker was open")
	}
	if len(res.Recovery) == 0 {
		t.Fatal("empty recovery curve")
	}
	for i := 1; i < len(res.Recovery); i++ {
		p, q := res.Recovery[i-1], res.Recovery[i]
		if q.Pages < p.Pages || q.Scanned < p.Scanned || q.Copied < p.Copied ||
			q.Freshened < p.Freshened || q.Elapsed < p.Elapsed {
			t.Errorf("recovery curve falls from %+v to %+v", p, q)
		}
	}
	if res.Repair.Copied+res.Repair.Freshened == 0 {
		t.Errorf("repair installed nothing: %+v", res.Repair)
	}
	if res.Ghosts != 0 {
		t.Errorf("rep2 holds %d ghosts after the repair", res.Ghosts)
	}
}
