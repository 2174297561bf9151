package sim

import "testing"

// TestRunHeal runs a scaled-down self-healing experiment end to end.
func TestRunHeal(t *testing.T) {
	res, err := RunHeal(HealConfig{Ops: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
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
