package tiered

import (
	"errors"
	"testing"

	"hybridmem/internal/trace"
)

func TestTenantByName(t *testing.T) {
	e, err := New(Config{
		DRAMPages: 8,
		NVMPages:  32,
		Tenants: []TenantConfig{
			{ID: 0, Name: "alpha", DRAMQuota: 4},
			{ID: 3, Name: "gamma", DRAMQuota: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := e.TenantByName("gamma"); !ok || id != 3 {
		t.Fatalf("gamma resolved to (%d, %v)", id, ok)
	}
	if id, ok := e.TenantByName("alpha"); !ok || id != 0 {
		t.Fatalf("alpha resolved to (%d, %v)", id, ok)
	}
	if _, ok := e.TenantByName("nosuch"); ok {
		t.Fatal("unknown name resolved")
	}
	// A single-tenant engine resolves the implicit default tenant as
	// "default"; explicitly configured unnamed tenants get "tenant-<ID>".
	e2, err := New(Config{DRAMPages: 8, NVMPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := e2.TenantByName("default"); !ok || id != DefaultTenant {
		t.Fatalf("default name resolved to (%d, %v)", id, ok)
	}
	e3, err := New(Config{DRAMPages: 8, NVMPages: 32,
		Tenants: []TenantConfig{{ID: 5, DRAMQuota: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := e3.TenantByName("tenant-5"); !ok || id != 5 {
		t.Fatalf("generated name resolved to (%d, %v)", id, ok)
	}
}

func TestDrop(t *testing.T) {
	e, err := New(Config{DRAMPages: 4, NVMPages: 16, Shards: 4, Core: smallCore()})
	if err != nil {
		t.Fatal(err)
	}
	// Lifecycle: Drop before Start and after Stop fails like Serve does.
	if _, err := e.Drop(DefaultTenant, 0); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Drop before Start: %v", err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	// Fill DRAM past capacity so pages sit in both tiers.
	for p := uint64(0); p < 6; p++ {
		if _, err := e.Serve(p*4096, trace.OpWrite); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.ResidentDRAM+st.ResidentNVM != 6 {
		t.Fatalf("resident %d+%d, want 6", st.ResidentDRAM, st.ResidentNVM)
	}

	// Dropping a non-resident page is a no-op, not an error.
	if ok, err := e.Drop(DefaultTenant, 999*4096); ok || err != nil {
		t.Fatalf("Drop(absent) = (%v, %v)", ok, err)
	}
	// Unknown tenants are rejected.
	if _, err := e.Drop(7, 0); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Drop(unknown tenant): %v", err)
	}

	// Drop every resident page; the frames must all come back.
	for p := uint64(0); p < 6; p++ {
		ok, err := e.Drop(DefaultTenant, p*4096)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("page %d was resident but Drop found nothing", p)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("after dropping page %d: %v", p, err)
		}
	}
	st = e.Stats()
	if st.ResidentDRAM != 0 || st.ResidentNVM != 0 {
		t.Fatalf("residency after dropping all: %d DRAM, %d NVM", st.ResidentDRAM, st.ResidentNVM)
	}
	if st.Evictions < 6 {
		t.Fatalf("evictions = %d, want at least 6 (drops are accounted as evictions)", st.Evictions)
	}

	// A dropped page faults back in on the next access.
	res, err := e.Serve(0, trace.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fault {
		t.Fatal("re-access after Drop did not fault")
	}

	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Drop(DefaultTenant, 0); !errors.Is(err, ErrStopped) {
		t.Fatalf("Drop after Stop: %v", err)
	}
}

// TestDropQuotaAccounting drops pages belonging to a quota-bound tenant
// and checks the freed DRAM is returned to the right ledger: the tenant
// can immediately fault new pages back in without borrowing spill.
func TestDropQuotaAccounting(t *testing.T) {
	e, err := New(Config{
		DRAMPages: 8,
		NVMPages:  32,
		Shards:    4,
		Core:      smallCore(),
		Tenants: []TenantConfig{
			{ID: 0, Name: "a", DRAMQuota: 4},
			{ID: 1, Name: "b", DRAMQuota: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	// Both tenants fill their quotas.
	for id := TenantID(0); id < 2; id++ {
		for p := uint64(0); p < 4; p++ {
			if _, err := e.ServeTenant(id, p*4096, trace.OpWrite); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Tenant a frees half its quota.
	for p := uint64(0); p < 2; p++ {
		if ok, err := e.Drop(0, p*4096); !ok || err != nil {
			t.Fatalf("Drop = (%v, %v)", ok, err)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	a, _ := e.TenantStats(0)
	if a.ResidentDRAM != 2 {
		t.Fatalf("tenant a resident DRAM = %d, want 2", a.ResidentDRAM)
	}
	// The freed frames go back to tenant a's quota: faulting two fresh
	// pages must land in DRAM without demoting anything of tenant b's.
	demotionsBefore := e.Stats().Demotions
	for p := uint64(10); p < 12; p++ {
		res, err := e.ServeTenant(0, p*4096, trace.OpWrite)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fault {
			t.Fatalf("page %d did not fault", p)
		}
	}
	if d := e.Stats().Demotions - demotionsBefore; d != 0 {
		t.Fatalf("%d demotions while refilling freed quota, want 0", d)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
