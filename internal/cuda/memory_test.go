package cuda

import "testing"

func TestMallocFree(t *testing.T) {
	_, ctx := newCtx(1)
	p1, err := ctx.Malloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ctx.Malloc(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("allocations alias")
	}
	info := ctx.MemGetInfo()
	if info.Live != 2 {
		t.Fatalf("Live = %d, want 2", info.Live)
	}
	// 1000 rounds to 1024 (256-byte alignment).
	if info.InUse != 1024+64*1024 {
		t.Fatalf("InUse = %d, want %d", info.InUse, 1024+64*1024)
	}
	if err := ctx.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(p2); err != nil {
		t.Fatal(err)
	}
	if got := ctx.MemGetInfo(); got.InUse != 0 || got.Live != 0 {
		t.Fatalf("leak after frees: %+v", got)
	}
}

func TestMallocOOM(t *testing.T) {
	_, ctx := newCtx(1)
	cap := ctx.MemGetInfo().Capacity
	p, err := ctx.Malloc(cap - 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Malloc(1 << 20); err == nil {
		t.Fatal("expected out-of-memory error")
	}
	if err := ctx.Free(p); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Malloc(1 << 20); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
}

func TestFreeInvalidPointer(t *testing.T) {
	_, ctx := newCtx(1)
	if err := ctx.Free(DevPtr(12345)); err == nil {
		t.Fatal("expected invalid-pointer error")
	}
}

func TestMallocNonPositive(t *testing.T) {
	_, ctx := newCtx(1)
	for _, n := range []int64{0, -5} {
		if _, err := ctx.Malloc(n); err == nil {
			t.Fatalf("Malloc(%d) succeeded", n)
		}
	}
}

func TestDoubleFree(t *testing.T) {
	_, ctx := newCtx(1)
	p, _ := ctx.Malloc(512)
	if err := ctx.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(p); err == nil {
		t.Fatal("double free succeeded")
	}
}
