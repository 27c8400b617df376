package gpusim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestKillFailsAlloc: a killed device fails every subsequent allocation
// with a typed, errors.Is-able device-lost error; prior buffers remain
// freeable so an executor's batch scope can still clean up.
func TestFaultKillFailsAlloc(t *testing.T) {
	d := NewDevice(DefaultConfig())
	b, err := d.Alloc(1024, "pre-kill")
	if err != nil {
		t.Fatalf("Alloc before Kill: %v", err)
	}
	if !d.Alive() {
		t.Fatal("fresh device reports not alive")
	}
	d.Kill()
	d.Kill() // idempotent
	if d.Alive() {
		t.Fatal("killed device reports alive")
	}
	_, err = d.Alloc(64, "post-kill")
	if err == nil {
		t.Fatal("Alloc on killed device succeeded")
	}
	if !IsDeviceLost(err) || !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("Alloc on killed device returned %T (%v), want DeviceLostError", err, err)
	}
	var dle *DeviceLostError
	if !errors.As(err, &dle) || dle.Label != "post-kill" {
		t.Fatalf("device-lost error lost its label: %v", err)
	}
	if wrapped := fmt.Errorf("ctx: %w", err); !IsDeviceLost(wrapped) {
		t.Fatal("IsDeviceLost does not see through wrapping")
	}
	b.Free() // cleanup on a dead device must not panic
	if got := d.MemInUse(); got != 0 {
		t.Fatalf("MemInUse after free on dead device = %d", got)
	}
}

// TestFaultReviveReopensDevice: Revive clears the dead flag — allocation
// works again under the old identity — and is a no-op on alive devices.
func TestFaultReviveReopensDevice(t *testing.T) {
	d := NewDevice(DefaultConfig())
	d.Revive() // no-op on an alive device
	if !d.Alive() {
		t.Fatal("Revive killed an alive device")
	}
	d.Kill()
	if _, err := d.Alloc(64, "dead"); !IsDeviceLost(err) {
		t.Fatalf("Alloc on killed device: %v, want device-lost", err)
	}
	d.Revive()
	if !d.Alive() {
		t.Fatal("revived device reports dead")
	}
	b, err := d.Alloc(64, "revived")
	if err != nil {
		t.Fatalf("Alloc after Revive: %v", err)
	}
	b.Free()
}

// TestFaultLinkDegradeScalesNetworkTier: installed degradation scales the
// network-tier bandwidth and adds hop latency — inter-node collectives and
// cross-node scatter slow down, the intra tier is untouched — and clears
// back to the healthy closed form.
func TestFaultLinkDegradeScalesNetworkTier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interconnect = HierarchicalInterconnect(4)
	const bytes, n = int64(8 << 20), 16

	healthy := NewInterconnect(cfg)
	hIntra, hInter := healthy.AllReduceTiers(bytes, n, true)
	hScatter := healthy.InterScatter(bytes, 3)

	deg := NewInterconnect(cfg)
	deg.SetLinkDegradation(0.5, time.Millisecond)
	if f, e := deg.LinkDegradation(); f != 0.5 || e != time.Millisecond {
		t.Fatalf("LinkDegradation = (%v, %v), want (0.5, 1ms)", f, e)
	}
	dIntra, dInter := deg.AllReduceTiers(bytes, n, true)
	if dIntra != hIntra {
		t.Errorf("degradation leaked onto the intra tier: %v vs healthy %v", dIntra, hIntra)
	}
	if dInter <= hInter {
		t.Errorf("degraded inter tier %v should exceed healthy %v", dInter, hInter)
	}
	nodes := healthy.NumNodes(n)
	net := DefaultNetworkLink()
	wantInter := time.Duration(float64(2*(nodes-1)) *
		(net.HopLatencyNs + float64(time.Millisecond.Nanoseconds()) +
			float64(bytes)/float64(nodes)/(net.BytesPerSec*0.5)*1e9))
	if dInter != wantInter {
		t.Errorf("degraded inter tier %v, want closed form %v", dInter, wantInter)
	}
	if dScatter := deg.InterScatter(bytes, 3); dScatter <= hScatter {
		t.Errorf("degraded scatter %v should exceed healthy %v", dScatter, hScatter)
	}

	// Clearing restores the healthy closed form exactly.
	deg.SetLinkDegradation(1, 0)
	if f, e := deg.LinkDegradation(); f != 1 || e != 0 {
		t.Fatalf("cleared degradation reads (%v, %v), want (1, 0)", f, e)
	}
	if _, rInter := deg.AllReduceTiers(bytes, n, true); rInter != hInter {
		t.Errorf("post-clear inter tier %v, want healthy %v", rInter, hInter)
	}
}

// TestFaultBroadcastTiers: the rejoin weight reinstall is one transfer on
// the chosen tier — intra pays the link closed form (with the pageable
// factor on a PCIe fabric), inter pays one network hop and respects link
// degradation. Zero bytes cost nothing.
func TestFaultBroadcastTiers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interconnect = HierarchicalInterconnect(4)
	ic := NewInterconnect(cfg)
	const bytes = int64(4 << 20)

	if d := ic.Broadcast(0, true, true); d != 0 || ic.BytesMoved() != 0 {
		t.Fatalf("0-byte broadcast cost %v, moved %d", d, ic.BytesMoved())
	}

	icc := cfg.Interconnect
	wantIntra := time.Duration(icc.LinkLatencyNs + float64(bytes)/icc.LinkBytesPerSec*1e9)
	if got := ic.Broadcast(bytes, false, true); got != wantIntra {
		t.Errorf("intra-tier broadcast %v, want %v", got, wantIntra)
	}
	if ic.IntraNodeBytes() != bytes || ic.InterNodeBytes() != 0 {
		t.Errorf("intra broadcast landed on tiers (%d, %d), want (%d, 0)",
			ic.IntraNodeBytes(), ic.InterNodeBytes(), bytes)
	}

	net := DefaultNetworkLink()
	wantInter := time.Duration(net.HopLatencyNs + float64(bytes)/net.BytesPerSec*1e9)
	if got := ic.Broadcast(bytes, true, true); got != wantInter {
		t.Errorf("inter-tier broadcast %v, want %v", got, wantInter)
	}
	if ic.InterNodeBytes() != bytes {
		t.Errorf("inter-tier traffic %d, want %d", ic.InterNodeBytes(), bytes)
	}
	ic.SetLinkDegradation(0.25, 0)
	if deg := ic.Broadcast(bytes, true, true); deg <= wantInter {
		t.Errorf("degraded inter broadcast %v should exceed healthy %v", deg, wantInter)
	}

	// A flat PCIe fabric pays the pageable staging factor when unpinned.
	flat := NewInterconnect(DefaultConfig())
	pinned := flat.Broadcast(bytes, false, true)
	pageable := flat.Broadcast(bytes, false, false)
	if pageable <= pinned {
		t.Errorf("pageable broadcast %v should exceed pinned %v", pageable, pinned)
	}
}

// TestInjectStallAccumulates: injected stalls are modeled time only —
// they accumulate on the device and never touch the work counters.
func TestFaultInjectStallAccumulates(t *testing.T) {
	d := NewDevice(DefaultConfig())
	if d.StallTime() != 0 {
		t.Fatal("fresh device has nonzero stall time")
	}
	before := d.Snapshot()
	d.InjectStall(3 * time.Millisecond)
	d.InjectStall(0) // no-op
	d.InjectStall(2 * time.Millisecond)
	if got, want := d.StallTime(), 5*time.Millisecond; got != want {
		t.Fatalf("StallTime = %v, want %v", got, want)
	}
	if d.Snapshot() != before {
		t.Fatal("InjectStall disturbed the work counters")
	}
}
