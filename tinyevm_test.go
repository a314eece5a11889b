package tinyevm_test

import (
	"testing"

	"tinyevm"
	"tinyevm/internal/core"
)

// TestPublicAPIEndToEnd drives the whole system through the lockstep
// core.System with manual message pumping: open, pay, close, commit,
// challenge window, settle.
func TestPublicAPIEndToEnd(t *testing.T) {
	sys, lot, err := core.NewSystem(core.DefaultConfig(), "parking-lot")
	if err != nil {
		t.Fatal(err)
	}
	lot.RegisterSensor(tinyevm.SensorOccupancy, func(uint64) (uint64, error) { return 1, nil })
	lot.RegisterSensor(tinyevm.SensorTemperature, func(uint64) (uint64, error) { return 2150, nil })

	car, err := sys.AddNode("smart-car")
	if err != nil {
		t.Fatal(err)
	}
	car.RegisterSensor(tinyevm.SensorTemperature, func(uint64) (uint64, error) { return 2150, nil })

	// Phase 1: the car locks its deposit on-chain.
	if r, err := car.DepositOnChain(sys.Chain, 50_000); err != nil || !r.Status {
		t.Fatalf("deposit: %v %v", err, r)
	}

	// Phase 2: off-chain channel and payments.
	cs, err := car.OpenChannel(lot.Address(), 50_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lot.AcceptChannel(); err != nil {
		t.Fatal(err)
	}
	for _, amt := range []uint64{500, 500, 750} {
		if _, err := car.Pay(cs.ID, amt); err != nil {
			t.Fatal(err)
		}
		if _, err := lot.ReceivePayment(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := car.CloseChannel(cs.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := lot.AcceptClose(); err != nil {
		t.Fatal(err)
	}
	final, err := car.FinishClose()
	if err != nil {
		t.Fatal(err)
	}
	if final.Cumulative != 1750 {
		t.Fatalf("final cumulative %d", final.Cumulative)
	}

	// Phase 3: on-chain commit, exit, challenge window, settle.
	if r, err := lot.CommitOnChain(sys.Chain, final); err != nil || !r.Status {
		t.Fatalf("commit: %v %v", err, r.Err)
	}
	if r, err := car.ExitOnChain(sys.Chain); err != nil || !r.Status {
		t.Fatalf("exit: %v %v", err, r.Err)
	}
	if err := sys.RunChallengePeriod(); err != nil {
		t.Fatal(err)
	}
	if r, err := lot.SettleOnChain(sys.Chain); err != nil || !r.Status {
		t.Fatalf("settle: %v %v", err, r.Err)
	}
	if !sys.Template.Settled() {
		t.Fatal("template not settled")
	}

	// Energy accounting is live through the façade.
	rep := car.EnergyReport()
	if rep.TotalEnergyMJ <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestPublicAPIDeployListing2(t *testing.T) {
	sys, lot, err := core.NewSystem(core.DefaultConfig(), "lot")
	if err != nil {
		t.Fatal(err)
	}
	_ = sys
	lot.RegisterSensor(tinyevm.SensorTemperature, func(uint64) (uint64, error) { return 42, nil })

	init := tinyevm.PaymentChannelInitCode(lot.Address(), lot.Address(), tinyevm.SensorTemperature, 0)
	res := lot.DeployContract(init)
	if res.Err != nil {
		t.Fatalf("deploy: %v", res.Err)
	}
	if res.Time <= 0 || res.MaxStackPointer == 0 {
		t.Fatalf("missing measurements: %+v", res)
	}
}

func TestAddNodeNameCollision(t *testing.T) {
	sys, _, err := core.NewSystem(core.DefaultConfig(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddNode("n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddNode("n1"); err == nil {
		t.Fatal("duplicate node name accepted")
	}
	if n, ok := sys.Node("n1"); !ok || n.Name() != "n1" {
		t.Fatal("node lookup failed")
	}
}
