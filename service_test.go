package tinyevm_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tinyevm"
	"tinyevm/internal/core"
	"tinyevm/internal/protocol"
)

func registerTemp(n interface {
	RegisterSensor(uint64, tinyevm.SensorFunc)
}) {
	n.RegisterSensor(tinyevm.SensorTemperature, func(uint64) (uint64, error) { return 2150, nil })
}

// TestServiceMatchesLockstepFacade runs the same session through the
// lockstep core.System and through the event-driven Service and
// requires the doubly-signed final states to be byte-identical on the
// wire.
func TestServiceMatchesLockstepFacade(t *testing.T) {
	amounts := []uint64{500, 500, 750}

	// Lockstep system, manual pumping.
	sys, lot, err := core.NewSystem(core.DefaultConfig(), "parking-lot")
	if err != nil {
		t.Fatal(err)
	}
	registerTemp(lot)
	car, err := sys.AddNode("smart-car")
	if err != nil {
		t.Fatal(err)
	}
	registerTemp(car)
	cs, err := car.OpenChannel(lot.Address(), 50_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lot.AcceptChannel(); err != nil {
		t.Fatal(err)
	}
	for _, amt := range amounts {
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
	oldFinal, err := car.FinishClose()
	if err != nil {
		t.Fatal(err)
	}

	// New service, automatic dispatch. Same node names produce the same
	// deterministic device keys, hence comparable signatures.
	ctx := context.Background()
	svc, slot, err := tinyevm.NewService("parking-lot")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerTemp(slot)
	scar, err := svc.AddNode(ctx, "smart-car")
	if err != nil {
		t.Fatal(err)
	}
	registerTemp(scar)
	scs, err := scar.OpenChannel(ctx, slot.Address(), 50_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, amt := range amounts {
		if _, err := scar.Pay(ctx, scs.ID, amt); err != nil {
			t.Fatal(err)
		}
	}
	newFinal, err := scar.Close(ctx, scs.ID)
	if err != nil {
		t.Fatal(err)
	}

	oldWire := protocol.EncodeFinalState(protocol.MsgCloseAck, oldFinal)
	newWire := protocol.EncodeFinalState(protocol.MsgCloseAck, newFinal)
	if !bytes.Equal(oldWire, newWire) {
		t.Fatalf("final states diverge:\nold %x\nnew %x", oldWire, newWire)
	}
	if err := newFinal.VerifySignatures(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceEvents checks the full event sequence of one session on
// the provider's stream.
func TestServiceEvents(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc, lot, err := tinyevm.NewService("lot")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerTemp(lot)
	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	registerTemp(car)

	events := lot.Subscribe(ctx)

	cs, err := car.OpenChannel(ctx, lot.Address(), 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := car.Pay(ctx, cs.ID, 250); err != nil {
		t.Fatal(err)
	}
	if _, err := car.Pay(ctx, cs.ID, 250); err != nil {
		t.Fatal(err)
	}
	final, err := car.Close(ctx, cs.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Cumulative != 500 || final.SigSender == nil || final.SigReceiver == nil {
		t.Fatalf("bad final state: %+v", final)
	}

	want := []tinyevm.EventType{
		tinyevm.EventChannelOpened,
		tinyevm.EventPaymentReceived,
		tinyevm.EventPaymentReceived,
		tinyevm.EventChannelClosed,
	}
	for i, w := range want {
		select {
		case e := <-events:
			if e.Type != w {
				t.Fatalf("event %d: got %s, want %s", i, e.Type, w)
			}
			if e.Node != "lot" {
				t.Fatalf("event %d delivered for node %q", i, e.Node)
			}
			if w == tinyevm.EventPaymentReceived && e.Amount != 250 {
				t.Fatalf("payment event amount %d", e.Amount)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for event %d (%s)", i, w)
		}
	}

	// Cancelling the context closes the stream.
	cancel()
	for range events { //nolint:revive // drain until closed
	}
}

// TestServiceBlockSealedAndDispute exercises the broadcast events: a
// deposit seals a block, and a fraud challenge raises a dispute.
func TestServiceBlockSealedAndDispute(t *testing.T) {
	ctx := context.Background()
	svc, lot, err := tinyevm.NewService("lot", tinyevm.WithChallengePeriod(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerTemp(lot)
	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	registerTemp(car)

	events := lot.Subscribe(ctx)

	if _, err := car.Deposit(ctx, 10_000); err != nil {
		t.Fatal(err)
	}
	cs, err := car.OpenChannel(ctx, lot.Address(), 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := car.Pay(ctx, cs.ID, 1_000); err != nil {
		t.Fatal(err)
	}
	stale, err := car.Close(ctx, cs.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := car.Reopen(ctx, cs.ID); err != nil {
		t.Fatal(err)
	}
	if err := lot.Reopen(ctx, cs.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := car.Pay(ctx, cs.ID, 2_000); err != nil {
		t.Fatal(err)
	}
	fresh, err := car.Close(ctx, cs.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The car commits the stale checkpoint; the lot challenges.
	if r, err := car.Commit(ctx, stale); err != nil || !r.Status {
		t.Fatalf("stale commit: %v %+v", err, r)
	}
	if r, err := lot.Commit(ctx, fresh); err != nil || !r.Status {
		t.Fatalf("challenge: %v %+v", err, r)
	}

	var sawSeal, sawDispute bool
	deadline := time.After(5 * time.Second)
	for !(sawSeal && sawDispute) {
		select {
		case e, ok := <-events:
			if !ok {
				t.Fatal("stream closed early")
			}
			switch e.Type {
			case tinyevm.EventBlockSealed:
				sawSeal = true
			case tinyevm.EventDispute:
				sawDispute = true
				if e.Peer != car.Address() {
					t.Fatalf("dispute blames %s, want car %s", e.Peer, car.Address())
				}
			}
		case <-deadline:
			t.Fatalf("missing events: seal=%v dispute=%v", sawSeal, sawDispute)
		}
	}
}

// TestServiceConcurrentSessions drives many concurrent clients through
// open -> pay xN -> close directly against the Service API (the RPC
// end-to-end test exercises the same load over HTTP).
func TestServiceConcurrentSessions(t *testing.T) {
	ctx := context.Background()
	svc, lot, err := tinyevm.NewService("provider")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerTemp(lot)

	const clients = 24
	const pays = 3

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node, err := svc.AddNode(ctx, fmt.Sprintf("dev-%03d", i))
			if err != nil {
				errCh <- err
				return
			}
			registerTemp(node)
			cs, err := node.OpenChannel(ctx, lot.Address(), 10_000, 0)
			if err != nil {
				errCh <- err
				return
			}
			for p := 0; p < pays; p++ {
				if _, err := node.Pay(ctx, cs.ID, 100); err != nil {
					errCh <- err
					return
				}
			}
			fs, err := node.Close(ctx, cs.ID)
			if err != nil {
				errCh <- err
				return
			}
			if fs.Cumulative != 100*pays {
				errCh <- fmt.Errorf("client %d: cumulative %d", i, fs.Cumulative)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	chans, err := lot.Channels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	closed := 0
	for _, cs := range chans {
		if cs.Closed() {
			closed++
		}
	}
	if closed != clients {
		t.Fatalf("provider sees %d closed channels, want %d", closed, clients)
	}
}

// TestServiceTypedErrors checks the taxonomy crosses the service
// boundary intact, and that contexts cancel operations.
func TestServiceTypedErrors(t *testing.T) {
	ctx := context.Background()
	svc, lot, err := tinyevm.NewService("lot")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerTemp(lot)
	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	registerTemp(car)
	cs, err := car.OpenChannel(ctx, lot.Address(), 1_000, 0)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := car.Pay(ctx, cs.ID, 5_000); !errors.Is(err, protocol.ErrInsufficientChannelBalance) {
		t.Fatalf("overspend: got %v", err)
	}
	if _, err := car.Pay(ctx, 424242, 1); !errors.Is(err, protocol.ErrUnknownChannel) {
		t.Fatalf("unknown channel: got %v", err)
	}
	if _, err := car.Close(ctx, cs.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := car.Pay(ctx, cs.ID, 1); !errors.Is(err, protocol.ErrChannelClosed) {
		t.Fatalf("closed channel: got %v", err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := car.Pay(cancelled, cs.ID, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: got %v", err)
	}

	svc.Close()
	if _, err := car.Pay(ctx, cs.ID, 1); !errors.Is(err, tinyevm.ErrServiceClosed) {
		t.Fatalf("closed service: got %v", err)
	}
}

// TestServiceEngineWorkers runs a session with the parallel-engine
// block producer configured and verifies on-chain settlement still
// works end to end.
func TestServiceEngineWorkers(t *testing.T) {
	ctx := context.Background()
	svc, lot, err := tinyevm.NewService("lot",
		tinyevm.WithEngineWorkers(4), tinyevm.WithChallengePeriod(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerTemp(lot)
	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	registerTemp(car)

	if r, err := car.Deposit(ctx, 10_000); err != nil || !r.Status {
		t.Fatalf("deposit: %v %+v", err, r)
	}
	cs, err := car.OpenChannel(ctx, lot.Address(), 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := car.Pay(ctx, cs.ID, 2_500); err != nil {
		t.Fatal(err)
	}
	final, err := car.Close(ctx, cs.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := lot.Commit(ctx, final); err != nil || !r.Status {
		t.Fatalf("commit: %v %+v", err, r)
	}
	if r, err := car.Exit(ctx); err != nil || !r.Status {
		t.Fatalf("exit: %v %+v", err, r)
	}
	if err := svc.RunChallengePeriod(ctx); err != nil {
		t.Fatal(err)
	}
	if r, err := lot.Settle(ctx); err != nil || !r.Status {
		t.Fatalf("settle: %v %+v", err, r)
	}
	settled, err := svc.TemplateSettled(ctx)
	if err != nil || !settled {
		t.Fatalf("settled=%v err=%v", settled, err)
	}
}

// TestServiceReceiverInitiatedClose covers the close handshake started
// by the RECEIVER side while multiple peers' wire ids collide on the
// provider: final-state resolution must key on the opener the message
// names, not on the transmitting peer.
func TestServiceReceiverInitiatedClose(t *testing.T) {
	ctx := context.Background()
	svc, lot, err := tinyevm.NewService("lot")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerTemp(lot)

	// Two cars: both open their first channel (wire id 1) to the lot.
	cars := make([]*tinyevm.ServiceNode, 2)
	chans := make([]tinyevm.ChannelState, 2)
	for i := range cars {
		car, err := svc.AddNode(ctx, fmt.Sprintf("car-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		registerTemp(car)
		cars[i] = car
		cs, err := car.OpenChannel(ctx, lot.Address(), 10_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = cs
		if _, err := car.Pay(ctx, cs.ID, 111*uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}

	// The lot closes car-0's channel: receiver-initiated handshake.
	lotChans, err := lot.Channels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var lotHandle uint64
	for _, cs := range lotChans {
		if cs.Opener == cars[0].Address() {
			lotHandle = cs.ID
		}
	}
	fs, err := lot.Close(ctx, lotHandle)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Sender != cars[0].Address() || fs.Cumulative != 111 {
		t.Fatalf("wrong final state: %+v", fs)
	}
	if err := fs.VerifySignatures(); err != nil {
		t.Fatal(err)
	}
	// Car-0's side is closed; car-1's channel is untouched.
	cs0, _, err := cars[0].Channel(ctx, chans[0].ID)
	if err != nil || !cs0.Closed() {
		t.Fatalf("car-0 channel not closed: %v %+v", err, cs0)
	}
	cs1, _, err := cars[1].Channel(ctx, chans[1].ID)
	if err != nil || cs1.Closed() {
		t.Fatalf("car-1 channel wrongly closed: %v %+v", err, cs1)
	}
}

// TestServiceDeliveryFailure: when the locally-applied half of an
// operation succeeds but the counterparty rejects the dispatched
// message, the error wraps BOTH ErrDeliveryFailed and the remote cause,
// and the local artifact is still returned.
func TestServiceDeliveryFailure(t *testing.T) {
	ctx := context.Background()
	svc, lot, err := tinyevm.NewService("lot")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerTemp(lot)
	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	registerTemp(car)
	cs, err := car.OpenChannel(ctx, lot.Address(), 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := car.Pay(ctx, cs.ID, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := car.Close(ctx, cs.ID); err != nil {
		t.Fatal(err)
	}
	// Only the payer reopens; the receiver still considers the channel
	// closed and rejects the next payment.
	if err := car.Reopen(ctx, cs.ID); err != nil {
		t.Fatal(err)
	}
	pay, err := car.Pay(ctx, cs.ID, 100)
	if !errors.Is(err, tinyevm.ErrDeliveryFailed) {
		t.Fatalf("want ErrDeliveryFailed, got %v", err)
	}
	if !errors.Is(err, protocol.ErrChannelClosed) {
		t.Fatalf("cause not preserved: %v", err)
	}
	if pay == nil || pay.Seq != 2 {
		t.Fatalf("locally applied payment not returned: %+v", pay)
	}
}

// TestServiceRoutePaymentEvents: routed payments publish per-hop
// payment-received / claim-settled events even though the route
// exchange is consumed internally.
func TestServiceRoutePaymentEvents(t *testing.T) {
	ctx := context.Background()
	svc, hub, err := tinyevm.NewService("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerTemp(hub)
	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	registerTemp(car)
	station, err := svc.AddNode(ctx, "station")
	if err != nil {
		t.Fatal(err)
	}
	registerTemp(station)

	stationEvents := station.Subscribe(ctx)
	carEvents := car.Subscribe(ctx)

	carHub, err := car.OpenChannel(ctx, hub.Address(), 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	hubStation, err := hub.OpenChannel(ctx, station.Address(), 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	route := []tinyevm.RouteStep{
		{Node: "car", Channel: carHub.ID},
		{Node: "hub", Channel: hubStation.ID},
	}
	if _, err := svc.RoutePayment(ctx, route, "station", 50_000, 1_000); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	var gotPay, gotClaim bool
	for !(gotPay && gotClaim) {
		select {
		case e := <-stationEvents:
			if e.Type == tinyevm.EventPaymentReceived {
				gotPay = true
				if e.Amount != 50_000 {
					t.Fatalf("station hop amount %d", e.Amount)
				}
			}
		case e := <-carEvents:
			if e.Type == tinyevm.EventClaimSettled {
				gotClaim = true
			}
		case <-deadline:
			t.Fatalf("missing route events: pay=%v claim=%v", gotPay, gotClaim)
		}
	}
}
