package main

// Calibration probes for the layers the benchmark cannot wrap from
// outside: each times the layer's public functions on the workload's
// own keys, digests, contracts and tree size. Multiplied by a per-op
// count from device accounting they give an estimate, never a
// measurement, of the layer's share.

import (
	"context"
	"fmt"
	"time"

	"tinyevm"
	"tinyevm/internal/chain"
	"tinyevm/internal/contracts"
	"tinyevm/internal/device"
	"tinyevm/internal/keccak"
	"tinyevm/internal/mst"
	"tinyevm/internal/protocol"
	"tinyevm/internal/rpc"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
)

// probes are per-call costs.
type probes struct {
	signUs, recoverUs float64
	keccakNs          float64
	registerUs        float64
	templateCommitUs  float64
	mstUpdateUs       float64
	emptySealMs       float64
}

// probeReps is how many calls each probe times; the median is kept.
const probeReps = 15

// timeEach returns the median duration of reps calls of fn(i).
func timeEach(reps int, fn func(i int) error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	return medianDuration(ds), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// runProbes times the primitive layers for a workload whose payer is
// vehicle and whose chain state holds accounts accounts. seal seals one
// empty block on the workload's own deployment and returns how long the
// seal itself took.
func runProbes(vehicle string, accounts int, seal func() (time.Duration, error)) (probes, error) {
	var p probes
	payer := device.New(vehicle)
	provider := device.New(providerName)
	digest := types.Hash(keccak.Sum256([]byte(vehicle)))

	// secp256k1: sign and recover with the payer's device key.
	var sig *secp256k1.Signature
	d, err := timeEach(probeReps, func(i int) error {
		var err error
		sig, err = payer.Key().Sign(digest)
		return err
	})
	if err != nil {
		return p, err
	}
	p.signUs = us(d)
	d, err = timeEach(probeReps, func(int) error {
		a, err := secp256k1.RecoverAddress(digest, sig)
		if err == nil && a != payer.Address() {
			err = fmt.Errorf("probe: recovered %s, want %s", a, payer.Address())
		}
		return err
	})
	if err != nil {
		return p, err
	}
	p.recoverUs = us(d)

	// keccak: a 32-byte digest, the size payments and logs hash, timed
	// in batches so the clock's resolution does not dominate.
	const batch = 256
	h := digest
	d, err = timeEach(probeReps, func(int) error {
		for j := 0; j < batch; j++ {
			h = keccak.Sum256(h[:])
		}
		return nil
	})
	if err != nil {
		return p, err
	}
	p.keccakNs = float64(d) / batch

	// evm: register(seq, cumulative) on a payment channel the payer's
	// device deploys, as every payment does.
	payer.Sensors.RegisterValue(device.SensorTemperature, rpc.DefaultSensorValue)
	dep := payer.Deploy(contracts.PaymentChannelInitCode(payer.Address(), provider.Address(), device.SensorTemperature, 0), 0)
	if dep.Err != nil {
		return p, fmt.Errorf("probe: deploy channel: %w", dep.Err)
	}
	d, err = timeEach(probeReps, func(i int) error {
		return payer.Call(dep.Address, contracts.RegisterCalldata(uint64(i+1), uint64(i+1)), 0).Err
	})
	if err != nil {
		return p, err
	}
	p.registerUs = us(d)

	// Template commit: the on-chain template verifying and recording a
	// doubly signed final state from the payer to the provider.
	c := chain.New()
	tpl := protocol.InstallTemplate(c, provider.Address(), challengePeriod)
	if _, err := tpl.Run(c, payer.Address(), templateDeposit, protocol.DepositTx()); err != nil {
		return p, err
	}
	finals := make([][]byte, probeReps)
	for i := range finals {
		fs := &protocol.FinalState{
			Template: tpl.Addr, Channel: dep.Address, Sender: payer.Address(), Receiver: provider.Address(),
			ChannelID: uint64(i + 1), Seq: 4, Cumulative: 8,
		}
		if fs.SigSender, err = payer.Key().Sign(fs.Digest()); err != nil {
			return p, err
		}
		if fs.SigReceiver, err = provider.Key().Sign(fs.Digest()); err != nil {
			return p, err
		}
		finals[i] = protocol.CommitTx(fs)
	}
	d, err = timeEach(probeReps, func(i int) error {
		_, err := tpl.Run(c, payer.Address(), 0, finals[i])
		return err
	})
	if err != nil {
		return p, err
	}
	p.templateCommitUs = us(d)

	// mst: updating one account of a tree the size of the chain state.
	m := mst.NewMap()
	keys := make([][]byte, max(accounts, 1))
	for i := range keys {
		a := types.Hash(keccak.Sum256([]byte(fmt.Sprintf("%s/%d", vehicle, i))))
		keys[i] = a[:20]
		m.Update(keys[i], a, uint64(i))
	}
	d, err = timeEach(probeReps, func(i int) error {
		k := keys[i%len(keys)]
		m.Update(k, types.Hash(keccak.Sum256(k)), uint64(i))
		m.Root()
		return nil
	})
	if err != nil {
		return p, err
	}
	p.mstUpdateUs = us(d)

	seals := make([]time.Duration, probeReps)
	for i := range seals {
		if seals[i], err = seal(); err != nil {
			return p, fmt.Errorf("probe: empty seal: %w", err)
		}
	}
	p.emptySealMs = float64(medianDuration(seals)) / 1e6
	return p, nil
}

// emptySeal seals one empty block on a standalone deployment.
func emptySeal(ctx context.Context, svc *tinyevm.Service) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		err := svc.MineBlock(ctx)
		return time.Since(start), err
	}
}
