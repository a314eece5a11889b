package tinyevm_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VI), exposed through `go test -bench`. The heavier
// experiments use reduced populations here; cmd/benchtables runs the
// full-scale versions (7,000 contracts, 200 rounds) and prints the
// paper-style artifacts.
//
//	go test -bench=. -benchmem
//	go run ./cmd/benchtables -all
//
// Custom metrics are reported with benchmark-standard units so the
// measured values (on the simulated device clock) appear next to the
// host-side ns/op numbers.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tinyevm"
	"tinyevm/internal/chain"
	"tinyevm/internal/cluster"
	"tinyevm/internal/consensus"
	"tinyevm/internal/core"
	"tinyevm/internal/corpus"
	"tinyevm/internal/device"
	"tinyevm/internal/engine"
	"tinyevm/internal/eval"
	"tinyevm/internal/evm"
	"tinyevm/internal/p2p"
	"tinyevm/internal/protocol"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// BenchmarkTableI_OpcodeCategories regenerates Table I (spec comparison)
// by introspecting the live opcode tables.
func BenchmarkTableI_OpcodeCategories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := eval.RunTableI()
		if t.Tiny.SmartContract != 21 {
			b.Fatal("Table I drifted")
		}
	}
}

// BenchmarkTableII_Fig3_Fig4_Deploy runs the corpus deployment
// experiment (Table II, Figures 3a-3c and 4) on a reduced population and
// reports the key measured values as custom metrics.
func BenchmarkTableII_Fig3_Fig4_Deploy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := eval.RunCorpus(context.Background(), 300, nil)
		b.ReportMetric(100*rep.SuccessRate(), "%deployable")
		b.ReportMetric(rep.TimeSummary.Mean, "ms-mean-deploy")
		b.ReportMetric(rep.StackSummary.Mean, "words-mean-SP")
	}
}

// BenchmarkTableIII_Footprint regenerates the Table III memory budget.
func BenchmarkTableIII_Footprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := eval.RunTableIII()
		if f.UsedRAM == 0 {
			b.Fatal("footprint empty")
		}
	}
	f := eval.RunTableIII()
	b.ReportMetric(float64(f.UsedRAM), "B-RAM-used")
}

// BenchmarkTableIV_Fig5_OffchainRound runs full off-chain rounds
// (Table IV / Figure 5) and reports the car-side energy and active time.
func BenchmarkTableIV_Fig5_OffchainRound(b *testing.B) {
	var lastEnergy, lastActive float64
	for i := 0; i < b.N; i++ {
		s, err := protocol.NewScenario(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		r, err := protocol.RunParkingRound(s, 10_000, 250, 300*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		lastEnergy = r.CarEnergy.TotalEnergyMJ
		lastActive = float64(r.ActiveTime.Microseconds()) / 1000
	}
	b.ReportMetric(lastEnergy, "mJ/round")
	b.ReportMetric(lastActive, "ms-active/round")
}

// BenchmarkTableV_CryptoOps measures the device crypto engine (Table V).
func BenchmarkTableV_CryptoOps(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		t := eval.RunTableV()
		total = t.Total()
	}
	b.ReportMetric(float64(total.Microseconds())/1000, "ms-crypto-round")
}

// BenchmarkPayment measures one off-chain payment end to end (the
// paper's 584 ms claim), on the simulated device clocks.
func BenchmarkPayment(b *testing.B) {
	s, err := protocol.NewScenario(7)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := s.Car.OpenChannel(s.Lot.Address(), 500_000_000, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Lot.AcceptChannel(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last time.Duration
	for i := 0; i < b.N; i++ {
		lat, err := protocol.PaymentLatency(s, cs.ID, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = lat
	}
	b.ReportMetric(float64(last.Microseconds())/1000, "ms-device-latency")
}

// BenchmarkDeploy4KBContract measures deploying one representative 4 KB
// contract (the corpus mean) — the unit behind Figure 4.
func BenchmarkDeploy4KBContract(b *testing.B) {
	params := corpus.DefaultParams(64)
	contracts := corpus.Generate(params)
	// Pick the contract closest to 4 KB.
	best := contracts[0]
	for _, c := range contracts {
		if diff(len(c.InitCode), 4096) < diff(len(best.InitCode), 4096) {
			best = c
		}
	}
	dev := device.New("bench-deploy")
	b.ResetTimer()
	var last time.Duration
	for i := 0; i < b.N; i++ {
		dev.ResetMeasurement()
		res := dev.Deploy(best.InitCode, 0)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		last = res.Time
	}
	b.ReportMetric(float64(last.Microseconds())/1000, "ms-device-time")
	b.ReportMetric(float64(len(best.InitCode)), "B-contract")
}

// BenchmarkAblationWordWidth runs the word-width ablation.
func BenchmarkAblationWordWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.RunWordWidthAblation()
		if len(rows) != 3 {
			b.Fatal("ablation broken")
		}
	}
}

// BenchmarkEVMTransferCall measures the raw interpreter on a minimal
// value-return contract (host-side performance of the VM itself).
func BenchmarkEVMTransferCall(b *testing.B) {
	sys, node, err := core.NewSystem(core.DefaultConfig(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	_ = sys
	code, err := tinyevm.Assemble(`
		PUSH1 0x2a
		PUSH1 0x00
		MSTORE
		PUSH1 0x20
		PUSH1 0x00
		RETURN
	`)
	if err != nil {
		b.Fatal(err)
	}
	// The constructor is 12 bytes, so the 10-byte runtime starts at
	// offset 0x0c.
	init, err := tinyevm.Assemble(`
		PUSH1 0x0a
		PUSH1 0x0c
		PUSH1 0x00
		CODECOPY
		PUSH1 0x0a
		PUSH1 0x00
		RETURN
	`)
	if err != nil {
		b.Fatal(err)
	}
	init = append(init, code...)
	res := node.DeployContract(init)
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := node.CallContract(res.Address, nil, 0)
		if out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}

// BenchmarkInterpreterThroughput measures raw interpreter steps/sec —
// the figure behind the §III-C "hundreds of MCU cycles per opcode"
// discussion — across three workloads: the historical tight arithmetic
// loop, the ERC-20 transfer hot path (dispatch + three storage slots),
// and the single-slot counter increment. Each variant warms the
// per-code-hash execution counter past the tier-1 promotion threshold
// before the timed loop, so the steady state measured is the fused
// basic-block interpreter (set TINYEVM_FUSION=off to measure tier-0).
// Under TINYEVM_PROFILE_OPS (the benchreport -profile-ops flag),
// per-opcode and per-superinstruction hit counts are reported as custom
// metrics.
func BenchmarkInterpreterThroughput(b *testing.B) {
	arith, err := tinyevm.Assemble(`
		PUSH2 0x0200
		:loop JUMPDEST
		PUSH1 1
		SWAP1
		SUB
		DUP1
		ISZERO
		PUSH :done
		JUMPI
		PUSH :loop
		JUMP
		:done JUMPDEST
		STOP
	`)
	if err != nil {
		b.Fatal(err)
	}
	runtimes := eval.WorkloadRuntimes()
	caller, _ := tinyevm.HexToAddress("0x00000000000000000000000000000000000000bb")
	recipient := make([]byte, 32)
	recipient[31] = 0x42
	amount := make([]byte, 32)
	amount[31] = 1
	transferData := eval.CallData(eval.Selector("transfer(address,uint256)"),
		[32]byte(recipient), [32]byte(amount))

	variants := []struct {
		name  string
		code  []byte
		input []byte
		// seed prepares contract storage (ModeTiny truncates storage
		// keys to their low byte, so seeds must use truncated slots).
		seed func(st *evm.MemState, contract types.Address)
	}{
		{name: "arith", code: arith},
		{name: "erc20", code: runtimes["erc20"], input: transferData,
			seed: func(st *evm.MemState, contract types.Address) {
				// Fund the caller's balance slot (keyed by address, low
				// byte 0xbb under 8-bit tiny keys) so transfers succeed.
				st.SetState(contract, uint256.NewInt(uint64(caller[19])), uint256.NewInt(1<<40))
			}},
		{name: "counter", code: runtimes["inccounter"]},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			state := evm.NewMemState()
			addr, _ := tinyevm.HexToAddress("0x00000000000000000000000000000000000000aa")
			state.SetCode(addr, v.code)
			if v.seed != nil {
				v.seed(state, addr)
			}
			vm := evm.New(evm.TinyConfig(), state)
			// Warm past the tier-1 promotion threshold so b.N measures
			// the steady state, not the tier transition.
			for i := 0; i < 8; i++ {
				if res := vm.Call(caller, addr, v.input, uint256.NewInt(0), 0); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			evm.ResetOpProfile()
			b.ReportAllocs()
			b.ResetTimer()
			steps := uint64(0)
			for i := 0; i < b.N; i++ {
				res := vm.Call(caller, addr, v.input, uint256.NewInt(0), 0)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				steps += res.Stats.Steps
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
			if evm.OpProfileEnabled() {
				for name, hits := range evm.OpProfile() {
					b.ReportMetric(float64(hits)/float64(b.N), name+"/op")
				}
			}
		})
	}
}

// BenchmarkSnapshotRevert measures the journaled snapshot machinery on
// deep call trees with reverts — the cost that used to be a full
// deep-copy of the account map on EVERY call frame and is now
// O(writes-since-snapshot).
//
// calltree: a contract that writes one slot per frame and calls itself
// recursively; the innermost frame REVERTs, so every execution
// exercises nested Snapshot + one revert + depth discards, over a
// populated state (512 accounts) that the old implementation copied
// per frame.
//
// memstate: the raw MemState discipline without the interpreter —
// nested snapshots, K writes per level, half reverted half discarded.
func BenchmarkSnapshotRevert(b *testing.B) {
	populate := func() *evm.MemState {
		state := evm.NewMemState()
		for i := 0; i < 512; i++ {
			var a tinyevm.Address
			a[0], a[18], a[19] = 0x51, byte(i>>8), byte(i)
			state.AddBalance(a, uint256.NewInt(uint64(1000+i)))
			state.SetState(a, uint256.NewInt(1), uint256.NewInt(uint64(i)))
		}
		return state
	}

	b.Run("calltree", func(b *testing.B) {
		code, err := tinyevm.Assemble(`
			PUSH1 0x00
			CALLDATALOAD
			DUP1
			ISZERO
			PUSH :leaf
			JUMPI
			DUP1
			DUP1
			SSTORE
			PUSH1 0x01
			SWAP1
			SUB
			PUSH1 0x00
			MSTORE
			PUSH1 0x00
			PUSH1 0x00
			PUSH1 0x20
			PUSH1 0x00
			PUSH1 0x00
			ADDRESS
			PUSH2 0xffff
			CALL
			POP
			STOP
			:leaf JUMPDEST
			POP
			PUSH1 0x2a
			PUSH1 0x01
			SSTORE
			PUSH1 0x00
			PUSH1 0x00
			REVERT
		`)
		if err != nil {
			b.Fatal(err)
		}
		state := populate()
		addr, _ := tinyevm.HexToAddress("0x00000000000000000000000000000000000000aa")
		state.SetCode(addr, code)
		vm := evm.New(evm.TinyConfig(), state)
		caller, _ := tinyevm.HexToAddress("0x00000000000000000000000000000000000000bb")
		depth := make([]byte, 32)
		depth[31] = 12
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := vm.Call(caller, addr, depth, uint256.NewInt(0), 0)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})

	b.Run("memstate", func(b *testing.B) {
		state := populate()
		var hot tinyevm.Address
		hot[19] = 0x51
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids := make([]int, 0, 12)
			for d := 0; d < 12; d++ {
				ids = append(ids, state.Snapshot())
				state.AddBalance(hot, uint256.NewInt(1))
				state.SetState(hot, uint256.NewInt(uint64(d)), uint256.NewInt(uint64(i+1)))
			}
			// Discard the odd levels first — non-topmost discards, the
			// case the old implementation leaked — then revert the even
			// levels outward.
			for d := 1; d < 12; d += 2 {
				state.DiscardSnapshot(ids[d])
			}
			for d := 10; d >= 0; d -= 2 {
				state.RevertToSnapshot(ids[d])
			}
		}
	})
}

// BenchmarkEngineMineBlock compares serial block production against the
// parallel off-chain execution engine at 1, 4 and 16 workers on the
// canonical multi-device workload (64 devices x 8 txs, 5% hot-contract
// traffic). Receipts are byte-identical across all configurations by
// construction (see internal/engine tests); this measures throughput.
// Speedup over serial requires multiple CPU cores — on a single-core
// host all configurations converge.
func BenchmarkEngineMineBlock(b *testing.B) {
	workload, err := eval.BuildEngineWorkload(eval.DefaultEngineWorkload())
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		var txs float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, err := workload.NewChain()
			if err != nil {
				b.Fatal(err)
			}
			var receipts []*chain.Receipt
			if workers == 0 {
				for _, tx := range workload.Batch() {
					if err := c.Submit(tx); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				receipts = c.MineBlock()
			} else {
				eng := engine.New(c, engine.Options{Workers: workers})
				for _, tx := range workload.Batch() {
					if err := eng.Submit(tx); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				receipts = eng.MineBlock()
			}
			txs += float64(len(receipts))
		}
		b.ReportMetric(txs/b.Elapsed().Seconds(), "tx/s")
	}

	b.Run("serial", func(b *testing.B) { run(b, 0) })
	b.Run("workers-1", func(b *testing.B) { run(b, 1) })
	b.Run("workers-4", func(b *testing.B) { run(b, 4) })
	b.Run("workers-16", func(b *testing.B) { run(b, 16) })
}

func diff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// BenchmarkClusterGossipThroughput measures sidechain replication over
// the in-process transport: a single validator seals blocks of signed
// transfers and two follower replicas verify-and-apply every block off
// the gossip stream. One iteration is one transaction landed on ALL
// replicas; tx/s is the end-to-end replication rate.
func BenchmarkClusterGossipThroughput(b *testing.B) {
	const txPerBlock = 64
	net := p2p.NewMemNetwork()
	val := secp256k1.DeterministicKey("bench-cluster-val")
	sender := secp256k1.DeterministicKey("bench-cluster-sender")
	mk := func(i int, key *secp256k1.PrivateKey, peers []string) *cluster.Node {
		eng, err := consensus.NewRoundRobin([]types.Address{val.Address()}, 0)
		if err != nil {
			b.Fatal(err)
		}
		c := chain.New()
		c.Fund(sender.Address(), 1<<62)
		n, err := cluster.New(cluster.Config{
			Chain:         c,
			Engine:        eng,
			Key:           key,
			Transport:     net,
			Listen:        fmt.Sprintf("bench-cluster-%d", i),
			Peers:         peers,
			StrictDigests: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := n.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { n.Close() })
		return n
	}
	leader := mk(0, val, nil)
	followers := []*cluster.Node{
		mk(1, secp256k1.DeterministicKey("bench-cluster-f1"), []string{"bench-cluster-0"}),
		mk(2, secp256k1.DeterministicKey("bench-cluster-f2"), []string{"bench-cluster-0"}),
	}
	waitHeight := func(h uint64) {
		deadline := time.Now().Add(30 * time.Second)
		for _, f := range followers {
			for f.Status().Height < h {
				if time.Now().After(deadline) {
					b.Fatalf("follower stuck at %d, want %d", f.Status().Height, h)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	to := types.Address{0xbe, 0xef}

	b.ResetTimer()
	nonce := uint64(0)
	for done := 0; done < b.N; {
		batch := txPerBlock
		if rem := b.N - done; rem < batch {
			batch = rem
		}
		for i := 0; i < batch; i++ {
			tx := chain.NewTx(nonce, &to, 1, nil)
			if err := tx.Sign(sender); err != nil {
				b.Fatal(err)
			}
			if err := leader.SubmitTx(tx); err != nil {
				b.Fatal(err)
			}
			nonce++
		}
		if _, err := leader.ProduceBlock(); err != nil {
			b.Fatal(err)
		}
		done += batch
	}
	head := leader.Status().Height
	waitHeight(head)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
	b.ReportMetric(float64(head), "blocks")
}
