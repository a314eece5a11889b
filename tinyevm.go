// Package tinyevm is a Go reproduction of "TinyEVM: Off-Chain Smart
// Contracts on Low-Power IoT Devices" (Profentzas, Almgren, Landsiedel —
// ICDCS 2020): a customized Ethereum Virtual Machine for
// resource-constrained IoT nodes plus an off-chain payment-channel
// protocol that settles on a main chain.
//
// The package is a service over the internal implementation:
//
//   - A Service wires a simulated main chain, a TSCH low-power radio
//     network and an on-chain template contract together.
//   - A ServiceNode is one IoT device: a CC2538-class MCU model with
//     Energest energy accounting, a hardware crypto engine, a
//     sensor/actuator bus and a TinyEVM executing standard EVM bytecode
//     extended with the IoT opcode 0x0C.
//   - Channels are opened by executing the factory template ON the
//     device, payments are ECDSA-signed off-chain messages with
//     logical-clock sequence numbers, and final states commit on-chain
//     into a Merkle-sum tree with a challenge period.
//
// Operations take a context.Context, are safe for concurrent use, and
// incoming wire messages dispatch automatically — the counterparty
// observes payments on its Subscribe stream:
//
//	svc, lot, _ := tinyevm.NewService("parking-lot")
//	defer svc.Close()
//	car, _ := svc.AddNode(ctx, "smart-car")
//	for _, n := range []*tinyevm.ServiceNode{lot, car} {
//		// channel constructors read this sensor via the IoT opcode
//		n.RegisterSensor(tinyevm.SensorTemperature, temp)
//	}
//	events := lot.Subscribe(ctx)
//	cs, _ := car.OpenChannel(ctx, lot.Address(), 10_000, 0)
//	car.Pay(ctx, cs.ID, 250)   // lot's stream sees payment-received
//	car.Close(ctx, cs.ID)      // full countersign handshake
//	for e := range events { ... }
//
// The JSON-RPC gateway in internal/rpc and the cmd/tinyevm-serve daemon
// expose the same surface over HTTP. See the examples directory for
// complete scenarios and cmd/benchtables for the evaluation harness
// that regenerates the paper's tables and figures.
package tinyevm

import (
	"tinyevm/internal/asm"
	"tinyevm/internal/chain"
	"tinyevm/internal/contracts"
	"tinyevm/internal/core"
	"tinyevm/internal/device"
	"tinyevm/internal/protocol"
	"tinyevm/internal/types"
)

// Core nouns, re-exported from the internal packages.
type (
	// Address is a 20-byte Ethereum-style address.
	Address = types.Address
	// Hash is a 32-byte Keccak-256 digest.
	Hash = types.Hash
	// ChannelState is a party's local view of an off-chain channel.
	ChannelState = protocol.ChannelState
	// Payment is one signed off-chain payment message.
	Payment = protocol.Payment
	// FinalState is a doubly-signed channel close.
	FinalState = protocol.FinalState
	// DeployResult describes an on-device contract deployment.
	DeployResult = device.DeployResult
	// CallResult describes an on-device contract call.
	CallResult = device.CallResult
	// EnergyReport is a Table IV style per-state energy breakdown.
	EnergyReport = device.EnergyReport
	// SensorFunc produces a sensor reading for the IoT opcode.
	SensorFunc = device.SensorFunc
	// Secret is a hash-lock preimage for conditional payments.
	Secret = protocol.Secret
	// SensorData is a batch of pushed sensor readings.
	SensorData = protocol.SensorData
	// SensorReading is one (sensor id, value) pair.
	SensorReading = protocol.SensorReading
	// Receipt is the result of one executed main-chain transaction.
	Receipt = chain.Receipt
	// AccountProof is a light-client-verifiable statement that one
	// account is committed under a block's MST state commitment
	// (Service.StateProof).
	AccountProof = chain.AccountProof
)

// Well-known sensor and actuator identifiers for the IoT opcode.
const (
	SensorTemperature = device.SensorTemperature
	SensorOccupancy   = device.SensorOccupancy
	SensorTime        = device.SensorTime
	SensorDistance    = device.SensorDistance
	SensorBattery     = device.SensorBattery
	ActuatorBarrier   = device.ActuatorBarrier
	ActuatorLED       = device.ActuatorLED
)

// PaymentChannelInitCode builds the paper's Listing 2 contract: a
// payment channel whose constructor stores both parties and a sensor
// reading taken through the IoT opcode.
func PaymentChannelInitCode(sender, receiver Address, sensorID, sensorParam uint64) []byte {
	return core.PaymentChannelInitCode(sender, receiver, sensorID, sensorParam)
}

// TemplateInitCode builds the paper's Listing 1 factory contract.
func TemplateInitCode(receiver Address) []byte {
	return core.TemplateInitCode(receiver)
}

// HexToAddress parses a 0x-prefixed 40-digit hex address.
func HexToAddress(s string) (Address, error) { return types.HexToAddress(s) }

// Assemble translates EVM assembly (mnemonics, labels, auto-sized PUSH,
// the SENSOR IoT opcode) into bytecode.
func Assemble(src string) ([]byte, error) { return asm.Assemble(src) }

// Disassemble renders bytecode one instruction per line.
func Disassemble(code []byte) string { return asm.Disassemble(code) }

// Selector returns the Solidity-compatible 4-byte selector of a function
// signature such as "close(uint256,bytes32,bytes32,uint8)".
func Selector(sig string) [4]byte { return contracts.Selector(sig) }

// Calldata builds selector-prefixed calldata from 32-byte word
// arguments (shorter words are right-aligned).
func Calldata(sig string, words ...[]byte) []byte { return contracts.Calldata(sig, words...) }

// WordToAddress extracts an address from a 32-byte ABI return word.
func WordToAddress(word []byte) Address { return contracts.WordToAddress(word) }

// NewSecret draws a random hash-lock preimage and returns it with its
// lock (keccak-256 of the preimage).
func NewSecret() (Secret, Hash, error) { return protocol.NewSecret() }
