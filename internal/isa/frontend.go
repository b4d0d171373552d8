package isa

import (
	"fmt"
	"sort"
	"sync"
)

// Frontend is a pluggable source ISA: it generates, mutates and splices
// source-level programs, and lowers them to the µop Program that the
// functional emulator (package emu), the contract models and the
// out-of-order simulator (package uarch) execute. The fuzzing pipeline past
// generation — contract-trace collection, µarch execution, trace compare,
// validation — is frontend-independent: it only ever sees lowered µops, so
// a new frontend pays an interface dispatch at generation time and nothing
// on the per-test-case hot path.
//
// Determinism contract: Generate, Mutate and Splice must draw every random
// decision from the RNG passed in, in a deterministic order — a work unit's
// source program then depends only on the unit's seeded stream (plus the
// frozen corpus entries a strategy hands to Mutate/Splice), which is what
// keeps engine campaigns bit-identical at any worker count. Lower must be a
// pure function of the source program.
type Frontend interface {
	// Name identifies the frontend in flags, reports, checkpoint headers
	// and quarantine bundles ("toy", "wasm").
	Name() string

	// Generate produces one random source program from rng.
	Generate(rng RNG, p GenParams) SourceProgram

	// Mutate derives a point-mutated variant of src (which it must not
	// modify). Implementations fall back to Generate when a mutation chain
	// produces an invalid program, keeping the draw stream deterministic.
	Mutate(rng RNG, p GenParams, src SourceProgram) SourceProgram

	// Splice crosses two source programs into offspring bounded by the
	// configured program-length limits. Neither input may be modified.
	Splice(rng RNG, p GenParams, a, b SourceProgram) SourceProgram

	// Lower translates a source program to the µop Program executed by
	// uarch, contract and emu. It must be pure; for register frontends it
	// may be the identity.
	Lower(src SourceProgram) *Program

	// EncodeProgram and DecodeProgram serialize source programs for
	// checkpoints and repro bundles.
	EncodeProgram(src SourceProgram) ([]byte, error)
	DecodeProgram(data []byte) (SourceProgram, error)
}

// SourceProgram is one frontend-level test program. The concrete type is
// frontend-specific (*Program for the toy frontend, *wasm.Program for the
// stack frontend); the pipeline stores and serializes it through this
// interface and obtains executable µops via Frontend.Lower.
type SourceProgram interface {
	// FrontendName names the owning frontend (matches Frontend.Name).
	FrontendName() string
	// Len returns the source-level instruction count.
	Len() int
	// String renders the source-level disassembly.
	String() string
	// Validate checks source-level well-formedness.
	Validate() error
	// CloneSource returns a deep copy.
	CloneSource() SourceProgram
}

// RNG is the deterministic random stream frontends draw from. The
// generator's seeded counter-based splitmix64 stream implements it.
type RNG interface {
	Intn(n int) int
	Uint64() uint64
	Float64() float64
	Read(p []byte)
	Perm(n int) []int
}

// GenParams are the frontend-independent generation knobs, resolved from
// generator.Config. Frontends map the instruction-mix weights onto their
// own instruction classes (the toy frontend literally; the wasm frontend
// onto stack-op classes) so one campaign configuration drives any frontend.
type GenParams struct {
	MinInsts  int // minimum source instructions per program
	MaxInsts  int // maximum source instructions per program
	MaxBlocks int // maximum basic blocks

	// Sandbox is the memory sandbox programs are generated for; address
	// immediates are drawn inside it.
	Sandbox Sandbox

	// Instruction-mix weights (need not sum to anything particular).
	WeightALU   int
	WeightLoad  int
	WeightStore int
	WeightCmp   int
	WeightCmov  int
	WeightFence int

	// ChainBias is the probability that a memory access consumes the most
	// recently loaded value as its address — the "encode a loaded value in
	// an address" pattern every cache side channel needs.
	ChainBias float64
}

// The frontend registry. Frontends self-register from package init (the toy
// frontend below; importing internal/isa/wasm registers the stack
// frontend), so checkpoint decoding and flag parsing resolve frontends by
// the name persisted in headers and bundles.
var (
	frontendMu  sync.RWMutex
	frontendMap = map[string]Frontend{}
)

// RegisterFrontend adds a frontend to the registry. It panics on a
// duplicate name: two frontends answering to one name would make persisted
// program records ambiguous.
func RegisterFrontend(f Frontend) {
	frontendMu.Lock()
	defer frontendMu.Unlock()
	name := f.Name()
	if _, dup := frontendMap[name]; dup {
		panic(fmt.Sprintf("isa: duplicate frontend %q", name))
	}
	frontendMap[name] = f
}

// FrontendByName resolves a registered frontend.
func FrontendByName(name string) (Frontend, error) {
	frontendMu.RLock()
	defer frontendMu.RUnlock()
	f, ok := frontendMap[name]
	if !ok {
		return nil, fmt.Errorf("isa: unknown frontend %q (registered: %v)", name, frontendNamesLocked())
	}
	return f, nil
}

// FrontendNames lists the registered frontends, sorted.
func FrontendNames() []string {
	frontendMu.RLock()
	defer frontendMu.RUnlock()
	return frontendNamesLocked()
}

func frontendNamesLocked() []string {
	names := make([]string, 0, len(frontendMap))
	for name := range frontendMap {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
