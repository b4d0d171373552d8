// Package amulet is AMuLeT-Go: a from-scratch Go reproduction of
// "AMuLeT: Automated Design-Time Testing of Secure Speculation
// Countermeasures" (ASPLOS 2025).
//
// AMuLeT applies model-based relational testing to micro-architectural
// simulators: it generates random test programs and contract-equivalent
// input pairs, runs them on a functional leakage model and on a simulated
// out-of-order CPU with a secure-speculation countermeasure attached, and
// flags any pair whose micro-architectural traces differ even though the
// contract says they must be indistinguishable.
//
// The repository contains the complete stack the paper's artifact relies
// on, re-implemented in Go with only the standard library: an ISA and
// functional emulator (the Unicorn stand-in), leakage contracts (CT-SEQ,
// CT-COND, ARCH-SEQ), a cycle-driven out-of-order core with caches, MSHRs,
// TLB and predictors (the gem5 stand-in), the four countermeasures the
// paper tests — InvisiSpec, CleanupSpec, STT and SpecLFB, each with the
// implementation bugs the paper discovered and patch switches — and the
// fuzzer, analysis and experiment layers on top.
//
// # Cache priming between test cases (executor.PrimeMode)
//
// Before every test case the executor re-establishes a canonical
// memory-system state; which one is part of each defense's campaign
// configuration (paper §3.2 C2 and §3.5):
//
//   - PrimeFill simulates a fill request for every L1D set × way with
//     conflicting out-of-sandbox addresses, so leaks show through installs
//     AND evictions; the priming pages displace the D-TLB the same way.
//     InvisiSpec and STT campaigns use it — the extra simulated requests
//     are why those campaigns run slower than CleanupSpec/SpecLFB
//     (Table 4).
//   - PrimeInvalidate resets L1D, L1I and D-TLB through a direct simulator
//     hook, starting every case from a clean state (CleanupSpec, SpecLFB).
//   - PrimeNone leaves all state from the previous case (ablations only).
//
// Neither mode touches the L2: as in the paper's setup, the L2 stays warm
// across the inputs of a program, so the first input of a program runs
// with a cold L2 and later inputs see realistic hit latencies; the fill
// prime drops its own lines' L2 copies again so only sandbox lines stay.
//
// Both modes are implemented once, in mem.Hierarchy (PrimeL1D and
// PrimeInvalidate), shared by the executor and the gadget tests. By
// default the hierarchy's dirty-set tracking makes the prime incremental —
// only the sets, TLB entries and transient structures the previous case
// dirtied are re-primed, bit-identical to the full prime (pinned by
// TestViolationSetDeterminism and the mem prime tests);
// executor.Config.FullPrime forces the reference full prime.
//
// # Pipeline scheduling
//
// The out-of-order core has one pipeline scheduler: every cycle,
// writeback and issue walk the ROB oldest first, and the store-queue
// search, memory-order check and speculation shadow derive their answers
// from the same window. Three bit-identical accelerations keep the walks
// cheap at the paper's 64-entry ROB. A writeback watermark skips cycles
// in which nothing can complete. An issue scoreboard (a completion bitmask
// plus a list of unissued ROB slots) lets issue visit only dispatched
// entries and test readiness with two word ANDs; it needs 2*ROBSize <= 128,
// so larger windows run the plain walk. Quiescent-span skipping
// (uarch/quiescent.go) jumps the cycle counter over spans in which no
// stage can act. uarch.Config.NoScoreboard and NoCycleSkip pin the
// reference paths; TestScoreboardBitIdentity, TestQuiescentSkipBitIdentity
// and the determinism suite's goldens prove them identical.
//
// Entry points:
//
//   - cmd/amulet: run campaigns and regenerate the paper's tables
//   - cmd/amulet-trace: run one test case under the microscope
//   - examples/: runnable walkthroughs of the paper's case studies
//   - bench_test.go: one benchmark per evaluation table/figure
//
// See README.md.
package amulet
