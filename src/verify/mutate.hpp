/**
 * @file
 * Mutation injection for the verifier's own test oracle.
 *
 * Each MutationKind corrupts a valid CompiledProgram in a way that
 * violates exactly one compiled-program contract family (an off-edge
 * gate, a start time shifted out of its window, a dropped route SWAP,
 * a duplicated op, ...). The verify_fuzz harness and
 * tests/test_verifier.cpp apply every kind to every bundle's output
 * and assert ProgramVerifier flags each one — if a mutation ever
 * slips through, the verifier has a blind spot.
 *
 * Mutations are deterministic under a seeded Rng: same program, same
 * kind, same seed → same corrupted program, so fuzz failures replay.
 */

#ifndef QC_VERIFY_MUTATE_HPP
#define QC_VERIFY_MUTATE_HPP

#include "core/compiled_program.hpp"
#include "machine/machine.hpp"
#include "support/rng.hpp"

namespace qc {

/** One injectable violation class. */
enum class MutationKind {
    OffEdgeGate,     ///< retarget a 2q op off the coupling graph
    ShiftStartTime,  ///< push an op's start past the makespan
    DropSwap,        ///< delete one route SWAP (permutation breaks)
    DuplicateOp,     ///< replay one non-SWAP op a second time
    DropGate,        ///< delete one non-SWAP op (coverage breaks)
    RetargetMeasure, ///< point a measurement at the wrong clbit
    CorruptMakespan, ///< declare a makespan the ops don't produce
    CorruptLayout,   ///< make the initial layout non-injective
    StretchDuration, ///< give one op a duration off the model
};

/** Every kind, for exhaustive fuzz sweeps. */
inline constexpr MutationKind kAllMutationKinds[] = {
    MutationKind::OffEdgeGate,     MutationKind::ShiftStartTime,
    MutationKind::DropSwap,        MutationKind::DuplicateOp,
    MutationKind::DropGate,        MutationKind::RetargetMeasure,
    MutationKind::CorruptMakespan, MutationKind::CorruptLayout,
    MutationKind::StretchDuration,
};

/** Stable kebab-case name (CLI flag values, fuzz output). */
const char *mutationKindName(MutationKind kind);

/** Parse a kebab-case kind name; throws FatalError listing valid. */
MutationKind mutationKindFromName(const std::string &name);

/**
 * Corrupt `program` in place with one violation of class `kind`,
 * choosing the victim op with `rng`. Returns false (program
 * untouched) when the kind does not apply — e.g. DropSwap on a
 * SWAP-free program, or OffEdgeGate on a fully-connected machine.
 */
bool applyMutation(CompiledProgram &program, const Machine &machine,
                   MutationKind kind, Rng &rng);

} // namespace qc

#endif // QC_VERIFY_MUTATE_HPP
