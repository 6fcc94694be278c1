/**
 * @file
 * SABRE-style iterative placement refinement (Li, Ding & Xie,
 * ASPLOS'19), adapted to the paper's noise-adaptive cost model.
 *
 * The paper's heuristics fix a placement once and route forward; this
 * pass instead *searches* for the initial layout: starting from a
 * greedy (or trivial) seed it routes the circuit forward with a
 * SABRE-style SWAP search, then routes the *reversed* circuit from the
 * drifted final layout — whose final layout is, by symmetry, an
 * initial layout tuned to the circuit's early gates — and iterates
 * that round trip, keeping the best candidate by predicted success
 * probability under the live-tracking router. Because the seed layout
 * is itself a candidate, the result never scores worse than the seed.
 *
 * The SWAP search scores each candidate exchange with a topology-hop
 * term over the front layer of the CNOT dependency DAG, a decayed
 * lookahead window over the CNOTs behind it, and a calibration
 * reliability term that steers movement off error-prone edges. All
 * tie-breaking is drawn from a seeded Rng stream, so the refinement is
 * fully deterministic (and therefore cacheable by the service's
 * fingerprint-keyed compile cache).
 *
 * Works on any Topology (grid, heavy-hex, ring, edge-list): the
 * search only consumes hop distances, coupling edges and calibration
 * tables. passes::sabrePlacement() (core/passes.hpp) runs it as a
 * pipeline placement stage.
 */

#ifndef QC_MAPPERS_SABRE_MAPPER_HPP
#define QC_MAPPERS_SABRE_MAPPER_HPP

#include <cstdint>
#include <vector>

#include "ir/circuit.hpp"
#include "machine/machine.hpp"

namespace qc {

/** Default refinement round trips (SabreOptions::iterations). */
inline constexpr int kDefaultSabreIterations = 3;

/** Default lookahead window in CNOTs (SabreOptions::lookahead). */
inline constexpr int kDefaultSabreLookahead = 20;

/** SABRE refinement knobs. */
struct SabreOptions
{
    /** Forward+backward round trips over the circuit (>= 0). */
    int iterations = kDefaultSabreIterations;

    /**
     * Size of the lookahead window: how many pending CNOTs beyond the
     * front layer contribute to a SWAP's score (>= 0; 0 = front layer
     * only).
     */
    int lookahead = kDefaultSabreLookahead;

    /** Weight of the (normalized) lookahead term in the SWAP score. */
    double lookaheadWeight = 0.5;

    /** Per-rank geometric decay inside the lookahead window. */
    double decay = 0.7;

    /**
     * Weight of the -log(swap-edge reliability) term: larger values
     * route movement around error-prone couplings at the cost of
     * extra hops.
     */
    double reliabilityWeight = 0.05;

    /** Seed of the deterministic tie-break stream. */
    std::uint64_t seed = 20190131;

    /**
     * true  = seed round 0 with the GreedyE* placement (Sec. 5.2),
     * false = seed with the trivial lexicographic layout.
     */
    bool greedySeed = true;
};

/** Outcome of the refinement search (layout + its own score). */
struct SabrePlacementResult
{
    std::vector<HwQubit> layout;   ///< best initial placement found
    double predictedSuccess = 0.0; ///< its tracking-router prediction
    int roundTrips = 0;            ///< refinement iterations performed
};

/**
 * Run the full refinement search. Throws FatalError when the program
 * does not fit the machine (the shared placement contract).
 */
SabrePlacementResult sabrePlacementDetailed(const Machine &machine,
                                            const Circuit &prog,
                                            const SabreOptions &options
                                            = {});

} // namespace qc

#endif // QC_MAPPERS_SABRE_MAPPER_HPP
