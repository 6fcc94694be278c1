/**
 * @file
 * Exact branch-and-bound searches over injective placements that give
 * the SMT solves their warm starts.
 *
 * BnbPlacer optimizes the placement subproblem of the reliability
 * objective (Eq. 12). Given the decomposition of the objective into
 * per-qubit readout terms and per-ordered-pair CNOT terms (with
 * best-junction EC), the placement problem is a quadratic assignment
 * problem. The search explores placements depth-first with an
 * admissible upper bound. R-SMT* pins its optimum, the ablation
 * benches use it as a fast exact placer, and the test suite
 * cross-validates it against brute force.
 *
 * MakespanBoundSearch minimizes the dependency-DAG critical path over
 * placements, with each CNOT at the fastest route for its placed pair
 * and every other gate at its fixed duration. That drops only route
 * non-overlap (constraints 7-9) and the coherence windows (4-6) from
 * the duration model, so its optimum is a lower bound on the makespan
 * T-SMT and T-SMT* can reach, and often the makespan itself.
 */

#ifndef QC_SOLVER_BNB_PLACER_HPP
#define QC_SOLVER_BNB_PLACER_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/circuit.hpp"
#include "ir/dag.hpp"
#include "machine/machine.hpp"
#include "solver/objective.hpp"

namespace qc {

/** Branch-and-bound controls. */
struct BnbOptions
{
    double readoutWeight = kDefaultReadoutWeight; ///< Eq. 12's omega
    std::int64_t nodeLimit = 50'000'000; ///< search-node safety cap
};

/** Result of a branch-and-bound solve. */
struct BnbResult
{
    std::vector<HwQubit> layout; ///< program qubit -> hardware qubit
    double objective = 0.0;      ///< Eq. 12 value of the layout
    std::int64_t nodesExplored = 0;
    bool optimal = false;        ///< false iff the node limit tripped
};

/**
 * Exact placement search.
 *
 * Maximizes w * sum(readout log) + (1-w) * sum(CNOT log EC_best) over
 * injective placements. Qubits are branched in a connectivity-aware
 * order; candidate locations are tried in decreasing immediate-gain
 * order; subtrees are pruned with an admissible bound combining the
 * best free readout location per unplaced qubit and the best feasible
 * EC per undetermined CNOT pair.
 */
class BnbPlacer
{
  public:
    BnbPlacer(const Machine &machine, const Circuit &prog,
              BnbOptions options = {});

    BnbResult solve();

  private:
    /** One ordered CNOT term of the decomposed objective. */
    struct Term
    {
        ProgQubit control;
        ProgQubit target;
        int weight;
    };

    double readoutGain(ProgQubit q, HwQubit h) const;
    double edgeGain(HwQubit hc, HwQubit ht) const;

    const Machine &machine_;
    const Circuit &prog_;
    BnbOptions options_;

    int numProg_;
    int numHw_;
    std::vector<int> readouts_;           ///< per program qubit
    std::vector<std::vector<double>> logEc_; ///< best-junction log EC
    std::vector<double> logRo_;           ///< per hw qubit log readout

    // Branching order and per-level adjacency to earlier levels.
    std::vector<ProgQubit> order_;
    struct LevelEdge { int earlierLevel; int weight; bool asControl; };
    std::vector<std::vector<LevelEdge>> levelEdges_;
    std::vector<Term> terms_; ///< ordered CNOT objective terms

    // Search state.
    std::vector<HwQubit> assign_;
    std::vector<bool> used_;
    std::vector<HwQubit> best_;
    double bestObj_ = 0.0;
    std::int64_t nodes_ = 0;
    bool hitLimit_ = false;

    void dfs(int level, double value);
    double bound(int level) const;
};

/**
 * Work budget of one MakespanBoundSearch, in gate visits (one bound
 * evaluation visits every gate once). Deterministic, so a search that
 * completes on one machine completes on every machine; it caps a
 * search at a few tens of milliseconds, the order of the Z3 model
 * build it precedes.
 */
inline constexpr std::int64_t kMakespanBoundWork = 1 << 24;

/** Result of a makespan lower-bound search. */
struct MakespanBoundResult
{
    /** Best placement found: a relaxation argmin when optimal. */
    std::vector<HwQubit> layout;
    /**
     * Valid lower bound on the relaxed (hence the full) makespan: the
     * relaxation optimum when optimal, else the bound of the empty
     * placement (every CNOT at the fastest pair of the machine).
     */
    Timeslot lowerBound = 0;
    bool optimal = false; ///< false iff the work budget tripped
};

/**
 * Placement-aware makespan lower bound for the duration objective.
 *
 * Minimizes the critical path of the dependency DAG over injective
 * placements of the program's CNOT-carrying qubits, where a CNOT with
 * control on c and target on t takes cnotDuration[c * numHw + t] and
 * every other gate takes its fixed duration. A partial placement is
 * bounded by giving each CNOT
 *  - its exact pair duration when both qubits are placed,
 *  - the fastest pair to a free partner when one is placed,
 *  - the fastest pair of the machine when neither is,
 * which never overestimates any completion. Children are tried in
 * increasing bound order and pruned against the incumbent; the search
 * allocates nothing after solve() sizes its buffers.
 */
class MakespanBoundSearch
{
  public:
    /**
     * @param cnotDuration row-major numHw x numHw table of the fastest
     *        route duration per ordered (control, target) pair; the
     *        diagonal is ignored.
     */
    MakespanBoundSearch(const Circuit &prog, int numHw,
                        std::vector<Timeslot> cnotDuration,
                        Timeslot oneQubitDuration,
                        Timeslot readoutDuration);

    MakespanBoundResult solve();

  private:
    /** How one gate is timed: a CNOT's qubits, or a fixed duration. */
    struct GateTiming
    {
        ProgQubit control = -1; ///< -1 for a non-CNOT gate
        ProgQubit target = -1;
        Timeslot fixed = 0;
    };

    Timeslot cnotBound(int q0, int q1) const;
    Timeslot bound(Timeslot cutoff);
    void recordLeaf(Timeslot value);
    void dfs(int level);

    int numProg_;
    int numHw_;
    DependencyDag dag_;
    std::vector<GateTiming> gates_;
    std::vector<Timeslot> dur_;      ///< cnotDuration table
    std::vector<HwQubit> fromOrder_; ///< per c: partners t by dur(c, t)
    std::vector<HwQubit> toOrder_;   ///< per t: partners c by dur(c, t)
    Timeslot globalMin_ = 0;
    std::vector<ProgQubit> order_;   ///< branched (CNOT) qubits

    // Search state, sized once by solve().
    std::vector<HwQubit> assign_;
    std::vector<char> used_;
    std::vector<Timeslot> finish_;
    std::vector<std::pair<Timeslot, HwQubit>> cands_; ///< per level
    std::vector<HwQubit> best_;
    Timeslot bestValue_ = 0;
    bool haveLeaf_ = false;
    std::int64_t work_ = 0;
    bool hitLimit_ = false;
};

} // namespace qc

#endif // QC_SOLVER_BNB_PLACER_HPP
